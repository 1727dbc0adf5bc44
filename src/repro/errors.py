"""Exception hierarchy for the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GridError(ReproError):
    """A processor grid could not be formed (e.g. ``p % c != 0`` or
    ``p / c`` is not a perfect square for a 2.5D grid)."""


class DistributionError(ReproError):
    """Matrix data does not conform to the distribution an algorithm
    expects (shape mismatches, non-conforming block ranges, ...)."""


class SpmdAbort(ReproError):
    """Raised inside SPMD ranks when another rank has failed, so that all
    threads unwind instead of blocking on a receive forever."""


class CommError(ReproError):
    """Malformed point-to-point or collective communication usage."""


class SpmdTimeout(ReproError):
    """A rank's blocking receive outlived its deadline (``deadline_ms``).

    Carries a per-rank blocked-state ``dump``: for every rank that was
    blocked in the transport when the deadline fired, the message key it
    was waiting on (communicator id, source rank, tag), how long it had
    been waiting, the phase its profile had open, and the most recent
    trace span (when tracing).  The raising rank aborts the world, so a
    mismatched collective becomes one readable error instead of a frozen
    process.
    """

    def __init__(self, message: str, dump=None) -> None:
        super().__init__(message)
        #: list of per-rank blocked-state dicts (see class docstring)
        self.dump = dump if dump is not None else []


class UnknownBackendError(ReproError):
    """An execution-backend name is not in the registry.

    Raised by :func:`repro.runtime.backend.validate_backend_name` (and
    therefore by :func:`repro.plan` / the one-shot wrappers / the CLI)
    when ``backend`` names neither ``"threads"`` nor ``"mpi"``.  The
    message lists the registered names.
    """


class BackendUnavailableError(ReproError):
    """A registered execution backend cannot run in this environment.

    Currently raised for ``backend="mpi"`` when :mod:`mpi4py` is not
    importable.  The message carries the install hint (``pip install
    mpi4py`` plus an MPI implementation such as MPICH or Open MPI) and
    the ``mpirun`` launch reminder, so the fix is in the traceback.
    """


class UnknownKernelBackendError(ReproError):
    """A local-kernel backend name is not in the registry.

    Raised by :func:`repro.kernels.registry.validate_kernel_backend_name`
    (and therefore by :func:`repro.plan` / the one-shot wrappers / the
    CLI) when ``kernels`` names neither ``"numpy"``, ``"numba"`` nor
    ``"auto"``.  The message lists the registered names.
    """


class KernelBackendUnavailableError(ReproError):
    """A registered kernel backend cannot run in this environment.

    Currently raised for ``kernels="numba"`` when :mod:`numba` is not
    importable.  The message carries the install hint (``pip install
    numba``) and points at the default ``kernels="numpy"`` path, so the
    fix is in the traceback.  ``kernels="auto"`` never raises this — it
    only considers backends that are actually available.
    """


class SessionBusyError(ReproError):
    """Two driver threads called into one :class:`~repro.session.Session`
    concurrently.  Sessions hold resident per-rank state (dense blocks,
    skip-rebind snapshots, per-rank profiles) that a second
    concurrent caller would silently corrupt, so genuinely concurrent
    calls fail fast with this typed error instead.  Serialize callers —
    e.g. behind a queue, the way :class:`repro.serve.Server` does — or
    give each thread its own session."""


class ServeOverload(ReproError):
    """Admission control: the serving queue is at capacity.

    Raised by :meth:`repro.serve.Server.submit` when accepting the
    request would exceed ``max_queue`` pending requests.  Callers should
    shed load or retry after a backoff; the request was **not** enqueued.
    """


class FaultInjected(ReproError):
    """Base class for failures raised by a deterministic
    :class:`~repro.runtime.faults.FaultPlan` (never raised in production
    runs; the fault plane is off unless explicitly threaded in)."""


class InjectedCrash(FaultInjected):
    """A rank was crashed by a ``crash`` fault at a named phase/region."""


class InjectedExhaustion(FaultInjected):
    """A :class:`~repro.runtime.buffers.BufferPool` acquisition was failed
    by an ``exhaust`` fault (simulated allocation failure)."""
