"""SPMD launchers: the thread worker pool and the backend-generic factory.

This layer plays the role of ``mpiexec -n p`` for the default
``backend="threads"``: :class:`WorkerPool` creates a
:class:`~repro.runtime.backend.World`, gives every rank its own
:class:`~repro.runtime.comm.Communicator` and
:class:`~repro.runtime.profile.RankProfile`, and runs the rank bodies on
threads (NumPy releases the GIL inside kernels, so local computation runs
genuinely in parallel, mirroring the paper's hybrid MPI+OpenMP model).
Under ``backend="mpi"`` the launcher role is played by ``mpirun`` itself
and the pool becomes the rank-resident
:class:`~repro.runtime.backend_mpi.MpiWorkerPool`; the
:func:`make_worker_pool` factory is the seam sessions construct through,
and the :attr:`WorkerPool.spans_processes` flag is how callers learn
whether rank-local mutations need cross-process synchronization.

Launch shapes on the thread backend:

* :class:`WorkerPool` — one resident :class:`World` plus ``p`` long-lived
  rank threads blocked on per-rank dispatch queues.  Repeated
  :meth:`WorkerPool.run` calls reuse the warm threads, the persistent
  per-rank communicators and (through them) any subcommunicators /
  contexts a previous item built — the paper's iterative workloads (ALS
  sweeps, GAT epochs) amortize all of that across calls, exactly like the
  persistent sparse-communication setup of SpComm3D.
* :func:`run_spmd` — the historical one-shot launcher, now a thin
  spawn-once wrapper over a throwaway pool (of either backend).

Placement: a pool built with ``placement="packed"`` (the plan-time answer
for fine-grained sessions, :mod:`repro.model.resolve`) keeps all its rank
threads on **one** core — each rank thread pins itself, once, when it
starts.  Ranks whose kernels are ~100 us of work spend a second core on
handing the GIL back and forth, not on computing.  The driver thread and
the process mask are never touched, and where nothing can be pinned (no
``os.sched_setaffinity``, a one-core mask, one rank) a packed pool runs
exactly like a spread one.

Failure handling on the thread pool: if any rank raises, the world is
aborted so sibling ranks blocked on receives unwind promptly
(:class:`SpmdAbort`), the world is reset so the resident ranks stay
usable, and the item's ``on_failure`` hook runs; a :func:`retryable`
error re-runs the item while its ``retries`` last, any other is
re-raised in the caller.  The MPI pool has no cross-process recovery —
see :mod:`repro.runtime.backend_mpi` for its (stricter) semantics.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import CommError, FaultInjected, ReproError, SpmdAbort, SpmdTimeout
from repro.runtime.backend import World, format_blocked_dump, validate_backend_name
from repro.runtime.comm import Communicator
from repro.runtime.profile import RankProfile, RunReport

RankFn = Callable[[Communicator], Any]

#: root-cause classes that justify re-running a work item: runtime-shaped
#: failures (expired deadlines, transport errors, injected faults,
#: sibling-abort unwinds).  Deterministic user errors (a ValueError out of
#: an edge_op, a shape mismatch) are NOT here — re-running them would fail
#: identically, so they surface unchanged on the first attempt.
_RETRYABLE_ERRORS = (SpmdTimeout, CommError, FaultInjected, SpmdAbort)


def retryable(exc: BaseException) -> bool:
    """Is ``exc`` (or its chained root cause) a runtime fault?"""
    return isinstance(exc, _RETRYABLE_ERRORS) or isinstance(
        exc.__cause__, _RETRYABLE_ERRORS
    )


#: packed pools built so far in this process: successive pools (a serve
#: fleet's sessions) take successive cores, and the pid spreads the
#: processes of one host (xdist workers) the same way
_PACKED_POOLS = itertools.count()


def _pick_core(nranks: int) -> Optional[int]:
    """The core a packed pool's rank threads share, or ``None`` where there
    is nothing to pin (one rank, no ``sched_setaffinity``, one core)."""
    if nranks == 1 or not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))  # the driver thread's mask
    if len(allowed) < 2:
        return None
    return allowed[(os.getpid() + next(_PACKED_POOLS)) % len(allowed)]


class _Latch:
    """Count-down latch: the driver waits until all ranks finished an item."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            self._n -= 1
            if self._n <= 0:
                self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            while self._n > 0:
                self._cond.wait()


class _WorkItem:
    """One dispatched SPMD body plus its completion/error state."""

    __slots__ = ("fn", "profiles", "results", "errors", "errors_lock", "latch",
                 "label", "post_ts", "deadline_ms")

    def __init__(
        self, fn: RankFn, profiles: List[RankProfile], label: str = "",
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.fn = fn
        self.profiles = profiles
        self.errors_lock = threading.Lock()
        self.label = label
        self.deadline_ms = deadline_ms


def _rank_error(item: _WorkItem) -> BaseException:
    """The lowest failing rank's error, chained so its traceback survives
    (raw on a single-rank pool)."""
    rank, exc = min(item.errors, key=lambda e: e[0])
    if len(item.results) == 1:
        return exc
    if isinstance(exc, SpmdTimeout):
        # deadline expiries stay typed, carrying the blocked-state dump
        # taken at the moment the watchdog fired
        error = SpmdTimeout(
            f"SPMD rank {rank} timed out: {exc}" + format_blocked_dump(exc.dump),
            dump=exc.dump,
        )
    else:
        error = RuntimeError(f"SPMD rank {rank} failed: {exc!r}")
    error.__cause__ = exc
    return error


class WorkerPool:
    """Persistent SPMD worker pool: one world, ``p`` resident rank threads.

    Construction spawns the threads (blocked on their dispatch queues) and
    one :class:`Communicator` per rank that persists across work items —
    so communicator splits, grid contexts and buffer pools built by one
    item remain valid for the next.  ``nranks == 1`` runs items inline on
    the driver thread (no thread is spawned), matching the historical
    single-rank fast path.

    Discipline: one driver thread dispatches items sequentially
    (:meth:`run` serializes itself); rank bodies follow normal SPMD
    discipline on the persistent communicators (every rank performs the
    same collective/split sequence).

    Failure semantics match :func:`run_spmd`: the first raising rank
    aborts the world, siblings unwind via :class:`SpmdAbort`, and the
    driver re-raises ``RuntimeError``.  Afterwards the pool *recovers* —
    the abort flag is cleared, undelivered messages are dropped and the
    per-rank split counters are realigned — so the pool stays usable.
    """

    #: all ranks live in this process — rank-local mutations are globally
    #: visible, so sessions skip the cross-process locals sync
    spans_processes = False

    def __init__(
        self,
        nranks: int,
        name: str = "spmd-pool",
        faults=None,
        deadline_ms: Optional[float] = None,
        placement: str = "spread",
    ) -> None:
        if nranks < 1:
            raise ValueError(f"worker pool needs at least one rank, got {nranks}")
        if placement not in ("packed", "spread"):
            raise ValueError(
                f"placement must be 'packed' or 'spread', got {placement!r}"
            )
        self.nranks = nranks
        self.name = name
        self.placement = placement
        #: the core every rank thread pinned itself to (``None``: unpinned)
        self.core = _pick_core(nranks) if placement == "packed" else None
        #: default per-item deadline (:meth:`run` may override per call);
        #: ``None`` disables the watchdog
        self.deadline_ms = deadline_ms
        self.world = World(nranks)
        # with a plan, each rank armed by it: the transport its
        # communicators send through, and its items' profiles' site hook
        self._armed = (
            [faults.rank_view(r, self.world) for r in range(nranks)]
            if faults is not None
            else None
        )
        self._comms = [
            Communicator.world_comm(self._armed[r] if self._armed else self.world, r)
            for r in range(nranks)
        ]
        self._queues: List[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(nranks)
        ]
        self._run_lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = []
        if nranks > 1:
            started = _Latch(nranks)
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    args=(r, started),
                    name=f"{name}-rank-{r}",
                    daemon=True,
                )
                for r in range(nranks)
            ]
            for t in self._threads:
                t.start()
            if self.core is not None:
                started.wait()  # ``core`` is settled when the constructor returns

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _worker(self, r: int, started: _Latch) -> None:
        if self.core is not None:
            # pid 0 is the calling *thread*: the driver keeps its mask
            try:
                os.sched_setaffinity(0, {self.core})
            except OSError:  # a sandbox that refuses the call: run unpinned
                self.core = None
        started.count_down()
        while True:
            item = self._queues[r].get()
            if item is None:  # shutdown sentinel
                return
            latch = self._run_item(r, item)
            # Drop the item reference *before* counting down and blocking
            # on the next get(): the worker's frame is a GC root, and the
            # item's rank_fn closure typically references the owning
            # session — holding it would keep an abandoned session (and
            # this pool's threads) alive forever, defeating __del__.
            del item
            latch.count_down()
            del latch

    def _run_item(self, r: int, item: _WorkItem) -> _Latch:
        """Run rank ``r``'s share of ``item``; returns the latch to count
        down.  A raising rank records its error and aborts the world so
        its siblings unwind."""
        comm = self._comms[r]
        profile = comm.profile = item.profiles[r]
        if self._armed is not None:
            profile.site = self._armed[r]
        self.world.active_profiles[r] = profile
        tracer = profile.tracer
        if tracer is not None:
            run_start = time.perf_counter()
            tracer.span(
                f"queue-wait {item.label}".rstrip(), "pool", item.post_ts, run_start
            )
        try:
            item.results[r] = item.fn(comm)
        except SpmdAbort:
            pass  # a sibling failed first; its error is reported instead
        except BaseException as exc:  # noqa: BLE001 - must not hang siblings
            with item.errors_lock:
                item.errors.append((r, exc))
            self.world.abort()
        finally:
            if tracer is not None:
                tracer.span(
                    f"run {item.label}".rstrip(), "pool", run_start,
                    time.perf_counter(),
                )
        return item.latch

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def comm(self, rank: int) -> Communicator:
        """The persistent communicator of ``rank`` (for introspection)."""
        return self._comms[rank]

    def run(
        self,
        rank_fn: RankFn,
        profiles: Optional[List[RankProfile]] = None,
        label: str = "",
        deadline_ms: Optional[float] = None,
        retries: int = 0,
        on_failure: Optional[Callable[[], None]] = None,
    ) -> Tuple[List[Any], RunReport]:
        """Dispatch ``rank_fn(comm)`` to every resident rank and wait.

        Same contract as :func:`run_spmd`: returns ``(results, report)``,
        re-raises the lowest-rank error as ``RuntimeError`` after all
        ranks finished unwinding — except deadline expiries, which
        re-raise as :class:`~repro.errors.SpmdTimeout` carrying the
        per-rank blocked-state dump.  On a single-rank pool the item runs
        inline (no threads exist) and errors propagate raw.
        ``deadline_ms`` overrides the pool's default watchdog horizon for
        this item.

        A failed attempt recovers the world (every rank body has unwound)
        and calls ``on_failure()`` on the driver — the hook that puts back
        what ``rank_fn`` runs from; a :func:`retryable` error then re-runs
        the item while ``retries`` last.  Otherwise the error surfaces: a
        non-retryable one at once, the *first* one once the re-runs are
        spent.
        """
        if self._closed:
            raise ReproError("worker pool is closed; dispatch is not possible")
        if profiles is None:
            profiles = [RankProfile() for _ in range(self.nranks)]
        if len(profiles) != self.nranks:
            raise ValueError("profiles must have one entry per rank")
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        item = _WorkItem(rank_fn, profiles, label, deadline_ms)
        first_error: Optional[BaseException] = None
        with self._run_lock:
            try:
                while True:
                    self._post(item)
                    item.latch.wait()
                    if not item.errors:
                        return item.results, RunReport(per_rank=profiles, label=label)
                    self._recover()
                    if on_failure is not None:
                        on_failure()
                    error = _rank_error(item)
                    if not retryable(error):
                        raise error
                    first_error = first_error or error
                    if retries <= 0:
                        raise first_error
                    retries -= 1
            finally:
                self.world.deadline = None

    def _post(self, item: _WorkItem) -> None:
        """Hand ``item`` to every rank as a fresh attempt (under the run
        lock); a single-rank pool has no threads and runs it inline."""
        item.results = [None] * self.nranks
        item.errors = []
        item.latch = _Latch(self.nranks)
        item.post_ts = time.perf_counter()
        # ranks check the world's deadline inside blocked receives
        self.world.deadline = (
            time.perf_counter() + item.deadline_ms / 1e3
            if item.deadline_ms is not None
            else None
        )
        if self.nranks == 1:
            self._run_item(0, item).count_down()
        else:
            for q in self._queues:
                q.put(item)

    def _recover(self) -> None:
        """Return the pool to a clean state after a failed item.

        Every rank has already finished the item (the latch was waited
        on), so no thread is blocked in the transport: clear the abort
        flag, drop undelivered messages, and realign the per-rank split
        counters to their maximum so the next collective split sequence
        derives consistent, never-before-used communicator ids even when
        ranks failed at different depths of a split sequence.
        """
        self.world.reset()
        top = max(c._split_counter for c in self._comms)
        for c in self._comms:
            c._split_counter = top

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queues, join every rank thread, and seal the pool.

        Idempotent.  ``timeout`` bounds the per-thread join.  Raises
        :class:`ReproError` if a thread fails to join (e.g. a rank body
        deadlocked in a mismatched collective); the message names each
        stuck rank together with the receive it is blocked on, its open
        phase, and its last completed trace span, and the pool is *not*
        marked closed, so a retry attempts the join again instead of
        silently leaking the threads.
        """
        if self._closed:
            return
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        alive = [t for t in self._threads if t.is_alive()]
        if alive:
            raise ReproError(
                f"worker threads failed to join after {timeout:g}s: "
                + "; ".join(self._describe_stuck(t) for t in alive)
            )
        self._threads = []
        self._closed = True

    def _describe_stuck(self, thread: threading.Thread) -> str:
        """One-line diagnosis of a rank thread that refused to join."""
        try:
            rank = int(thread.name.rsplit("-", 1)[1])
        except (IndexError, ValueError):  # pragma: no cover - name is ours
            return thread.name
        desc = f"rank {rank}"
        blocked = self.world.blocked.get(rank)
        if blocked is not None:
            (comm_id, src, tag), since = blocked
            desc += (
                f" blocked {time.perf_counter() - since:.3f}s on a receive "
                f"from comm rank {src} (tag {tag}, comm {comm_id})"
            )
        else:
            desc += " not blocked in the transport (busy or wedged in a kernel)"
        profile = self.world.active_profiles.get(rank)
        if profile is not None:
            desc += f", phase={profile.phase.value}"
            tracer = profile.tracer
            if tracer is not None:
                span = tracer.latest()
                if span:
                    desc += f", last span={span!r}"
        return desc

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        where = self.placement + ("" if self.core is None else f" on core {self.core}")
        return f"WorkerPool(nranks={self.nranks}, {where}, {state})"


def make_worker_pool(
    backend: str,
    nranks: int,
    name: str = "spmd-pool",
    faults=None,
    deadline_ms: Optional[float] = None,
    *,
    placement: str = "spread",
):
    """Construct the worker pool for a (validated or raw) backend name.

    This is the factory sessions build through: ``"threads"`` returns a
    :class:`WorkerPool`, ``"mpi"`` lazily imports
    :mod:`repro.runtime.backend_mpi` and returns an
    :class:`~repro.runtime.backend_mpi.MpiWorkerPool` (raising the typed
    :class:`~repro.errors.BackendUnavailableError` when mpi4py is
    missing).  Unknown names raise
    :class:`~repro.errors.UnknownBackendError`.  ``placement`` reaches the
    thread pool only: where an mpi rank runs is ``mpirun``'s decision.
    """
    backend = validate_backend_name(backend)
    if backend == "mpi":
        from repro.runtime.backend_mpi import MpiWorkerPool

        return MpiWorkerPool(
            nranks, name=name, faults=faults, deadline_ms=deadline_ms
        )
    return WorkerPool(
        nranks, name=name, faults=faults, deadline_ms=deadline_ms, placement=placement
    )


def run_spmd(
    nranks: int,
    rank_fn: RankFn,
    profiles: Optional[List[RankProfile]] = None,
    label: str = "",
    deadline_ms: Optional[float] = None,
    faults=None,
    backend: str = "threads",
) -> Tuple[List[Any], RunReport]:
    """Execute ``rank_fn(comm)`` on ``nranks`` fresh ranks and collect results.

    This is the one-shot launcher: a throwaway :class:`WorkerPool` is
    spawned, the single item runs, and the pool is joined before
    returning.  Iterative callers should hold a :class:`WorkerPool` (the
    session API does) so the spawn cost is paid once, not per call.

    Parameters
    ----------
    nranks:
        Number of virtual ranks (the paper's ``p``).
    rank_fn:
        The SPMD body.  It receives a communicator whose ``rank`` and
        ``size`` identify the calling rank; per-rank input data is usually
        captured in a closure and indexed by ``comm.rank``.
    profiles:
        Optional pre-existing per-rank profiles, so several SPMD launches
        (e.g. the paper's "5 FusedMM calls") accumulate into one report.
    deadline_ms:
        Optional watchdog horizon for the launch; expiry raises
        :class:`~repro.errors.SpmdTimeout` with a blocked-state dump.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` armed on every
        rank the throwaway pool runs (under ``"mpi"``, the local one).
    backend:
        Execution backend (``"threads"``, the default, or ``"mpi"``).
        Under ``"mpi"`` the body runs for the calling process's resident
        rank and results are allgathered, so every replicated driver
        returns the full results list — see
        :mod:`repro.runtime.backend_mpi`.

    Returns
    -------
    (results, report):
        ``results[r]`` is rank ``r``'s return value; ``report`` aggregates
        the per-rank cost profiles.
    """
    if profiles is not None and len(profiles) != nranks:
        raise ValueError("profiles must have one entry per rank")
    pool = make_worker_pool(
        backend, nranks, name="spmd", faults=faults, deadline_ms=deadline_ms
    )
    try:
        return pool.run(rank_fn, profiles=profiles, label=label)
    finally:
        pool.close()
