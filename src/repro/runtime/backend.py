"""Pluggable message transports: the backend seam plus the thread World.

Everything above this module — :class:`~repro.runtime.comm.Communicator`,
the ring and need-list collectives, the worker pools, sessions — talks to
the network through the :class:`Transport` interface defined here: a
*send* is :meth:`Transport.deliver`, a *recv* is
:meth:`Transport.collect`, and matching uses ``(communicator id, source
rank, tag)`` keys (:data:`MsgKey`) with FIFO ordering per key — exactly
MPI's non-overtaking guarantee for point-to-point messages on a single
(comm, src, dst, tag) channel.  Two implementations exist:

* :class:`World` (``backend="threads"``, the default) — all ranks are
  threads in one process; each rank owns a :class:`Mailbox` and a send
  deep-copies the payload into the destination mailbox, preserving
  distributed-memory semantics (no rank ever aliases another rank's
  buffers).
* :class:`~repro.runtime.backend_mpi.MpiTransport` (``backend="mpi"``) —
  each rank is a real process under ``mpirun``; sends ride
  ``MPI_Isend`` with the match key embedded in the message, receives
  drain and demultiplex into per-key local queues.

The contract both must honor (see ``ARCHITECTURE.md`` for the full
normative text): per-key FIFO delivery, payload isolation (a delivered
object never aliases the sender's buffers), abort propagation
(:class:`~repro.errors.SpmdAbort` out of blocked calls once
:meth:`Transport.abort` ran) and deadline enforcement
(:class:`~repro.errors.SpmdTimeout` carrying a blocked-state dump when a
collect outlives :attr:`Transport.deadline`).

Backend names are resolved here too (:func:`validate_backend_name`,
:func:`ensure_backend_available`, :func:`resolve_backend`, all bound to
one :class:`~repro.types.NameRegistry`) so every entry point —
:func:`repro.plan`, the one-shot wrappers, the CLI, the benchmarks —
fails the same way: a typed
:class:`~repro.errors.UnknownBackendError` for a name outside
:data:`BACKENDS`, a typed :class:`~repro.errors.BackendUnavailableError`
with an install hint when ``mpi4py`` is missing.
"""

from __future__ import annotations

import importlib.util
import threading
import time
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    BackendUnavailableError,
    SpmdAbort,
    SpmdTimeout,
    UnknownBackendError,
)
from repro.types import NameRegistry

#: (communicator id tuple, source_rank, tag)
MsgKey = Tuple[Tuple[int, ...], int, int]

#: registered execution backends, in default-preference order
BACKENDS = ("threads", "mpi")


def mpi_available() -> bool:
    """True when :mod:`mpi4py` is importable (without importing it)."""
    return importlib.util.find_spec("mpi4py") is not None


_REGISTRY = NameRegistry(
    "execution backend",
    BACKENDS,
    UnknownBackendError,
    BackendUnavailableError,
    {
        "mpi": (
            lambda: mpi_available(),  # looked up per call: tests patch it
            "backend='mpi' needs mpi4py, which is not installed. "
            "Install an MPI implementation plus the bindings — e.g. "
            "`apt-get install mpich && pip install mpi4py` — and launch "
            "with `mpirun -n <p> python ...`; or use the default "
            "backend='threads', which needs nothing.",
        )
    },
)

#: ``validate_backend_name(backend) -> str``: the canonical name, or
#: :class:`~repro.errors.UnknownBackendError` listing :data:`BACKENDS`;
#: availability is *not* checked, so feature guards can run first
validate_backend_name = _REGISTRY.validate

#: ``ensure_backend_available(backend)``: typed
#: :class:`~repro.errors.BackendUnavailableError` with the install hint if
#: the (already validated) backend cannot run in this environment
ensure_backend_available = _REGISTRY.ensure_available


def resolve_backend(backend: str) -> str:
    """Validate *and* availability-check a backend name (fail fast)."""
    name = validate_backend_name(backend)
    ensure_backend_available(name)
    return name


class Transport(ABC):
    """Abstract rank-to-rank message substrate (the backend interface).

    Implementations connect ``nranks`` SPMD ranks and must provide the
    attribute surface the communicator layer reads:

    ``nranks``
        World size.
    ``abort_event``
        A :class:`threading.Event`-like flag; once set, blocked and new
        transport calls raise :class:`~repro.errors.SpmdAbort`.
    ``deadline``
        Optional ``time.perf_counter`` horizon: a :meth:`collect` still
        empty past it raises :class:`~repro.errors.SpmdTimeout`.
    ``blocked`` / ``active_profiles``
        Diagnostic registries feeding :meth:`describe_blocked` (each
        written only by the local rank(s) of this process).
    """

    nranks: int
    deadline: Optional[float]
    blocked: Dict[int, Tuple[MsgKey, float]]
    active_profiles: Dict[int, Any]

    @abstractmethod
    def deliver(self, dest: int, key: MsgKey, payload: Any) -> None:
        """Asynchronously send ``payload`` to world rank ``dest``.

        Must not block on the receiver; must raise
        :class:`~repro.errors.SpmdAbort` once the transport is aborted.
        The receiver must never observe an object aliasing the sender's
        buffers (copy, or serialize across a process boundary).
        """

    @abstractmethod
    def collect(self, rank: int, key: MsgKey) -> Any:
        """Blocking receive for world rank ``rank``: returns the payload.

        Messages with equal ``key`` arrive in send order
        (non-overtaking).  Raises :class:`~repro.errors.SpmdAbort` on
        abort and :class:`~repro.errors.SpmdTimeout` (with a
        :meth:`describe_blocked` dump attached) past ``deadline``.
        """

    @abstractmethod
    def abort(self) -> None:
        """Flip the abort flag and wake every blocked :meth:`collect`."""

    @abstractmethod
    def reset(self) -> None:
        """Return an aborted transport to a usable state (drop undelivered
        messages, clear the abort flag and deadline).  Only called once no
        rank is blocked inside :meth:`collect`."""

    def describe_blocked(self) -> List[Dict[str, Any]]:
        """Per-rank blocked-state snapshot (diagnostic, racy by design).

        One dict per currently blocked *local* rank: the message key it
        waits on, how long it has waited, the phase its profile has open,
        and the most recent completed trace span (when tracing).  Under a
        process backend this only sees the calling process's rank; the
        thread backend sees all ranks.
        """
        now = time.perf_counter()
        dump: List[Dict[str, Any]] = []
        for r in sorted(self.blocked):
            entry = self.blocked.get(r)
            if entry is None:
                continue
            (comm_id, src, tag), since = entry
            state: Dict[str, Any] = {
                "rank": r,
                "waiting_for_comm_rank": src,
                "tag": tag,
                "comm_id": comm_id,
                "waited_s": now - since,
            }
            prof = self.active_profiles.get(r)
            if prof is not None:
                phase = getattr(prof, "phase", None)
                state["phase"] = getattr(phase, "value", None)
                tracer = getattr(prof, "tracer", None)
                if tracer is not None:
                    state["last_span"] = tracer.latest()
            dump.append(state)
        return dump


def format_blocked_dump(dump) -> str:
    """Render a :meth:`Transport.describe_blocked` dump as indented report
    lines (or '')."""
    if not dump:
        return ""
    lines = ["", "blocked ranks at expiry:"]
    for entry in dump:
        span = entry.get("last_span")
        lines.append(
            f"  rank {entry['rank']}: waiting {entry['waited_s']:.3f}s for "
            f"comm rank {entry['waiting_for_comm_rank']} "
            f"(tag {entry['tag']}, comm {entry['comm_id']}), "
            f"phase={entry['phase']}"
            + (f", last span={span!r}" if span else "")
        )
    return "\n".join(lines)


class Mailbox:
    """Inbox of a single rank: per-(comm, src, tag) FIFO queues."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queues: Dict[MsgKey, Deque[Any]] = defaultdict(deque)

    def put(self, key: MsgKey, payload: Any) -> None:
        with self._cond:
            self._queues[key].append(payload)
            self._cond.notify_all()

    def get(
        self,
        key: MsgKey,
        abort: threading.Event,
        timeout: float = 0.05,
        deadline: Optional[float] = None,
    ) -> Any:
        """Block until a message with ``key`` is available (or abort) and
        return its payload.

        With a ``deadline`` (``time.perf_counter`` horizon), an empty
        wait past it raises :class:`~repro.errors.SpmdTimeout` — the
        watchdog that turns a mismatched collective into a typed error
        within one poll period of the deadline instead of a silent hang.
        """
        with self._cond:
            while True:
                q = self._queues.get(key)
                if q:
                    return q.popleft()
                if abort.is_set():
                    raise SpmdAbort("SPMD world aborted while waiting for a message")
                if deadline is not None and time.perf_counter() >= deadline:
                    comm_id, src, tag = key
                    raise SpmdTimeout(
                        f"deadline expired waiting for a message from comm rank "
                        f"{src} (tag {tag}, comm {comm_id})"
                    )
                self._cond.wait(timeout=timeout)

    def wake(self) -> None:
        """Wake all waiters (used when aborting the world)."""
        with self._cond:
            self._cond.notify_all()

    def reset(self) -> None:
        """Drop all undelivered messages (post-abort pool recovery)."""
        with self._cond:
            self._queues.clear()
            self._cond.notify_all()


class World(Transport):
    """Thread-backed :class:`Transport`: ``nranks`` virtual ranks in one
    process, one :class:`Mailbox` per rank (``backend="threads"``).

    Communicator ids are allocated by the communicator layer: ``COMM_WORLD``
    is id 0; communicator splits derive new ids deterministically (every
    member of the parent communicator performs the same sequence of
    splits, so all members compute identical child ids without central
    coordination).
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"world needs at least one rank, got {nranks}")
        self.nranks = nranks
        self.mailboxes = [Mailbox() for _ in range(nranks)]
        self.abort_event = threading.Event()
        #: ``time.perf_counter`` horizon enforced in :meth:`collect`
        #: while work is in flight (set by the worker pool per item)
        self.deadline: Optional[float] = None
        #: live blocked-state registry: rank -> (key, wait_start_ts) while
        #: that rank is inside :meth:`collect` (diagnostics only — each
        #: entry is written by its own rank's thread)
        self.blocked: Dict[int, Tuple[MsgKey, float]] = {}
        #: rank -> the RankProfile of the item it is currently running
        #: (registered by the worker pool; feeds the blocked-state dump)
        self.active_profiles: Dict[int, Any] = {}

    def deliver(self, dest: int, key: MsgKey, payload: Any) -> None:
        if self.abort_event.is_set():
            raise SpmdAbort("SPMD world aborted while sending a message")
        self.mailboxes[dest].put(key, payload)

    def collect(self, rank: int, key: MsgKey) -> Any:
        """Blocking receive; returns the payload.

        Registers the caller in the blocked-state registry for the wait's
        duration; on deadline expiry the raised
        :class:`~repro.errors.SpmdTimeout` is enriched with a dump of
        *every* rank still blocked at that moment (taken before the abort
        wakes them, so the dump shows the true stuck configuration).
        """
        self.blocked[rank] = (key, time.perf_counter())
        try:
            return self.mailboxes[rank].get(
                key, self.abort_event, deadline=self.deadline
            )
        except SpmdTimeout as exc:
            exc.dump = self.describe_blocked()
            raise
        finally:
            self.blocked.pop(rank, None)

    def abort(self) -> None:
        self.abort_event.set()
        for mb in self.mailboxes:
            mb.wake()

    def reset(self) -> None:
        """Return an aborted world to a usable state.

        Clears the abort flag and drops every undelivered message, so a
        persistent :class:`~repro.runtime.spmd.WorkerPool` can keep its
        resident ranks after one work item failed.  Only call once every
        rank has finished the failed item (no thread may be blocked inside
        :meth:`collect` when the queues are cleared).
        """
        self.abort_event.clear()
        self.deadline = None
        self.blocked.clear()
        for mb in self.mailboxes:
            mb.reset()
