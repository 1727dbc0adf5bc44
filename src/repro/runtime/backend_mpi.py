"""MPI process backend: one real process per rank (``backend="mpi"``).

The program model is *replicated SPMD*: under ``mpirun -n p`` the whole
driver script runs identically in every process (the same planning, the
same knob resolution, the same deterministic inputs), and only the
rank-resident work diverges — :class:`MpiWorkerPool.run` executes the
rank body for the **local** rank alone, then allgathers each rank's
return value and profile-counter snapshot over a control communicator so
every replicated driver continues from identical state.  This mirrors
how the paper's C++/MPI implementation is launched, and it is what lets
the thread-simulated :class:`~repro.runtime.spmd.WorkerPool` and this
pool sit behind one session API: the session's collect logic reads "all
ranks' locals" on every process because the pool synchronized them.

:class:`MpiTransport` implements the :class:`~repro.runtime.backend.Transport`
contract over mpi4py point-to-point messages: every ``deliver`` is an
``MPI_Isend`` of the pickled ``(match_key, payload)`` pair on a single
MPI tag, and ``collect`` drains arrivals (``iprobe`` on
``ANY_SOURCE``) into per-key local queues.  Because MPI guarantees
non-overtaking per (source, communicator, tag) and all traffic rides one
tag on one communicator, per-key FIFO order is preserved end to end —
the same matching semantics as the thread :class:`~repro.runtime.backend.World`.

Deliberately thread-only for now (``repro.plan`` rejects them with
typed errors): fault injection, ``retries``/graceful degradation and
serve fleets.  A fault plan handed to :class:`MpiWorkerPool` directly
arms the local rank, as the thread pool arms each of its ranks.  A
deadline expiry under this backend is a job-level circuit breaker — the
blocked-state dump is printed and the MPI job is aborted — because
there is no sibling-abort recovery across processes.

This module imports cleanly without mpi4py; constructing either class
raises :class:`~repro.errors.BackendUnavailableError` with the install
hint instead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError, SpmdAbort, SpmdTimeout
from repro.runtime.backend import (
    MsgKey,
    Transport,
    ensure_backend_available,
    format_blocked_dump,
)
from repro.runtime.comm import Communicator
from repro.runtime.profile import RankProfile, RunReport


def _mpi():
    """The :mod:`mpi4py.MPI` module, or a typed error with install hint."""
    ensure_backend_available("mpi")
    from mpi4py import MPI

    return MPI


def mpi_world_size() -> int:
    """Size of ``MPI_COMM_WORLD`` (1 when launched without ``mpirun``)."""
    return _mpi().COMM_WORLD.Get_size()


def mpi_world_rank() -> int:
    """This process's rank in ``MPI_COMM_WORLD``."""
    return _mpi().COMM_WORLD.Get_rank()


class _ThreadLikeEvent:
    """Minimal local abort flag (process-local, like the thread backend's
    event — an abort never propagates to sibling processes; job-level
    teardown goes through ``MPI_Abort`` instead)."""

    __slots__ = ("_set",)

    def __init__(self) -> None:
        self._set = False

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        self._set = True

    def clear(self) -> None:
        self._set = False


class MpiTransport(Transport):
    """:class:`~repro.runtime.backend.Transport` over mpi4py processes.

    All runtime traffic rides one MPI tag (:data:`MPI_TAG`) on a private
    duplicate of ``MPI_COMM_WORLD``; the library-level match key
    ``(communicator id, source comm-rank, tag)`` travels inside the
    pickled message, and :meth:`collect` demultiplexes arrivals into
    per-key FIFO queues.  The dup isolates this transport's traffic from
    the control plane and from any other transport instance, so a
    session may be closed and a fresh one opened without stray messages
    crossing over.
    """

    #: the single wire-level MPI tag; message matching is by embedded key
    MPI_TAG = 7

    def __init__(self) -> None:
        MPI = _mpi()
        self._MPI = MPI
        self._comm = MPI.COMM_WORLD.Dup()
        self.nranks = self._comm.Get_size()
        self.rank = self._comm.Get_rank()
        self.deadline: Optional[float] = None
        self.blocked: Dict[int, Tuple[MsgKey, float]] = {}
        self.active_profiles: Dict[int, Any] = {}
        self.abort_event = _ThreadLikeEvent()
        self._inbox: Dict[MsgKey, Deque[Any]] = defaultdict(deque)
        self._sends: List[Any] = []

    # -- internals ------------------------------------------------------

    def _progress(self) -> None:
        """Drain completed sends and every already-arrived message."""
        if self._sends:
            still = []
            for req in self._sends:
                flag = req.test()
                done = flag[0] if isinstance(flag, tuple) else bool(flag)
                if not done:
                    still.append(req)
            self._sends = still
        MPI = self._MPI
        status = MPI.Status()
        while self._comm.iprobe(
            source=MPI.ANY_SOURCE, tag=self.MPI_TAG, status=status
        ):
            key, payload = self._comm.recv(
                source=status.Get_source(), tag=self.MPI_TAG
            )
            self._inbox[key].append(payload)
            status = MPI.Status()

    # -- Transport contract ---------------------------------------------

    def deliver(self, dest: int, key: MsgKey, payload: Any) -> None:
        if self.abort_event.is_set():
            raise SpmdAbort("SPMD transport aborted while sending a message")
        if dest == self.rank:
            # self-delivery short-circuit: the communicator layer already
            # isolated the payload, so local enqueue preserves the
            # no-aliasing guarantee without a pickle round trip
            self._inbox[key].append(payload)
        else:
            self._sends.append(
                self._comm.isend((key, payload), dest=dest, tag=self.MPI_TAG)
            )
        self._progress()

    def collect(self, rank: int, key: MsgKey) -> Any:
        self.blocked[rank] = (key, time.perf_counter())
        try:
            pause = 0.0
            while True:
                self._progress()
                q = self._inbox.get(key)
                if q:
                    return q.popleft()
                if self.abort_event.is_set():
                    raise SpmdAbort(
                        "SPMD transport aborted while waiting for a message"
                    )
                if self.deadline is not None and time.perf_counter() >= self.deadline:
                    comm_id, src, tag = key
                    raise SpmdTimeout(
                        f"deadline expired waiting for a message from comm "
                        f"rank {src} (tag {tag}, comm {comm_id})",
                        dump=self.describe_blocked(),
                    )
                # spin briefly for latency, then back off to a 1 ms poll
                # (the same granularity as the thread backend's condition
                # wait relative to its 50 ms timeout slices)
                if pause > 0.0:
                    time.sleep(pause)
                pause = min(pause + 1e-5, 1e-3)
        finally:
            self.blocked.pop(rank, None)

    def abort(self) -> None:
        self.abort_event.set()

    def reset(self) -> None:
        self.abort_event.clear()
        self.deadline = None
        self.blocked.clear()
        self._inbox.clear()

    def hard_abort(self, code: int = 3) -> None:
        """Tear the whole MPI job down (no cross-process recovery)."""
        self._MPI.COMM_WORLD.Abort(code)

    def finalize(self) -> None:
        """Best-effort local teardown: complete or cancel pending sends.

        The dup'd communicator is *not* freed — ``MPI_Comm_free`` is
        collective, and teardown may run from a garbage-collection path
        where sibling processes are not at the same point; leaked dups
        are reclaimed by ``MPI_Finalize`` at interpreter exit.
        """
        horizon = time.perf_counter() + 5.0
        while self._sends and time.perf_counter() < horizon:
            self._progress()
            if self._sends:
                time.sleep(1e-3)
        for req in self._sends:
            try:
                req.cancel()
            except Exception:  # pragma: no cover - implementation-defined
                pass
        self._sends = []


class MpiWorkerPool:
    """Rank-resident process pool: the ``backend="mpi"`` WorkerPool.

    Drop-in for :class:`~repro.runtime.spmd.WorkerPool` from the
    session's point of view, with one structural difference surfaced as
    :attr:`spans_processes`: only the **local** rank's body runs in this
    process, and :meth:`run` ends with a control-plane allgather of
    ``(result, profile counters)`` so every replicated driver observes
    all ranks' results.  Requires the session's ``p`` to equal the
    ``mpirun`` world size, and runs without ``mpirun`` only for ``p=1``.
    """

    #: session dispatch must sync rank-local state across processes
    spans_processes = True
    #: where a process runs is ``mpirun``'s placement: nothing is pinned here
    core = None

    def __init__(
        self,
        nranks: int,
        name: str = "mpi-pool",
        faults=None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        MPI = _mpi()
        world_size = MPI.COMM_WORLD.Get_size()
        if nranks != world_size:
            raise ReproError(
                f"backend='mpi' needs one MPI process per rank: the "
                f"session plans p={nranks} but this job has "
                f"{world_size} process(es) — launch with "
                f"`mpirun -n {nranks} python ...` or plan with "
                f"p={world_size}"
            )
        self.nranks = nranks
        self.name = name
        self.deadline_ms = deadline_ms
        self.world = MpiTransport()
        #: control plane (result/profile allgathers), isolated from the
        #: data plane so collective pickles never collide with in-flight
        #: point-to-point runtime messages
        self._control = MPI.COMM_WORLD.Dup()
        self.local_rank = self._control.Get_rank()
        # with a plan, the local rank armed by it, as the thread pool arms each rank
        self._armed = (
            None if faults is None else faults.rank_view(self.local_rank, self.world)
        )
        self._local_comm = Communicator.world_comm(
            self._armed or self.world, self.local_rank
        )
        self._closed = False

    # -- driver side -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def comm(self, rank: int) -> Communicator:
        """The resident communicator of ``rank`` — only the local rank's
        communicator exists in this process."""
        if rank != self.local_rank:
            raise ReproError(
                f"rank {rank} is resident in another process; only the "
                f"local rank {self.local_rank}'s communicator is "
                f"available under backend='mpi'"
            )
        return self._local_comm

    def run(
        self,
        rank_fn,
        profiles: Optional[List[RankProfile]] = None,
        label: str = "",
        deadline_ms: Optional[float] = None,
        retries: int = 0,
        on_failure=None,
    ) -> Tuple[List[Any], RunReport]:
        """Run ``rank_fn(comm)`` for the local rank, then sync all ranks.

        Every process must call this with the same sequence of bodies
        (normal replicated-driver discipline).  Deterministic rank
        errors raise identically in every process, after ``on_failure()``
        ran; a re-run needs the processes to agree to retry, so
        ``retries`` must be 0.  A deadline expiry prints the
        blocked-state dump and aborts the MPI job, because a one-sided
        hang cannot be recovered across processes.
        """
        if retries:
            raise ReproError("backend='mpi' cannot re-run a work item (retries=0)")
        if self._closed:
            raise ReproError("worker pool is closed; dispatch is not possible")
        if profiles is None:
            profiles = [RankProfile() for _ in range(self.nranks)]
        if len(profiles) != self.nranks:
            raise ValueError("profiles must have one entry per rank")
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        r = self.local_rank
        comm = self._local_comm
        profile = profiles[r]
        if self._armed is not None:
            profile.site = self._armed
        comm.profile = profile
        self.world.active_profiles[r] = profile
        self.world.deadline = (
            time.perf_counter() + deadline_ms / 1e3
            if deadline_ms is not None
            else None
        )
        tracer = profile.tracer
        try:
            start = time.perf_counter()
            result = rank_fn(comm)
            if tracer is not None:
                tracer.span(
                    f"run {label}".rstrip(), "pool", start, time.perf_counter()
                )
        except SpmdTimeout as exc:
            print(
                f"[{self.name}] rank {r} deadline expired; aborting the "
                f"MPI job: {exc}" + format_blocked_dump(exc.dump),
                file=sys.stderr,
                flush=True,
            )
            self.world.hard_abort()
            raise  # pragma: no cover - Abort does not return
        except Exception:
            if on_failure is not None:
                on_failure()
            raise
        finally:
            self.world.deadline = None
        # control-plane sync: ship the local result and the authoritative
        # profile counters; overwrite every remote rank's local mirror
        gathered = self._control.allgather((result, profile.counter_state()))
        results: List[Any] = []
        for rr, (res, counter_state) in enumerate(gathered):
            results.append(res)
            if rr != r:
                profiles[rr].set_counter_state(counter_state)
        return results, RunReport(per_rank=profiles, label=label)

    def close(self, timeout: float = 30.0) -> None:
        """Seal the pool and complete in-flight sends.  Idempotent.

        Non-collective by design (safe from ``__del__``/GC paths); MPI
        resources are reclaimed at ``MPI_Finalize``.
        """
        if self._closed:
            return
        self.world.finalize()
        self._closed = True

    def __enter__(self) -> "MpiWorkerPool":
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
        return (
            f"MpiWorkerPool(nranks={self.nranks}, "
            f"local_rank={self.local_rank}, {state})"
        )
