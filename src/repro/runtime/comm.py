"""MPI-like communicator, generic over the transport backend.

A :class:`Communicator` talks to the network exclusively through the
:class:`~repro.runtime.backend.Transport` interface (``deliver`` /
``collect`` plus the abort/deadline attribute surface), so the same
communicator — and every collective, split-derived subcommunicator and
need-list neighborhood exchange built on it — runs unchanged over the
thread :class:`~repro.runtime.backend.World` (``backend="threads"``) and
over real MPI processes
(:class:`~repro.runtime.backend_mpi.MpiTransport`, ``backend="mpi"``).
That single seam is also why thread-vs-MPI outputs are bitwise
identical: the collective algorithms, and hence reduction orders, are
the same code either way.

Implements the primitives the paper's algorithms use — point-to-point
send/recv (buffered sends, blocking receives),
``allgather`` and ``reduce_scatter`` collectives, and communicator
``split`` for the layer/fiber subgrids — with *ring* collective algorithms
so that the measured per-rank traffic matches the textbook collective costs
the paper's analysis assumes:

===================  =================  ==========================
collective           messages per rank  words received per rank
===================  =================  ==========================
ring all-gather      ``P - 1``          ``(P-1)/P * W``
ring reduce-scatter  ``P - 1``          ``(P-1)/P * W``
all-reduce (RS+AG,   ``2 log2 P``       ``2 (P-1)/P * W``
records on axis 0)   (``2(P - 1)``
                     unless ``P`` is a
                     power of two)
all-to-all-v         ``P - 1``          ``sum_k W_k`` (peer blocks)
===================  =================  ==========================

where ``W`` is the total (gathered / reduced) payload size in 8-byte words
and ``W_k`` the size of the personalized block peer ``k`` addresses to this
rank.  The all-reduce is the applications' (ALS's CG row-dot records,
GAT's edge-softmax records), not the paper's FusedMM algorithms': it cuts
its blocks along axis 0, so a record (a row) is never split between two
blocks, and a stacked ``(W, k)`` reduction costs the words of ``k``
``W``-element ones in the messages of one.  On a power-of-two group it
reduce-scatters by recursive halving and all-gathers by recursive
doubling, on any other group it is the ring pair.

The *sparse* neighborhood collectives in
:mod:`repro.comm_sparse.collectives` are built on the same point-to-point
layer and skip empty legs entirely, so their costs are data dependent:
``sum_k |need_k| * width_k`` words in at most ``P - 1`` messages.

Payloads are NumPy arrays, scalars, or (nested) tuples/lists/dicts thereof.
The receiver never aliases a buffer the sender still holds: ``send``
deep-copies array payloads, ``send_owned`` takes over a temporary the
sender gives up.

One rule catches a lost or duplicated message, on every path above the
transport: each message travels as ``(seq, payload)``, where ``seq``
counts the sender's messages to that peer on that tag of that
communicator, and :meth:`Communicator.recv` raises :class:`CommError` on
a gap or a repeat.  The stamp is assigned above the transport (so the
fault plane's ``drop`` / ``dup`` hit stamped messages) and is not a
payload word.  A rank's counters are shared by its world communicator
and every communicator split from it; the worker pool clears them when
it recovers from a failed item, as it drops undelivered messages.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommError
from repro.runtime.backend import Transport
from repro.runtime.profile import RankProfile

CommId = Tuple[int, ...]
#: (communicator id, peer comm rank, tag): one stamped message stream
Channel = Tuple[CommId, int, int]


def payload_words(obj: Any) -> int:
    """Number of 8-byte words in a payload (indices and values alike)."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (int, float, bool, np.integer, np.floating, np.bool_)):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(payload_words(o) for o in obj)
    if isinstance(obj, dict):
        return sum(payload_words(v) for v in obj.values())
    return 0


def _isolate(obj: Any) -> Any:
    """Deep-copy array content so sender and receiver never share buffers."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_isolate(o) for o in obj)
    if isinstance(obj, list):
        return [_isolate(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _isolate(v) for k, v in obj.items()}
    return obj


class Communicator:
    """A group of ranks that can exchange messages.

    Instances are cheap handles; the heavy state (queues) lives in the
    shared :class:`~repro.runtime.backend.Transport`.  Each SPMD rank
    holds its own communicator object and must not share it across
    threads.
    """

    def __init__(
        self,
        world: Transport,
        group: Sequence[int],
        comm_id: CommId,
        rank: int,
        profile: Optional[RankProfile] = None,
        profile_ref: Optional[List[RankProfile]] = None,
        stamps: Optional[Tuple[Dict[Channel, int], Dict[Channel, int]]] = None,
    ) -> None:
        self.world = world
        self.group = list(group)  # comm rank -> world rank
        self.comm_id = comm_id
        self.rank = rank
        # The profile is held through a shared one-slot ref so that every
        # communicator derived from this one (grid layers/fibers built once
        # per resident context) follows profile rebinding on the root: a
        # persistent WorkerPool points the root at the current work item's
        # profile and all resident subcommunicators account there too.
        if profile_ref is not None:
            self._profile_ref = profile_ref
        else:
            self._profile_ref = [profile if profile is not None else RankProfile()]
        # messages sent to / received from each (comm id, peer, tag): the
        # stamps of the module's one loss rule, shared like the profile
        self._sent, self._received = stamps if stamps is not None else ({}, {})
        self._split_counter = 0

    @property
    def profile(self) -> RankProfile:
        return self._profile_ref[0]

    @profile.setter
    def profile(self, profile: RankProfile) -> None:
        self._profile_ref[0] = profile

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def world_comm(
        cls, world: Transport, rank: int, profile: Optional[RankProfile] = None
    ) -> "Communicator":
        return cls(world, range(world.nranks), (0,), rank, profile)

    @property
    def size(self) -> int:
        return len(self.group)

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0, tracked: bool = True) -> None:
        """Buffered (non-blocking, copying) send to ``dest`` in this comm.

        The payload is deep-copied, so the caller keeps it: the receiver
        never aliases a buffer the sender still holds.
        """
        self.send_owned(dest, _isolate(payload), tag, tracked)

    def send_owned(
        self, dest: int, data: Any, tag: int = 0, tracked: bool = True
    ) -> None:
        """Ownership-transfer send: ``data`` is handed to the receiver
        as-is, so the caller must hold no other reference into it and
        never touch it again (the exchange layers give up the temporaries
        they gathered for a leg this way instead of copying them twice).
        The message is stamped with its sequence number on ``(dest,
        tag)``.
        """
        if not 0 <= dest < self.size:
            raise CommError(f"destination {dest} out of range for size {self.size}")
        if tracked:
            profile = self.profile
            profile.on_send(payload_words(data))
            if profile.tracer is not None:
                profile.tracer.instant(f"send->r{dest}", "comm")
        channel = (self.comm_id, dest, tag)
        seq = self._sent.get(channel, 0)
        self._sent[channel] = seq + 1
        key = (self.comm_id, self.rank, tag)
        self.world.deliver(self.group[dest], key, (seq, data))

    def recv(self, source: int, tag: int = 0, tracked: bool = True) -> Any:
        """Blocking receive from ``source`` in this comm.  A message whose
        stamp is not the next one on ``(source, tag)`` raises
        :class:`CommError`: one before it was lost, or it is a duplicate."""
        if not 0 <= source < self.size:
            raise CommError(f"source {source} out of range for size {self.size}")
        profile = self.profile if tracked else None
        tracer = profile.tracer if profile is not None else None
        t0 = time.perf_counter() if tracer is not None else 0.0
        key = (self.comm_id, source, tag)
        seq, payload = self.world.collect(self.group[self.rank], key)
        expected = self._received.get(key, 0)
        if seq != expected:
            raise CommError(
                f"message {seq} from comm rank {source} on tag {tag} (comm "
                f"{self.comm_id}), expected {expected}: a message was lost or "
                "duplicated"
            )
        self._received[key] = seq + 1
        if profile is not None:
            profile.on_recv(payload_words(payload))
            if tracer is not None:
                tracer.span(f"recv<-r{source}", "comm", t0, time.perf_counter())
        return payload

    def sendrecv(self, dest: int, payload: Any, source: int, tag: int = 0) -> Any:
        """Send to ``dest`` and receive from ``source`` (deadlock-free)."""
        self.send(dest, payload, tag)
        return self.recv(source, tag)

    def shift(self, payload: Any, displacement: int = 1, tag: int = 0) -> Any:
        """Cyclic shift: send to ``rank+displacement``, recv from the mirror.

        This is the *propagation* primitive of every algorithm in the
        paper (cyclic shifts of dense blocks or sparse-matrix chunks
        within a grid layer).
        """
        if self.size == 1:
            return _isolate(payload)
        dest = (self.rank + displacement) % self.size
        src = (self.rank - displacement) % self.size
        return self.sendrecv(dest, payload, src, tag)

    # ------------------------------------------------------------------
    # collectives (ring algorithms)
    # ------------------------------------------------------------------

    def allgather(self, obj: Any, tag: int = 101, tracked: bool = True) -> List[Any]:
        """Ring all-gather: returns the per-rank contributions, indexed by
        rank.  ``tracked=False`` keeps the messages out of the traffic
        counters (metadata exchanges), like :meth:`send` / :meth:`recv`."""
        P = self.size
        out: List[Any] = [None] * P
        out[self.rank] = _isolate(obj)
        cur = obj
        for step in range(P - 1):
            self.send((self.rank + 1) % P, cur, tag, tracked)
            cur = self.recv((self.rank - 1) % P, tag, tracked)
            out[(self.rank - step - 1) % P] = cur
        return out

    def reduce_scatter(
        self,
        blocks: Sequence[np.ndarray],
        tag: int = 102,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
    ) -> np.ndarray:
        """Ring reduce-scatter.

        ``blocks`` is this rank's contribution to every rank's result
        (``blocks[k]`` is destined for rank ``k``); returns the fully
        reduced ``blocks[self.rank]``.  Reduction order is fixed by ring
        position, so results are deterministic.
        """
        P = self.size
        if len(blocks) != P:
            raise CommError(f"reduce_scatter needs {P} blocks, got {len(blocks)}")
        if P == 1:
            return blocks[0].copy()
        r = self.rank
        # Standard ring schedule ends with chunk (r+1) fully reduced at rank
        # r; relabeling chunks by k -> (k-1) mod P makes that chunk r.
        own = lambda label: blocks[(label - 1) % P]  # noqa: E731
        cur: Optional[np.ndarray] = None
        for step in range(P - 1):
            send_label = (r - step) % P
            send_data = own(send_label) if step == 0 else cur
            self.send((r + 1) % P, send_data, tag)
            received = self.recv((r - 1) % P, tag)
            cur = op(received, own((r - step - 1) % P))
        assert cur is not None
        return cur

    def allreduce(
        self,
        arr: np.ndarray,
        tag: int = 103,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
    ) -> np.ndarray:
        """All-reduce of ``arr`` over the group, record by record: a
        reduce-scatter on ``tag`` followed by an all-gather on ``tag + 1``.

        The applications' reduction (ALS's CG row-dot records, GAT's
        edge-softmax ``(max, scaled sum)`` records); the FusedMM
        algorithms never call it.  A record is a row of ``arr`` (an
        element of a 1-D ``arr``): ``arr`` is cut into ``P`` blocks along
        axis 0 at ``k * len(arr) // P``, so ``op`` always sees whole
        records — it defaults to element-wise sum; ``np.maximum`` gives a
        max-reduction, and any ``op`` mapping two ``(rows, ...)`` arrays
        to one merges records (GAT's log-sum-exp merge).  On a
        power-of-two group the blocks are reduced by recursive halving and
        gathered by recursive doubling, ``2 log2 P`` messages per rank; on
        any other group by the ring :meth:`reduce_scatter` and
        :meth:`allgather`, ``2(P - 1)``.  Either way a rank receives
        ``2 (P-1)/P * W`` words (exactly when ``P`` divides the record
        count), so a stacked ``(W, k)`` all-reduce moves the words of
        ``k`` separate ``W``-element ones in a ``k``-th of their messages.
        Each block is reduced by one rank, with ``op`` applied lower rank
        first, so every rank returns the same bits.
        """
        P = self.size
        if P == 1:
            return arr.copy()
        recs = np.ascontiguousarray(arr)  # at least 1-D
        bounds = np.arange(P + 1) * len(recs) // P
        if P & (P - 1):
            blocks = [recs[bounds[k] : bounds[k + 1]] for k in range(P)]
            mine = self.reduce_scatter(blocks, tag=tag, op=op)
            pieces = self.allgather(mine, tag=tag + 1)
            return np.concatenate(pieces).reshape(arr.shape)
        r = self.rank
        # reduce-scatter: halve the block range [lo, lo + 2·half) this rank
        # holds partial reductions of, top bit first, until it is block r
        lo, cur = 0, recs
        half = P // 2
        while half:
            partner, mid = r ^ half, lo + half
            split = bounds[mid] - bounds[lo]
            lower, upper = cur[:split], cur[split:]
            mine, give = (upper, lower) if r & half else (lower, upper)
            self.send(partner, give, tag)
            theirs = self.recv(partner, tag)
            cur = op(mine, theirs) if r < partner else op(theirs, mine)
            lo = mid if r & half else lo
            half //= 2
        # all-gather: double the range, lower half first, back to [0, P)
        width = 1
        while width < P:
            partner = r ^ width
            self.send(partner, cur, tag + 1)
            theirs = self.recv(partner, tag + 1)
            cur = np.concatenate((theirs, cur) if r & width else (cur, theirs))
            width *= 2
        return cur.reshape(arr.shape)

    def alltoallv(self, sendbufs: Sequence[Any], tag: int = 109) -> List[Any]:
        """Personalized all-to-all: ``sendbufs[k]`` goes to rank ``k``.

        Returns the received blocks indexed by source rank (this rank's
        own block is deep-copied locally, never sent).  Peers are paired
        round-robin by offset so traffic spreads evenly over the group,
        and every peer exchange is word-accounted individually — the cost
        is exactly the sum of the addressed block sizes, in ``P − 1``
        messages each way even for empty blocks.  This is the generic
        personalized exchange, the PETSc-like baseline's request and
        reply fetch (``baselines/petsc_like.py``); the need-list
        collectives in :mod:`repro.comm_sparse.collectives` implement the
        same pattern directly on ``send``/``recv`` so they can skip empty
        legs.
        """
        P = self.size
        if len(sendbufs) != P:
            raise CommError(f"alltoallv needs {P} send buffers, got {len(sendbufs)}")
        out: List[Any] = [None] * P
        out[self.rank] = _isolate(sendbufs[self.rank])
        for off in range(1, P):
            dest = (self.rank + off) % P
            src = (self.rank - off) % P
            self.send(dest, sendbufs[dest], tag)
            out[src] = self.recv(src, tag)
        return out

    def allreduce_scalar(self, value: float, tag: int = 104) -> float:
        """All-reduce of a single scalar (ring all-gather + local sum)."""
        contributions = self.allgather(float(value), tag=tag)
        return float(sum(contributions))

    def bcast(self, obj: Any, root: int = 0, tag: int = 105) -> Any:
        """Broadcast from ``root`` (linear; used only for small metadata)."""
        if self.size == 1:
            return _isolate(obj)
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, obj, tag)
            return _isolate(obj)
        return self.recv(root, tag)

    def barrier(self, tag: int = 106) -> None:
        """Dissemination barrier with untracked zero-word control messages."""
        P = self.size
        k = 1
        while k < P:
            self.send((self.rank + k) % P, None, tag, tracked=False)
            self.recv((self.rank - k) % P, tag, tracked=False)
            k *= 2

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------

    def split(self, color: int, key: int, tag: int = 107) -> "Communicator":
        """Collective split into sub-communicators by ``color``.

        Every rank of this communicator must call ``split`` the same number
        of times in the same order (standard SPMD discipline); membership
        metadata is exchanged with untracked messages since communicator
        construction is not part of the paper's cost model.  The child's
        id carries the split's sequence number on this communicator, and
        the child shares this communicator's profile and message stamps.
        """
        info = self.allgather((color, key), tag=108, tracked=False)
        members = sorted((k, r) for r, (c, k) in enumerate(info) if c == color)
        group = [self.group[r] for (_, r) in members]
        my_index = [r for (_, r) in members].index(self.rank)
        child_id = self.comm_id + (self._split_counter, color)
        self._split_counter += 1
        return Communicator(
            self.world, group, child_id, my_index, profile_ref=self._profile_ref,
            stamps=(self._sent, self._received),
        )
