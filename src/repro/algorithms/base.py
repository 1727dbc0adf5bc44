"""Shared machinery for the distributed algorithms.

Conventions used by every algorithm module:

* A **plan** is an immutable, picklable description of the data layout
  (offset arrays, grid) computed once per (m, n, r, p, c) tuple.
* A **local** is one rank's mutable state: its dense blocks, sparse blocks
  (:class:`~repro.sparse.coo.SparseBlock`), SDDMM output values, and any
  driver-side metadata (global nonzero indices for reassembly) that is
  never communicated.
* A **context** holds the per-rank subcommunicators (layer/fiber or
  row/column/fiber) created once per SPMD session and reused across kernel
  calls, the way applications reuse MPI communicators across iterations.

Role naming inside algorithm code *always* follows the paper's unified
formulation: ``A`` is the m-side matrix that is replicated (input) or
reduced (output) along the fiber; ``B`` is the n-side matrix.  FusedMMA
with strategies that are native to the B-side (or vice versa) is obtained
by the paper's transposition trick — run the B-side procedure on
``S.T`` with the dense operands swapped — resolved by
:func:`repro.algorithms.fused.native_procedure` and run by the session.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommError, ReproError
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator, payload_words
from repro.types import Mode, Phase

# Message tags: one per logical channel so phases never cross-talk.
TAG_SHIFT_B = 10
TAG_SHIFT_S = 11
TAG_SHIFT_A = 12
#: the values of a warm sparse-chunk round: once a ring carried a chunk's
#: coordinates (CarriedCoords) only its values move, on this channel
TAG_SHIFT_SV = 13
TAG_FIBER_AG = 20
TAG_FIBER_RS = 21
TAG_FIBER_AR = 22
TAG_APP = 30


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: a resident block is replaced, never
    written in place."""
    arr.flags.writeable = False
    return arr


def concat_allgather(
    comm: Communicator, local_block: np.ndarray, tag: int = TAG_FIBER_AG
) -> np.ndarray:
    """All-gather dense blocks along ``comm`` and stack them in rank order.

    This is the replication primitive: each fiber rank contributes its fine
    block; the concatenation (in fiber-rank order) is the coarse block the
    unified algorithms call ``T``.
    """
    parts = comm.allgather(local_block, tag=tag)
    return np.concatenate(parts, axis=0)


def reduce_scatter_rows(
    comm: Communicator,
    buffer: np.ndarray,
    sizes: List[int],
    tag: int = TAG_FIBER_RS,
) -> np.ndarray:
    """Reduce-scatter a row-partitioned buffer along ``comm``.

    ``sizes[k]`` rows go to fiber rank ``k``; returns this rank's summed
    piece.  This is the output-reduction primitive for replicated outputs.
    """
    if sum(sizes) != buffer.shape[0]:
        raise ValueError("reduce_scatter_rows: sizes do not cover the buffer")
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(buffer[start : start + s])
        start += s
    return comm.reduce_scatter(blocks, tag=tag)


@dataclass
class Lane:
    """One operand circulating around ``ring`` during a propagation round.

    ``payload`` is an array or a tuple of arrays (a sparse chunk travels
    cold as its ``(rows, cols, vals)`` triple — the paper's three words
    per nonzero); each phase it moves ``displacement`` positions on
    channel ``tag``.  ``rides_with`` marks the values of a warm chunk,
    whose coordinates form another lane: its payload must stay as long
    as the coordinate lane's.

    The coordinate lane of a chunk ring carries :class:`CarriedCoords`
    state, set by ``chunk_lanes``: ``trail`` is handed every payload the
    lane receives on a cold round (the memo fill), and ``stays`` — on a
    warm round — is that memo entry itself: the lane does not move, and
    after ``k`` shifts its payload is ``stays[k % len(stays)]``.

    Every lane comes home after a full cycle, but not every lane ships
    its last hop.  A lane whose home payload cannot be written (every
    array of it read-only) is one the round only reads: it is still at
    home, so the hop that would bring it back is taken without a message
    — the last shift of a trailing round and of a leading one alike.  A
    warm chunk's values in a leading round are an accumulator that
    leaves home as zeros, so they skip the first hop instead: zeros made
    where they land (see :meth:`DistributedAlgorithm.ring_loop`).
    """

    ring: Communicator
    payload: Any
    tag: int
    displacement: int = -1
    rides_with: Optional["Lane"] = None
    trail: Optional[Callable[[Any], None]] = None
    stays: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None


class CarriedCoords:
    """The coordinates of the sparse chunks one rank's rings carried.

    A chunk's structure is fixed for the life of a resident distribution,
    so once a ring has carried a chunk's ``(rows, cols)`` every later
    round of the same chunk ring needs only its values.  An entry is
    keyed by the chunk's kernel space and travel order (the ``space`` and
    ``mode`` of :meth:`DistributedAlgorithm.home_chunk`) and lists the
    coordinates this rank holds at each ring position: position 0 is its
    own home chunk (the very arrays the home rank prepared — a changed
    structure never matches), position ``k`` the pair it received after
    ``k`` shifts of the cold round, kept as the transport delivered it
    and marked read-only — nothing kernel-derived.  A leading round (an
    SDDMM's) receives its home chunk last, and a warm one never receives
    position 1's values (its zero accumulator is made in place), but the
    entry is the same: position ``k`` is what ``k`` shifts bring, on a
    round of either order.  That is 2 words per nonzero of the ring's
    other chunks (``2·(L−1)/L`` per nonzero of the ring on average) per
    distinct travel order: a received pair bitwise equal to another
    entry's pair at the same position shares that entry's arrays (an
    SDDMM and an SpMMA of a row-major chunk travel in one order).

    It lives on the rank's resident context, which the session's failure
    hook drops on every rank, so the ranks of a ring — which run the same
    rounds — always agree whether an entry is complete.
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, List[Tuple[np.ndarray, np.ndarray]]] = {}

    def held(
        self, key: Any, rows: np.ndarray, cols: np.ndarray, size: int
    ) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
        """The complete entry of ``key`` for home chunk ``(rows, cols)``
        on a ring of ``size`` ranks, or ``None`` (a cold round)."""
        entry = self._entries.get(key)
        if entry is None or len(entry) != size:
            return None
        home_rows, home_cols = entry[0]
        if home_rows is not rows or home_cols is not cols:
            return None
        return entry

    def start(
        self, key: Any, rows: np.ndarray, cols: np.ndarray, size: int
    ) -> Callable[[Any], None]:
        """Open ``key``'s entry at home chunk ``(rows, cols)``; returns the
        cold round's ``trail``, which keeps each received pair until the
        entry holds all ``size`` ring positions."""
        entry = [(rows, cols)]
        self._entries[key] = entry

        def trail(payload) -> None:
            if len(entry) == size:
                return  # back home
            got = payload[0], payload[1]
            k = len(entry)
            for other in self._entries.values():
                if other is not entry and len(other) > k and all(
                    a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(other[k], got)
                ):
                    got = other[k]
                    break
            else:
                for arr in got:
                    arr.flags.writeable = False
            entry.append(got)

        return trail


def track(comm: Communicator, phase: Phase):
    """Sugar: ``with track(comm, Phase.X):`` on the rank's own profile."""
    return comm.profile.track(phase)


#: shared no-op context for untraced runs (allocation-free fast path)
_NULL_REGION = nullcontext()


def region(comm: Communicator, name: str, cat: str = "algorithm"):
    """Named sub-phase span on the rank's tracer; no-op when tracing is off.

    Use inside ``track`` blocks to label *what* a phase was doing (which
    gather, which exchange) on the exported timeline — counters are
    untouched, so this never changes a report.  Region entry is also a
    named site (``RankProfile.site``), tracing on or off.
    """
    profile = comm.profile
    if profile.site is not None:
        profile.site("region", name)
    tracer = profile.tracer
    if tracer is None:
        return _NULL_REGION
    return tracer.region(name, cat)


def _operands(lanes: Sequence[Lane]) -> list:
    """The lanes' payloads as one flat argument list (tuples splatted)."""
    out: list = []
    for lane in lanes:
        if isinstance(lane.payload, tuple):
            out.extend(lane.payload)
        else:
            out.append(lane.payload)
    return out


class DistributedAlgorithm:
    """Interface shared by the four algorithm families.

    Subclasses provide:

    * ``plan(m, n, r)``
    * ``distribute_sparse(plan, S)`` / ``collect_sddmm`` and the one
      statement of the family's Table II dense layout,
      ``piece_index(plan, loc, side)`` (driver side); :meth:`dense_index`
      (which composes a declared row order into it), :meth:`bind_dense`
      / :meth:`collect_dense_a` / :meth:`collect_dense_b` are derived
      from it here.  The split mirrors the session API: the sparse
      operand is partitioned **once** per resident distribution (it owns
      the expensive COO partitioning and all per-rank sparse metadata),
      while the dense operands are (re)bound cheaply on every kernel
      call.  ``distribute(plan, S, A, B)`` composes the two for one-shot
      callers.
    * ``make_context(comm)`` (rank side, once per resident distribution —
      under the session's worker pool the context, with its
      layer/fiber subcommunicators, is built on the *first* kernel call
      of an orientation and reused by every later call; see
      :meth:`ensure_context` / :meth:`refresh_context`)
    * ``rank_kernel(ctx, plan, local, mode, ...)`` (rank side, unified)
    * ``replicate(ctx, plan, local)`` where replication reuse is
      supported — the fiber gather ``rank_kernel`` accepts as
      ``replicated=``; ``rank_fusedmm_none_a`` / ``rank_fusedmm_none_b`` /
      ``rank_fusedmm_reuse`` are derived here from the two (see
      :mod:`repro.algorithms.fused` for role mapping), only local kernel
      fusion (``rank_fusedmm_lkf``) is a family's own procedure

    The propagation *schedule* is not the families' business: they state
    which operands circulate (:class:`Lane`) and :meth:`ring_loop` below
    runs the one synchronous schedule — every shift is waited where it is
    posted.
    """

    #: registry name, e.g. "1.5d-dense-shift"
    name: str = "abstract"
    #: elision strategies this family supports (paper Section V)
    elisions: tuple = ()
    #: whether this family implements need-list sparse communication
    #: (``comm="sparse"``); see :mod:`repro.comm_sparse`
    supports_sparse_comm: bool = False

    def __init__(self, p: int, c: int) -> None:
        self.p = p
        self.c = c
        # per-rank panel-buffer pools, persistent across kernel calls so
        # steady-state runs (the paper's "5 FusedMM calls") allocate no
        # panels after the first call; see repro.runtime.buffers
        self._pools: Dict[int, BufferPool] = {}
        # id(plan) -> (plan, {"a": rows, "b": rows}), see order_rows; the
        # plan rides along so a recycled id never matches
        self._row_orders: Dict[int, Tuple[Any, Dict[str, np.ndarray]]] = {}

    def pool_for(self, comm: Communicator) -> BufferPool:
        """The calling rank's buffer pool, following the comm's profile.

        Created lazily on first use (``dict.setdefault`` is atomic under
        the GIL, and each rank only ever touches its own entry afterward).
        The pool *follows* the communicator rather than snapshotting its
        profile: resident contexts keep one pool across many kernel calls,
        and each call may run under a different accumulation window.  One
        pool serves both orientations of a session, so the replica memo
        it owns (``BufferPool.replica``) sees every acquisition of a slot.
        """
        pool = self._pools.setdefault(comm.rank, BufferPool())
        pool.follow(comm)
        # a fresh context build is a work-item boundary (replica epoch)
        pool.release_all()
        return pool

    # ------------------------------------------------------------------
    # driver-side distribution (session split)
    # ------------------------------------------------------------------

    def distribute_sparse(self, plan, S) -> List:
        """Partition the sparse operand per the family's Table II layout.

        Returns the per-rank local-state list with all sparse blocks,
        reassembly metadata (``gidx``) and layout maps populated, every
        resident sparse value array read-only (replaced, never written in
        place, so it circulates as it is: the transport copies on send).
        The dense blocks are empty placeholders until a call binds them as
        inputs.  Run **once** per resident distribution; repeated kernel
        calls only rebind the dense operands.
        """
        raise NotImplementedError

    def piece_index(self, plan, loc, side: str) -> Tuple[Any, Any]:
        """The family's dense layout (paper Table II), stated once.

        Returns the ``(rows, cols)`` index — slices or an integer row
        array plus a column slice — of the piece of the distributed
        ``m x r`` (``side="a"``) or ``n x r`` (``side="b"``) matrix that
        ``loc``'s rank holds at the start of a kernel call.
        """
        raise NotImplementedError

    def piece_shape(self, plan, loc, side: str) -> Tuple[int, int]:
        """The shape of :meth:`piece_index`'s piece: what a rank procedure
        sizes a pure output from (a side no call has bound yet is an
        empty placeholder, one an earlier call bound holds that call's
        operand)."""
        nrows = plan.m if side == "a" else plan.n
        return tuple(
            len(range(*index.indices(n))) if isinstance(index, slice) else len(index)
            for index, n in zip(self.piece_index(plan, loc, side), (nrows, plan.r))
        )

    def dense_index(self, plan, loc, side: str) -> Tuple[Any, Any]:
        """Where :meth:`piece_index` lives in the *caller's* operand.

        The distributed matrix's dense row ``i`` is the caller's row
        ``order[i]`` when :meth:`order_rows` declared an order for
        ``plan`` (a session distributing a permuted operand); the order is
        composed into the rows here, so :meth:`bind_dense` gathers each
        piece straight from the caller's array and the collects scatter
        straight into the output — no pass over a dense operand of its
        own.  Without an order this is :meth:`piece_index`.
        """
        rows, cols = self.piece_index(plan, loc, side)
        entry = self._row_orders.get(id(plan))
        if entry is not None and entry[0] is plan:
            rows = entry[1][side][rows]
        return rows, cols

    def order_rows(self, plan, a: np.ndarray, b: np.ndarray) -> None:
        """Declare that row ``i`` of ``plan``'s distributed A (B) is row
        ``a[i]`` (``b[i]``) of the caller's operand (see
        :meth:`dense_index`)."""
        self._row_orders[id(plan)] = (plan, {"a": a, "b": b})

    def bind_dense(self, plan, locals_, A, B) -> None:
        """Scatter the given dense operands into ``locals_`` in place.

        A ``None`` operand leaves that side's resident blocks untouched: a
        call binds only its inputs, and a rank procedure sizes a pure
        output from the plan (:meth:`piece_shape`).  Every bound block is
        a fresh C-contiguous array that never aliases the caller's
        operand, and is read-only: a rank procedure replaces a resident
        block, and an in-place write raises, so the blocks a call was
        dispatched with are intact for a retry, for the session to put
        back and for the replica memo keyed on them.  Cheap relative to
        :meth:`distribute_sparse` (pure dense slicing, no COO
        partitioning).
        """
        sides = [(side, X) for side, X in (("a", A), ("b", B)) if X is not None]
        # rank by rank, A then B: interleaving the two sides' blocks keeps a
        # side that is rebound every call from sitting alone at the top of
        # the heap, where freeing it trims the heap and the next bind
        # page-faults every block back in (~13 % of an er_comm op)
        for loc in locals_:
            for side, X in sides:
                rows, cols = self.dense_index(plan, loc, side)
                block = X[rows, cols]
                if isinstance(rows, slice):
                    # basic slicing views the operand (an integer row
                    # array already gathered into a fresh C panel)
                    block = block.copy()
                setattr(loc, side.upper(), frozen(block))

    def _collect_dense(self, plan, locals_, side: str, nrows: int) -> np.ndarray:
        # uninitialized: the ranks' ``dense_index`` pieces tile the matrix
        # exactly once (gated for every family in tests/test_schedule.py).
        # Full-width pieces set the width, so a rank procedure may leave
        # blocks wider than the plan's r (GAT's concatenated heads).
        index = [self.dense_index(plan, loc, side) for loc in locals_]
        blocks = [getattr(loc, side.upper()) for loc in locals_]
        width = blocks[0].shape[1] if index[0][1] == slice(None) else plan.r
        out = np.empty((nrows, width))
        for idx, block in zip(index, blocks):
            out[idx] = block
        return out

    def collect_dense_a(self, plan, locals_) -> np.ndarray:
        """Reassemble the global ``m x r`` matrix from the ranks' A blocks."""
        return self._collect_dense(plan, locals_, "a", plan.m)

    def collect_dense_b(self, plan, locals_) -> np.ndarray:
        """Reassemble the global ``n x r`` matrix from the ranks' B blocks."""
        return self._collect_dense(plan, locals_, "b", plan.n)

    def distribute(self, plan, S, A, B) -> List:
        """One-shot distribution: ``distribute_sparse`` + ``bind_dense``."""
        locals_ = self.distribute_sparse(plan, S)
        self.bind_dense(plan, locals_, A, B)
        return locals_

    def update_values(self, plan, locals_, vals: np.ndarray) -> None:
        """Rebind the resident sparse *values* (structure fixed).

        ``vals`` is the new global value array in the distributed COO's
        ordering.  This is the cheap path for workloads that re-weight a
        fixed sparsity pattern between kernel calls (GAT attention, SDDMM
        outputs): no partitioning, no need-list replanning — the cached
        comm plans key on structure only and stay valid.  Value arrays are
        replaced, never written in place, and bound read-only as
        :meth:`distribute_sparse` binds them: a fiber replica of them keys
        on the array object (``BufferPool.replica``).
        """
        raise NotImplementedError

    def release_buffers(self) -> None:
        """Drop all per-rank panel-buffer pools (session teardown)."""
        for pool in self._pools.values():
            pool.clear()
        self._pools.clear()

    def drop_replicas(self) -> None:
        """Forget every rank's stored fiber replicas (failure recovery)."""
        for pool in self._pools.values():
            pool.drop_replicas()

    # ------------------------------------------------------------------
    # rank-side context lifecycle (split for the resident worker pool)
    # ------------------------------------------------------------------

    def ensure_context(self, comm: Communicator, cache: List):
        """The calling rank's resident context, built at most once.

        ``cache`` is a per-orientation, driver-owned list with one slot
        per rank; each rank only ever touches its own slot (safe under
        the GIL).  The build is collective — ``make_context`` performs
        communicator splits — so either every rank of the cache has a
        context or none does; the session clears the whole cache if a
        build is interrupted.
        """
        ctx = cache[comm.rank]
        if ctx is None:
            ctx = self.make_context(comm)
            cache[comm.rank] = ctx
        else:
            self.refresh_context(ctx, comm)
        return ctx

    def refresh_context(self, ctx, comm: Communicator) -> None:
        """Re-bind per-dispatch state on a resident context.

        Contexts live for a whole session; the one mutable binding they
        carry is the buffer pool's profile source, which must follow the
        communicator that the current work item runs under.
        """
        ctx.pool.follow(comm)
        # dispatch boundary: advance the replica memo's epoch
        ctx.pool.release_all()

    # ------------------------------------------------------------------
    # the propagation schedule
    # ------------------------------------------------------------------

    def chunk_lanes(
        self,
        ring: Communicator,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        carried: Optional[CarriedCoords] = None,
        key: Any = None,
    ) -> List[Lane]:
        """The lane(s) of a sparse chunk circulating around ``ring``; the
        kernel sees ``rows, cols, vals`` either way.

        Cold, a chunk travels whole, as one ``(rows, cols, vals)`` message
        per shift on :data:`TAG_SHIFT_S` — ``L`` shifts on a ring of
        ``L`` as an SDDMM's accumulator, ``L − 1`` as an SpMM's read-only
        input (``ring_loop`` saves the hop home).  With ``carried`` (the
        rank's :class:`CarriedCoords`) the cold round fills the entry
        ``key``, and a later round of the same ``key`` is *warm*: the
        coordinate lane stays put, reading each ring position's pair from
        the entry, and only the values move, on :data:`TAG_SHIFT_SV` —
        one message and one word per nonzero per shift, ``L − 1`` shifts
        either way (``ring_loop`` saves the one hop whose values nothing
        needs to carry).  ``ring_loop`` checks every warm value array
        against the entry's length at its position.
        """
        trail = None
        if carried is not None:
            stays = carried.held(key, rows, cols, ring.size)
            if stays is not None:
                coords = Lane(ring, (rows, cols), TAG_SHIFT_S, stays=stays)
                return [coords, Lane(ring, vals, TAG_SHIFT_SV, rides_with=coords)]
            trail = carried.start(key, rows, cols, ring.size)
        return [Lane(ring, (rows, cols, vals), TAG_SHIFT_S, trail=trail)]

    def home_chunk(
        self,
        cache: dict,
        space: str,
        coords: Callable[[], Tuple[np.ndarray, np.ndarray]],
        mode: Mode,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """A rank's home chunk in the form the kernel of one mode consumes.

        Everything index-shaped about a circulating chunk is fixed for the
        life of the resident structure, so it is prepared *here*, once, at
        the home rank, and the ring then moves the chunk as-is: a phase
        does kernel work only.  ``coords()`` yields the chunk's
        ``(rows, cols)`` in kernel space ``space`` (a family translates
        global indices there, e.g. columns to layer-local B rows), in
        distributed order.  Returns ``(rows, cols, perm)`` in ``mode``'s
        *travel order* — stably sorted by the coordinate the kernel
        scatters into (rows for SpMMA, columns for SpMMB), so
        :func:`~repro.kernels.spmm.spmm_scatter` finds its keys
        non-decreasing and every output row's nonzeros in distributed
        order; distributed order itself for SDDMM, whose values must come
        home that way — with ``perm`` the permutation the caller applies
        to the values (``None`` when distributed order already is travel
        order, as it is for a row-major chunk's SpMMA).  The coordinates
        are read-only, as an SpMM round circulates them.

        ``cache`` is the home rank's own dict (it lives with the local
        sparse state: built lazily, once per resident structure, surviving
        ``update_values``); it holds at most ~3 words per home nonzero per
        mode.  A *receiver* keeps nothing prepared of a visiting chunk:
        only the coordinates the transport delivered on the first round
        (:class:`CarriedCoords`, on its resident context), so a later
        round of the same ``(space, mode)`` ships the values alone.
        """
        entry = cache.get((space, mode))
        if entry is None:
            if mode == Mode.SDDMM:
                entry = (*map(frozen, coords()), None)
            else:
                # sort the distributed-order entry, translated only once
                rows, cols, perm = self.home_chunk(cache, space, coords, Mode.SDDMM)
                keys = rows if mode == Mode.SPMM_A else cols
                if (keys[1:] < keys[:-1]).any():
                    perm = np.argsort(keys, kind="stable")
                    rows, cols = frozen(rows[perm]), frozen(cols[perm])
                entry = (rows, cols, perm)
            cache[(space, mode)] = entry
        return entry

    def ring_loop(
        self,
        root: Communicator,
        steps: int,
        lanes: Sequence[Lane],
        compute: Callable[..., None],
        leading: bool = False,
    ) -> list:
        """The propagation round every family runs: ``steps`` phases, each
        ``compute(t, *operands)`` and one cyclic shift of every lane, where
        ``operands`` are the lanes' current payloads in lane order (tuple
        payloads splatted).  A *trailing* round (the default) runs the
        kernel first, so phase ``t`` sees what ``t`` shifts brought; a
        *leading* one (``leading=True``, an SDDMM's) shifts first, so
        phase ``t`` sees what ``t + 1`` shifts brought and a chunk's home
        rank adds its strip last.  Returns the operands after the round —
        every lane back at its home rank, ``steps`` being the ring size.

        Every lane shifts (blocking) in lane order, except on a hop that
        carries nothing its receiver lacks:

        * a read-only lane (every array of its home payload read-only,
          so the round cannot have written it) would bring back on its
          last hop what its home rank still holds, so it takes its home
          payload instead — in a trailing round (nothing computes after
          it) and in a leading one (the last phase reads it) alike,
          ``steps − 1`` messages.  The profile counts the hop it saved
          where Table III's schedule ships it
          (:meth:`RankProfile.on_home_hop`): not on a one-rank ring,
          whose shifts send nothing, and not for a warm chunk's values,
          which that schedule ships as the whole triple;
        * a warm chunk's values (``rides_with``) in a leading round are
          an accumulator that leaves home as zeros, so the first hop is
          zeros of the length of ring position 1's coordinates, made
          where they are needed;
        * a lane that ``stays`` (warm chunk coordinates) never moves:
          after ``k`` shifts its payload is ring position ``k``'s entry.

        An accumulator lane leaves home writeable, so it keeps every hop
        and no sum changes order.

        ``root`` is the communicator whose profile the phases are tracked
        on.
        """
        homes = [lane.payload for lane in lanes]
        read_only = [
            not any(a.flags.writeable for a in _operands([lane])) for lane in lanes
        ]
        last = steps - 1
        for t in range(steps):
            if not leading:
                with track(root, Phase.COMPUTATION):
                    compute(t, *_operands(lanes))
            with track(root, Phase.PROPAGATION):
                for lane, home, frozen_home in zip(lanes, homes, read_only):
                    if lane.stays is not None:
                        lane.payload = lane.stays[(t + 1) % len(lane.stays)]
                        continue
                    if frozen_home and t == last:
                        lane.payload = home
                        if lane.rides_with is None and lane.ring.size > 1:
                            lane.ring.profile.on_home_hop(payload_words(home))
                        continue
                    if leading and t == 0 and lane.rides_with is not None:
                        coords = lane.rides_with.payload[0]
                        lane.payload = np.zeros(len(coords))
                        continue
                    lane.payload = lane.ring.shift(
                        lane.payload, lane.displacement, lane.tag
                    )
                    if lane.trail is not None:
                        lane.trail(lane.payload)
                for lane in lanes:
                    head = lane.rides_with
                    if head is not None and len(lane.payload) != len(head.payload[0]):
                        # the values fell out of step with a warm round's
                        # carried coordinates: a message was lost or
                        # duplicated on one channel — a transport fault
                        # the session may retry, not a user error
                        raise CommError(
                            f"chunk values out of step on tag {lane.tag}: "
                            f"{len(lane.payload)} values for "
                            f"{len(head.payload[0])} coordinates"
                        )
            if leading:
                with track(root, Phase.COMPUTATION):
                    compute(t, *_operands(lanes))
        return _operands(lanes)

    # ------------------------------------------------------------------
    # FusedMM as a sequence of unified kernel calls (families that support
    # an elision list it in ``elisions``; LKF is the dense-shift family's)
    # ------------------------------------------------------------------

    def rank_fusedmm_none_a(self, ctx, plan, local, **kw) -> None:
        """Unoptimized FusedMMA: SDDMM call then SpMMA call on its output
        (``kw`` carries ``sparse_plan=`` on sparse-comm sessions)."""
        self.rank_kernel(ctx, plan, local, Mode.SDDMM, **kw)
        self.rank_kernel(ctx, plan, local, Mode.SPMM_A, use_r_values=True, **kw)

    def rank_fusedmm_none_b(self, ctx, plan, local, **kw) -> None:
        """Unoptimized FusedMMB: SDDMM call then SpMMB call (re-gathers A)."""
        self.rank_kernel(ctx, plan, local, Mode.SDDMM, **kw)
        self.rank_kernel(ctx, plan, local, Mode.SPMM_B, use_r_values=True, **kw)

    def rank_fusedmm_reuse(
        self, ctx, plan, local, use_values: bool = True, residual: bool = False,
        replicated=None, **kw
    ) -> None:
        """Replication reuse (native FusedMMB): one fiber gather of A feeds
        both the SDDMM and the SpMMB, whose output accumulates where it
        propagates, so there is no terminal reduction (word counts: the
        families' module docstrings).  ``replicated`` hands in the panel
        of an earlier :meth:`replicate` of an unchanged A (an iterative
        solver's fixed operand) and saves the gather too;
        ``use_values=False`` makes the SDDMM pattern-only, and
        ``residual=True`` (1.5D families only: it is passed on only when
        set) makes it leave ``S_vals − dots``.
        """
        T = replicated
        if T is None:
            T = self.replicate(ctx, plan, local, **kw)
        extra = {"residual": True} if residual else {}
        self.rank_kernel(
            ctx, plan, local, Mode.SDDMM, use_values=use_values, replicated=T,
            **extra, **kw,
        )
        self.rank_kernel(
            ctx, plan, local, Mode.SPMM_B, use_r_values=True, replicated=T, **kw
        )

    def build_comm_plans(self, plan, S) -> list:
        """Per-rank need-list plans for ``comm="sparse"``.

        Computed driver-side (like ``distribute``) from the sparse
        structure and cached per structure fingerprint; the resulting
        plan object for rank ``r`` is passed to that rank's kernel via
        the ``sparse_plan`` keyword.  Families without a sparse
        communication path raise.
        """
        raise ReproError(
            f"{self.name} does not support sparse communication "
            f"(comm='sparse'); use comm='dense' or a sparse-* family"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(p={self.p}, c={self.c})"
