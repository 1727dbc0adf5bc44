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
``S.T`` with the dense operands swapped — implemented in
:mod:`repro.algorithms.fused`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ReproError
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator
from repro.types import Phase

# Message tags: one per logical channel so phases never cross-talk.
TAG_SHIFT_B = 10
TAG_SHIFT_S = 11
TAG_SHIFT_A = 12
#: value half of a split sparse-chunk shift: under the overlap pipeline a
#: circulating SDDMM accumulator splits into a read-only coordinate part
#: (pre-posted behind the local kernel on TAG_SHIFT_S) and the
#: just-accumulated values (sent after the kernel on this channel)
TAG_SHIFT_SV = 13
TAG_FIBER_AG = 20
TAG_FIBER_RS = 21
TAG_FIBER_AR = 22
TAG_APP = 30

#: sentinel for ``bind_dense``: leave this dense side's resident blocks
#: untouched (the session's skip-rebind fast path for operands that are
#: bitwise unchanged since the last bind and not dirtied by any kernel)
KEEP = object()


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
class ShiftPayload:
    """A sparse chunk in flight during propagation.

    Exactly the paper's coordinate-format accounting: three words per
    nonzero (row, column, value) when ``vals`` travels with the
    coordinates, or one word per nonzero for value-only movement.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: Optional[np.ndarray]

    def as_tuple(self):
        if self.vals is None:
            return (self.rows, self.cols)
        return (self.rows, self.cols, self.vals)


def track(comm: Communicator, phase: Phase):
    """Sugar: ``with track(comm, Phase.X):`` on the rank's own profile."""
    return comm.profile.track(phase)


#: shared no-op context for untraced runs (allocation-free fast path)
_NULL_REGION = nullcontext()


def region(comm: Communicator, name: str, cat: str = "algorithm"):
    """Named sub-phase span on the rank's tracer; no-op when tracing is off.

    Use inside ``track`` blocks to label *what* a phase was doing (which
    gather, which pipeline stage) on the exported timeline — counters are
    untouched, so this never changes a report.  Region entry is also a
    fault-injection site (``crash``/``straggler`` triggers naming the
    region fire here, tracing on or off).
    """
    profile = comm.profile
    if profile.faults is not None:
        profile.faults.on_region(name)
    tracer = profile.tracer
    if tracer is None:
        return _NULL_REGION
    return tracer.region(name, cat)


class DistributedAlgorithm:
    """Interface shared by the four algorithm families.

    Subclasses provide:

    * ``plan(m, n, r)``
    * ``distribute_sparse(plan, S)`` / ``bind_dense(plan, locals_, A, B)``
      / ``collect_*`` (driver side).  The split mirrors the session API:
      the sparse operand is partitioned **once** per resident distribution
      (it owns the expensive COO partitioning and all per-rank sparse
      metadata), while the dense operands are (re)bound cheaply on every
      kernel call.  ``distribute(plan, S, A, B)`` composes the two for
      one-shot callers.
    * ``make_context(comm)`` (rank side, once per resident distribution —
      under the session's worker pool the context, with its
      layer/fiber subcommunicators, is built on the *first* kernel call
      of an orientation and reused by every later call; see
      :meth:`ensure_context` / :meth:`refresh_context`)
    * ``rank_kernel(ctx, plan, local, mode, ...)`` (rank side, unified)
    * ``rank_fusedmm(ctx, plan, local, elision)`` for the native fused
      variant (see :mod:`repro.algorithms.fused` for role mapping)
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
        # communication/compute overlap: when True the rank kernels run
        # their phase loops as a software pipeline (post the next shift /
        # exchange, compute on the current panel, then wait).  Set by the
        # session from the resolved overlap knob before any kernel runs;
        # contexts snapshot it in make_context / refresh_context.
        self.overlap: bool = False
        # per-rank panel-buffer pools, persistent across kernel calls so
        # steady-state runs (the paper's "5 FusedMM calls") allocate no
        # panels after the first call; see repro.runtime.buffers
        self._pools: Dict[int, BufferPool] = {}

    def pool_for(self, comm: Communicator) -> BufferPool:
        """The calling rank's buffer pool, following the comm's profile.

        Created lazily on first use (``dict.setdefault`` is atomic under
        the GIL, and each rank only ever touches its own entry afterward).
        The pool *follows* the communicator rather than snapshotting its
        profile: resident contexts keep one pool across many kernel calls,
        and each call may run under a different accumulation window.
        """
        pool = self._pools.setdefault(comm.rank, BufferPool())
        pool.follow(comm)
        # a fresh context build is a work-item boundary: no exchange spans
        # it, so any surviving lease guard is an abort leftover
        pool.release_all()
        return pool

    # ------------------------------------------------------------------
    # driver-side distribution (session split)
    # ------------------------------------------------------------------

    def distribute_sparse(self, plan, S) -> List:
        """Partition the sparse operand per the family's Table II layout.

        Returns the per-rank local-state list with all sparse blocks,
        reassembly metadata (``gidx``) and layout maps populated.  The
        dense blocks are empty placeholders until :meth:`bind_dense` runs
        (every kernel call binds before launching, so no zero blocks are
        materialized at plan time).  Run **once** per resident
        distribution; repeated kernel calls only rebind the dense
        operands.
        """
        raise NotImplementedError

    def bind_dense(self, plan, locals_, A, B) -> None:
        """(Re)scatter the dense operands into ``locals_`` in place.

        ``None`` operands (pure outputs) become fresh zero blocks — this
        also resets output blocks a previous kernel call overwrote, so a
        session can run many kernels against the same resident sparse
        state.  Cheap relative to :meth:`distribute_sparse` (pure dense
        slicing, no COO partitioning).
        """
        raise NotImplementedError

    def distribute(self, plan, S, A, B) -> List:
        """One-shot distribution: ``distribute_sparse`` + ``bind_dense``."""
        locals_ = self.distribute_sparse(plan, S)
        self.bind_dense(plan, locals_, A, B)
        return locals_

    def update_values(self, plan, locals_, vals: np.ndarray) -> None:
        """Rebind the resident sparse *values* in place (structure fixed).

        ``vals`` is the new global value array in the distributed COO's
        ordering.  This is the cheap path for workloads that re-weight a
        fixed sparsity pattern between kernel calls (GAT attention, SDDMM
        outputs): no partitioning, no need-list replanning — the cached
        comm plans key on structure only and stay valid.
        """
        raise NotImplementedError

    def release_buffers(self) -> None:
        """Drop all per-rank panel-buffer pools (session teardown)."""
        for pool in self._pools.values():
            pool.clear()
        self._pools.clear()

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

        Contexts live for a whole session; the mutable bindings they carry
        are the buffer pool's profile source, which must follow the
        communicator that the current work item runs under, and the
        overlap flag (constant per session, but helpers that reuse
        contexts across reconfigured algorithms pick up the change here).
        """
        pool = getattr(ctx, "pool", None)
        if pool is not None:
            pool.follow(comm)
            # dispatch boundary: release lease guards an aborted item's
            # in-flight exchanges never got to wait (see release_all)
            pool.release_all()
        if hasattr(ctx, "overlap"):
            ctx.overlap = self.overlap

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
