"""1.5D dense-shifting, dense-replicating algorithm (paper Algorithm 1).

Grid ``(p/c) x c``; rank ``(u, v)``.

Input distribution (paper Table II):

* ``A`` — ``p`` fine row blocks; block ``i`` on rank ``(i/c, i%c)``.
* ``B`` — same blocking over ``n``.
* ``S``/``R`` — ``(p/c) x p`` blocks; block ``(u, j)`` on rank ``(u, j%c)``
  (column-block cyclic across the layers).

One unified kernel (``Mode`` selects SDDMM / SpMMA / SpMMB):

1. ``T`` := zeros(coarse block) — all-gathered from ``A`` along the fiber
   when A is an input (SDDMM, SpMMB).
2. ``p/c`` phases: local kernel against the currently-held B block, then a
   cyclic shift of the B buffer within the layer (the circulating buffer is
   the *output* accumulator for SpMMB).  Read-only as an input, the block
   skips the shift that would bring it home: ``p/c − 1`` shifts of
   ``nr/p`` words; as the SpMMB accumulator it makes all ``p/c``.
3. ``T`` reduce-scattered along the fiber when A is the output (SpMMA).

FusedMM strategies (Section IV-B, Table III; each read-only round then
moves one ``nr/p`` hop and one message less, ``home_hops``):

* *No elision*: two unified calls; ``nr(2/c + 2(c-1)/p)`` words, less
  ``2nr/p`` for FusedMMA (SDDMM and SpMMA read B) and ``nr/p`` for
  FusedMMB.
* *Replication reuse* (native output: B-shaped, i.e. FusedMMB): the single
  all-gather of A serves both kernels and the output accumulates in the
  circulating buffer; ``nr(2/c + (c-1)/p)`` words less ``nr/p``, optimal
  ``c = sqrt(2p)`` (Table III).
* *Local kernel fusion* (native output: A-shaped, i.e. FusedMMA): one
  propagation round runs the fused local kernel; ``nr(1/c + 2(c-1)/p)``
  words less ``nr/p``, optimal ``c = sqrt(p/2)`` (Table III).

Propagation is one :class:`~repro.algorithms.base.Lane` — the B block on
the layer ring, read-only as an input and mutated as the SpMMB output —
handed to the shared ``ring_loop``, which owns the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import (
    TAG_FIBER_AG,
    TAG_FIBER_RS,
    TAG_SHIFT_B,
    DistributedAlgorithm,
    Lane,
    concat_allgather,
    frozen,
    reduce_scatter_rows,
    region,
    track,
)
from repro.errors import DistributionError
from repro.kernels.fused import fusedmm_local
from repro.kernels.sddmm import sddmm_coo, sddmm_custom
from repro.kernels.spmm import spmm_a_block, spmm_b_block
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator
from repro.runtime.grid import Grid15D
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.partition import block_ranges, group_offsets, partition_coo_2d
from repro.types import Elision, Mode, Phase


@dataclass(frozen=True)
class Plan15DDense:
    """Immutable layout description for :class:`DenseShift15D`."""

    m: int
    n: int
    r: int
    grid: Grid15D
    row_fine: np.ndarray = field(repr=False)  # A blocks: block_ranges(m, p)
    col_fine: np.ndarray = field(repr=False)  # B / S-column blocks: block_ranges(n, p)
    row_coarse: np.ndarray = field(repr=False)  # S row blocks: grouped fine blocks

    @property
    def p(self) -> int:
        return self.grid.p

    @property
    def c(self) -> int:
        return self.grid.c

    @property
    def n_layer(self) -> int:
        return self.grid.layer_size

    def fine_rows_a(self, i: int) -> slice:
        return slice(int(self.row_fine[i]), int(self.row_fine[i + 1]))

    def fine_rows_b(self, j: int) -> slice:
        return slice(int(self.col_fine[j]), int(self.col_fine[j + 1]))

    def held_block(self, u: int, v: int, t: int) -> int:
        """Global B-block id held by rank ``(u, v)`` at phase ``t``."""
        return ((u + t) % self.n_layer) * self.c + v


@dataclass
class Local15DDense:
    """Rank-local state for :class:`DenseShift15D`."""

    u: int
    v: int
    A: np.ndarray  # fine block u*c+v of the m-side matrix
    B: np.ndarray  # fine block u*c+v of the n-side matrix
    S: Dict[int, SparseBlock]  # column-block id j -> sparse block (j % c == v)
    R: Dict[int, np.ndarray] = field(default_factory=dict)  # SDDMM outputs
    gidx: Dict[int, np.ndarray] = field(default_factory=dict)  # driver metadata


@dataclass
class Ctx15D:
    """Per-rank communicators, built once per SPMD session."""

    comm: Communicator
    layer: Communicator  # the p/c ranks sharing v (shifts happen here)
    fiber: Communicator  # the c ranks sharing u (replication happens here)
    u: int
    v: int
    pool: BufferPool = field(default_factory=BufferPool)  # the replica memo


class DenseShift15D(DistributedAlgorithm):
    """Paper Algorithm 1 (see module docstring)."""

    name = "1.5d-dense-shift"
    elisions = (Elision.NONE, Elision.REPLICATION_REUSE, Elision.LOCAL_KERNEL_FUSION)
    #: which FusedMM output shape each elision natively produces
    native_variant = {
        Elision.NONE: "either",
        Elision.REPLICATION_REUSE: "b",
        Elision.LOCAL_KERNEL_FUSION: "a",
    }

    def __init__(self, p: int, c: int) -> None:
        super().__init__(p, c)
        self.grid = Grid15D(p, c)

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    def plan(self, m: int, n: int, r: int) -> Plan15DDense:
        row_fine = block_ranges(m, self.p)
        col_fine = block_ranges(n, self.p)
        return Plan15DDense(
            m=m,
            n=n,
            r=r,
            grid=self.grid,
            row_fine=row_fine,
            col_fine=col_fine,
            row_coarse=group_offsets(row_fine, self.c),
        )

    def distribute_sparse(
        self, plan: Plan15DDense, S: Optional[CooMatrix]
    ) -> List[Local15DDense]:
        """Partition the sparse operand per Table II (dense blocks are
        placeholders until :meth:`bind_dense`)."""
        locals_: List[Local15DDense] = []
        parts = {}
        if S is not None:
            if S.shape != (plan.m, plan.n):
                raise DistributionError(f"S shape {S.shape} != ({plan.m}, {plan.n})")
            parts = partition_coo_2d(
                S.rows, S.cols, S.vals, plan.row_coarse, plan.col_fine
            )
        empty = frozen(np.empty((0, 0)))
        for rank in range(self.p):
            u, v = self.grid.coords(rank)
            locals_.append(Local15DDense(u=u, v=v, A=empty, B=empty, S={}))
        for (u, j), (lr, lc, lv, gi) in parts.items():
            rank = self.grid.rank_of(u, j % self.c)
            shape = (
                int(plan.row_coarse[u + 1] - plan.row_coarse[u]),
                int(plan.col_fine[j + 1] - plan.col_fine[j]),
            )
            loc = locals_[rank]
            loc.S[j] = SparseBlock(lr, lc, frozen(lv), shape)
            loc.gidx[j] = gi
        return locals_

    def piece_index(self, plan: Plan15DDense, loc: Local15DDense, side: str):
        """Fine row block ``u*c + v``, full width."""
        i = loc.u * self.c + loc.v
        rows = plan.fine_rows_a(i) if side == "a" else plan.fine_rows_b(i)
        return rows, slice(None)

    def update_values(
        self, plan: Plan15DDense, locals_: List[Local15DDense], vals: np.ndarray
    ) -> None:
        for loc in locals_:
            for j, gi in loc.gidx.items():
                loc.S[j].vals = frozen(vals[gi])

    def collect_sddmm(
        self, plan: Plan15DDense, locals_: List[Local15DDense], S: CooMatrix
    ) -> CooMatrix:
        """Reassemble the SDDMM output into S's global value ordering."""
        vals = np.zeros(S.nnz)
        for loc in locals_:
            for j, rv in loc.R.items():
                vals[loc.gidx[j]] = rv
        return S.with_values(vals)

    # ------------------------------------------------------------------
    # rank side
    # ------------------------------------------------------------------

    def make_context(self, comm: Communicator) -> Ctx15D:
        layer, fiber = self.grid.make_comms(comm)
        u, v = self.grid.coords(comm.rank)
        return Ctx15D(
            comm=comm, layer=layer, fiber=fiber, u=u, v=v, pool=self.pool_for(comm)
        )

    def _fiber_sizes_a(self, plan: Plan15DDense, u: int) -> List[int]:
        """Row counts of the fine A blocks inside coarse block ``u``."""
        return [
            int(plan.row_fine[u * self.c + w + 1] - plan.row_fine[u * self.c + w])
            for w in range(self.c)
        ]

    def replicate(
        self, ctx: Ctx15D, plan: Plan15DDense, local: Local15DDense
    ) -> np.ndarray:
        """The replication step: A's fine blocks all-gathered along the
        fiber into the coarse panel ``rank_kernel`` / ``rank_fusedmm_reuse``
        accept as ``replicated=`` (an earlier dispatch's panel while A's
        block is unchanged, see ``BufferPool.replica``)."""
        with track(ctx.comm, Phase.REPLICATION), region(ctx.comm, "gather-A"):
            return ctx.pool.replica(
                "replica-A", local.A,
                lambda: concat_allgather(ctx.fiber, local.A, TAG_FIBER_AG),
            )

    def rank_kernel(
        self,
        ctx: Ctx15D,
        plan: Plan15DDense,
        local: Local15DDense,
        mode: Mode,
        use_r_values: bool = False,
        use_values: bool = True,
        residual: bool = False,
        edge_op=None,
        replicated: Optional[np.ndarray] = None,
    ) -> None:
        """One unified kernel call (paper Algorithm 1).

        ``use_r_values=True`` makes the SpMM modes consume ``local.R``
        (the SDDMM output) instead of the stored S values — the unoptimized
        back-to-back FusedMM path.  ``use_values=False`` computes a
        pattern-only SDDMM (dots without the ``S *`` multiply, used by the
        ALS normal equations); ``residual=True`` leaves ``S − dots``
        instead (the ALS start residual).  ``edge_op`` replaces the SDDMM dot products
        with a custom per-edge function of the incident dense rows (used by
        the GAT attention scores).  ``replicated`` hands in an
        already-gathered coarse A panel (replication reuse shares one
        gather between its two rounds).
        """
        prof = ctx.comm.profile
        u, v = ctx.u, ctx.v
        coarse_rows = int(plan.row_coarse[u + 1] - plan.row_coarse[u])

        # --- replication -------------------------------------------------
        T = replicated
        if T is None:
            if mode in (Mode.SDDMM, Mode.SPMM_B):
                T = self.replicate(ctx, plan, local)
            else:
                with track(ctx.comm, Phase.REPLICATION):
                    T = np.zeros((coarse_rows, plan.r))

        # --- propagation: the B block circulates around the layer, as a
        # read-only input or (SpMMB) as the output the kernel accumulates
        if mode == Mode.SPMM_B:
            B_start = np.zeros(self.piece_shape(plan, local, "b"))
        else:
            B_start = local.B

        def compute(t, B_cur):
            j = plan.held_block(u, v, t)
            blk = local.S.get(j)
            if blk is None:
                return
            if mode == Mode.SDDMM:
                if edge_op is not None:
                    dots = sddmm_custom(
                        T, B_cur, blk.rows, blk.cols, edge_op, profile=prof
                    )
                    local.R[j] = dots * blk.vals if use_values else dots
                else:
                    dots = sddmm_coo(
                        T,
                        B_cur,
                        blk.rows,
                        blk.cols,
                        s_vals=blk.vals if use_values and not residual else None,
                        profile=prof,
                    )
                    local.R[j] = blk.vals - dots if residual else dots
            elif mode == Mode.SPMM_A:
                vals = local.R[j] if use_r_values else None
                spmm_a_block(blk, B_cur, T, values=vals, profile=prof)
            else:  # SPMM_B
                vals = local.R[j] if use_r_values else None
                spmm_b_block(blk, T, B_cur, values=vals, profile=prof)

        (B_end,) = self.ring_loop(
            ctx.comm, plan.n_layer,
            [Lane(ctx.layer, B_start, TAG_SHIFT_B)],
            compute,
        )

        if mode == Mode.SPMM_B:
            # the accumulated output, back at its home rank and read-only as
            # a bound block is: a later round may circulate it read-only
            local.B = frozen(B_end)

        # --- output reduction ---------------------------------------------
        if mode == Mode.SPMM_A:
            with track(ctx.comm, Phase.REPLICATION), region(
                ctx.comm, "reduce-scatter-A"
            ):
                local.A = reduce_scatter_rows(
                    ctx.fiber, T, self._fiber_sizes_a(plan, u), TAG_FIBER_RS
                )

    # -- local kernel fusion (none / reuse derive from rank_kernel in base) --

    def rank_fusedmm_lkf(
        self,
        ctx: Ctx15D,
        plan: Plan15DDense,
        local: Local15DDense,
        use_values: bool = True,
        residual: bool = False,
    ) -> None:
        """Local kernel fusion (native FusedMMA).

        A single propagation round; each phase runs the fused local
        SDDMM+SpMM kernel against the read-only B block, which skips its
        hop home.  Words: ``nr(2(c-1)/p + 1/c − 1/p)``.  ``use_values`` /
        ``residual`` select the SDDMM's output as :meth:`rank_kernel`'s do.
        """
        prof = ctx.comm.profile
        u, v = ctx.u, ctx.v
        coarse_rows = int(plan.row_coarse[u + 1] - plan.row_coarse[u])
        T_in = self.replicate(ctx, plan, local)
        T_out = np.zeros((coarse_rows, plan.r))

        def fused_compute(t, B_cur):
            j = plan.held_block(u, v, t)
            blk = local.S.get(j)
            if blk is not None:
                local.R[j] = fusedmm_local(
                    T_in,
                    B_cur,
                    blk,
                    T_out,
                    use_values=use_values,
                    residual=residual,
                    return_sddmm=True,
                    profile=prof,
                )

        self.ring_loop(
            ctx.comm, plan.n_layer,
            [Lane(ctx.layer, local.B, TAG_SHIFT_B)],
            fused_compute,
        )
        with track(ctx.comm, Phase.REPLICATION):
            local.A = reduce_scatter_rows(
                ctx.fiber, T_out, self._fiber_sizes_a(plan, u), TAG_FIBER_RS
            )
