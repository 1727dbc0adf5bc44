"""1.5D sparse-shifting, dense-replicating algorithm (paper Section V-B).

Grid ``(p/c) x c``; rank ``(u, v)``.  In contrast to Algorithm 1, the
*sparse* matrix propagates and the dense matrices are divided by **block
columns** (r-strips), which is advantageous when ``phi = nnz(S)/(n r)`` is
low: shifting ``3 nnz/p`` words per phase beats shifting ``n r / p``.

Input distribution:

* dense ``A`` (m-side) and ``B`` (n-side) — column strip ``u`` (width
  ``~ r c / p``), fine row blocks ``i % c == v`` (block-row cyclic across
  the fiber).  All-gathering a strip along the fiber yields the full
  ``m x strip`` panel ``T`` (the replication step).
* ``S`` — nonzero ``(i, j)`` lives in layer ``v = colblock(j) % c`` and,
  within the layer, in the coarse row chunk of ``i``; chunks circulate
  around the layer ring carrying ``(row, col, value)`` triples — the
  paper's 3-words-per-nonzero coordinate format.

Unified kernel (Mode):

* SDDMM — all-gather A's strip; the circulating value array accumulates
  partial dot products strip by strip; after the full ring cycle each
  chunk is home and is multiplied by the resident S values.
* SpMMA — partial products accumulate into a full ``m x strip`` buffer,
  reduce-scattered along the fiber at the end (cyclic row groups).
* SpMMB — all-gather A's strip; contributions accumulate directly into
  the stationary local B panel (already in B's input distribution, so no
  terminal reduction).

FusedMM: *replication reuse* (native FusedMMB) shares the single
all-gather between the SDDMM and SpMMB rounds, reproducing the paper's
Eq. (2) cost ``6 nnz/c + n r (c-1)/p`` with ``2p/c + (c-1)`` messages and
optimal ``c = sqrt(6 p phi)``.  Local kernel fusion is impossible here
(dense matrices are split along r, so local dots are partial — paper
Section IV-B), matching the paper.

Sparse communication (``comm="sparse"``): the gathered panel ``T`` is
only ever indexed at the union of S rows of this rank's *layer* (every
chunk of the layer circulates through the rank), so the fiber all-gather
and the SpMMA output reduction only need to move those rows.  With a
per-structure :class:`~repro.comm_sparse.planner.SparsePlan15D`, the
replication term drops from ``n r (c-1)/p`` to
``|rows(layer)| r (c-1)/p`` words while the (already sparse) chunk
propagation is unchanged.

Packed buffers: on the sparse path no ``m``-tall panel exists at all.
The gather target and the SpMMA partial-output accumulator are *packed*
``len(union) x sw`` panels addressed through the plan's cached
global->packed remap, and the circulating chunk payloads carry
pre-remapped (packed-row, local-column) coordinates — every rank of a
layer shares the same remap, so the translation happens once per kernel
call instead of once per phase.  All panels come from a per-rank
:class:`~repro.runtime.buffers.BufferPool`, so repeated calls allocate
nothing and the rank profiles record true peak buffer footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    KEEP,
    TAG_FIBER_AG,
    TAG_FIBER_RS,
    TAG_SHIFT_S,
    TAG_SHIFT_SV,
    DistributedAlgorithm,
    region,
    track,
)
from repro.comm_sparse.collectives import (
    isparse_allgatherv_packed,
    isparse_reduce_scatterv_packed,
    sparse_allgatherv_packed,
    sparse_reduce_scatterv_packed,
)
from repro.comm_sparse.planner import (
    SparsePlan15D,
    cached_comm_plans,
    plan_sparse_shift_15d,
)
from repro.errors import DistributionError
from repro.kernels.sddmm import sddmm_coo
from repro.kernels.spmm import spmm_scatter
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator
from repro.runtime.grid import Grid15D
from repro.sparse.coo import CooMatrix
from repro.sparse.partition import (
    block_of,
    block_ranges,
    cyclic_block_index,
    global_to_local_map,
    partition_by_owner,
)
from repro.types import Elision, Mode, Phase


@dataclass(frozen=True)
class Plan15DSparse:
    """Immutable layout description for :class:`SparseShift15D`."""

    m: int
    n: int
    r: int
    grid: Grid15D
    row_fine: np.ndarray = field(repr=False)  # A row blocks: block_ranges(m, p)
    col_fine: np.ndarray = field(repr=False)  # B row blocks: block_ranges(n, p)
    strips: np.ndarray = field(repr=False)  # r-strips: block_ranges(r, p/c)
    row_chunks: np.ndarray = field(repr=False)  # S chunks: block_ranges(m, p/c)
    rows_a_of_fiber: Tuple[np.ndarray, ...] = field(repr=False, default=())
    rows_b_of_fiber: Tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def p(self) -> int:
        return self.grid.p

    @property
    def c(self) -> int:
        return self.grid.c

    @property
    def n_layer(self) -> int:
        return self.grid.layer_size

    def strip_slice(self, u: int) -> slice:
        return slice(int(self.strips[u]), int(self.strips[u + 1]))

    def strip_width(self, u: int) -> int:
        return int(self.strips[u + 1] - self.strips[u])


@dataclass
class Local15DSparse:
    """Rank-local state for :class:`SparseShift15D`."""

    u: int
    v: int
    A: np.ndarray  # (owned m-rows, strip width)
    B: np.ndarray  # (owned n-rows, strip width)
    loc_b: np.ndarray  # global n index -> local B row (or -1)
    S_rows: np.ndarray  # home chunk, GLOBAL coordinates
    S_cols: np.ndarray
    S_vals: np.ndarray
    gidx: np.ndarray  # positions of the home chunk in the global COO
    R: Optional[np.ndarray] = None  # SDDMM output values for the home chunk


@dataclass
class Ctx15DSparse:
    comm: Communicator
    layer: Communicator
    fiber: Communicator
    u: int
    v: int
    pool: BufferPool = field(default_factory=BufferPool)
    overlap: bool = False


class SparseShift15D(DistributedAlgorithm):
    """1.5D sparse-shifting, dense-replicating algorithm."""

    name = "1.5d-sparse-shift"
    elisions = (Elision.NONE, Elision.REPLICATION_REUSE)
    native_variant = {Elision.NONE: "either", Elision.REPLICATION_REUSE: "b"}
    supports_sparse_comm = True

    def __init__(self, p: int, c: int) -> None:
        super().__init__(p, c)
        self.grid = Grid15D(p, c)

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    def plan(self, m: int, n: int, r: int) -> Plan15DSparse:
        nl = self.grid.layer_size
        row_fine = block_ranges(m, self.p)
        col_fine = block_ranges(n, self.p)
        return Plan15DSparse(
            m=m,
            n=n,
            r=r,
            grid=self.grid,
            row_fine=row_fine,
            col_fine=col_fine,
            strips=block_ranges(r, nl),
            row_chunks=block_ranges(m, nl),
            rows_a_of_fiber=tuple(
                cyclic_block_index(row_fine, self.c, v) for v in range(self.c)
            ),
            rows_b_of_fiber=tuple(
                cyclic_block_index(col_fine, self.c, v) for v in range(self.c)
            ),
        )

    def distribute_sparse(
        self, plan: Plan15DSparse, S: Optional[CooMatrix]
    ) -> List[Local15DSparse]:
        if S is not None and S.shape != (plan.m, plan.n):
            raise DistributionError(f"S shape {S.shape} != ({plan.m}, {plan.n})")
        parts = {}
        if S is not None and S.nnz:
            chunk = block_of(S.rows, plan.row_chunks)
            layer_v = block_of(S.cols, plan.col_fine) % self.c
            owner = chunk * self.c + layer_v
            parts = partition_by_owner(S.rows, S.cols, S.vals, owner, self.p)
        locals_: List[Local15DSparse] = []
        empty = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            np.empty(0, np.int64),
        )
        placeholder = np.empty((0, 0))
        for rank in range(self.p):
            u, v = self.grid.coords(rank)
            sr, sc, sv, gi = parts.get(rank, empty)
            locals_.append(
                Local15DSparse(
                    u=u,
                    v=v,
                    A=placeholder,
                    B=placeholder,
                    loc_b=global_to_local_map(plan.n, plan.rows_b_of_fiber[v]),
                    S_rows=sr,
                    S_cols=sc,
                    S_vals=sv,
                    gidx=gi,
                )
            )
        return locals_

    def bind_dense(
        self,
        plan: Plan15DSparse,
        locals_: List[Local15DSparse],
        A: Optional[np.ndarray],
        B: Optional[np.ndarray],
    ) -> None:
        for loc in locals_:
            # fancy rows x strip *slice*: one row-wise gather into a fresh
            # C-contiguous panel (never a view of the caller's operand)
            sl = plan.strip_slice(loc.u)
            rows_a = plan.rows_a_of_fiber[loc.v]
            rows_b = plan.rows_b_of_fiber[loc.v]
            if A is not KEEP:
                loc.A = (
                    A[rows_a, sl]
                    if A is not None
                    else np.zeros((len(rows_a), plan.strip_width(loc.u)))
                )
            if B is not KEEP:
                loc.B = (
                    B[rows_b, sl]
                    if B is not None
                    else np.zeros((len(rows_b), plan.strip_width(loc.u)))
                )

    def update_values(
        self, plan: Plan15DSparse, locals_: List[Local15DSparse], vals: np.ndarray
    ) -> None:
        for loc in locals_:
            if len(loc.gidx):
                loc.S_vals[:] = vals[loc.gidx]

    def collect_dense_a(
        self, plan: Plan15DSparse, locals_: List[Local15DSparse]
    ) -> np.ndarray:
        out = np.zeros((plan.m, plan.r))
        for loc in locals_:
            out[plan.rows_a_of_fiber[loc.v], plan.strip_slice(loc.u)] = loc.A
        return out

    def collect_dense_b(
        self, plan: Plan15DSparse, locals_: List[Local15DSparse]
    ) -> np.ndarray:
        out = np.zeros((plan.n, plan.r))
        for loc in locals_:
            out[plan.rows_b_of_fiber[loc.v], plan.strip_slice(loc.u)] = loc.B
        return out

    def collect_sddmm(
        self, plan: Plan15DSparse, locals_: List[Local15DSparse], S: CooMatrix
    ) -> CooMatrix:
        vals = np.zeros(S.nnz)
        for loc in locals_:
            if loc.R is not None and len(loc.gidx):
                vals[loc.gidx] = loc.R
        return S.with_values(vals)

    def build_comm_plans(
        self, plan: Plan15DSparse, S: CooMatrix
    ) -> List[SparsePlan15D]:
        return cached_comm_plans("1.5d-sparse-shift", plan, S, plan_sparse_shift_15d)

    # ------------------------------------------------------------------
    # rank side
    # ------------------------------------------------------------------

    def make_context(self, comm: Communicator) -> Ctx15DSparse:
        layer, fiber = self.grid.make_comms(comm)
        u, v = self.grid.coords(comm.rank)
        return Ctx15DSparse(
            comm=comm, layer=layer, fiber=fiber, u=u, v=v,
            pool=self.pool_for(comm), overlap=self.overlap,
        )

    def _gather_strip(
        self, ctx: Ctx15DSparse, plan: Plan15DSparse, panel: np.ndarray, rows_of_fiber
    ) -> np.ndarray:
        """All-gather a cyclic-row panel along the fiber into full row order."""
        with region(ctx.comm, "gather-strip"):
            parts = ctx.fiber.allgather(panel, tag=TAG_FIBER_AG)
            total = sum(len(rows_of_fiber[w]) for w in range(self.c))
            T = ctx.pool.empty("panel", (total, panel.shape[1]))
            for w, part in enumerate(parts):
                T[rows_of_fiber[w]] = part
            return T

    def _gather_strip_packed(
        self, ctx: Ctx15DSparse, local: Local15DSparse, sparse_plan: SparsePlan15D
    ) -> np.ndarray:
        """Need-list gather into a *packed* ``len(union) x sw`` panel.

        No ``m``-tall buffer is materialized: owned union rows are copied
        in with one fancy-indexed assignment and every remaining packed
        row is covered by exactly one peer leg of the packed plan, so the
        pool hands back an uninitialized panel and no zero-fill or
        full-height scatter bandwidth is ever paid.  The panel comes from
        the pool's double-buffer lease; under the overlap pipeline the
        exchange is posted first (guarding the in-flight panel) and the
        own-rows copy runs behind it.
        """
        with region(ctx.comm, "gather-strip-packed"):
            P = ctx.pool.lease("panel", (sparse_plan.index.size, local.A.shape[1]))
            if ctx.overlap:
                pending = isparse_allgatherv_packed(
                    ctx.fiber, sparse_plan.gather_packed, sparse_plan.index,
                    local.A, P, pool=ctx.pool,
                )
                P[sparse_plan.own_packed] = local.A[sparse_plan.own_local]
                pending.wait()
            else:
                P[sparse_plan.own_packed] = local.A[sparse_plan.own_local]
                sparse_allgatherv_packed(
                    ctx.fiber, sparse_plan.gather_packed, sparse_plan.index, local.A, P
                )
            return P

    def _shift_loop(self, ctx: Ctx15DSparse, nl: int, payload, compute, split: bool):
        """Run ``nl`` phases of ``compute(rows, cols, vals)`` + ring shift.

        Synchronous mode shifts the whole ``(rows, cols, vals)`` chunk
        after each kernel.  Under the overlap pipeline the shift is
        software-pipelined behind the kernel: with ``split=False`` the
        payload is read-only during compute, so the entire shift is posted
        *before* the kernel and waited after it; with ``split=True`` (the
        SDDMM rounds, whose circulating value array accumulates *during*
        compute) the read-only coordinate part — two of the three words
        per nonzero — is pre-posted on :data:`TAG_SHIFT_S` and the
        freshly-accumulated values follow after the kernel on
        :data:`TAG_SHIFT_SV`.  Values and kernel order are identical in
        every mode, so outputs are bitwise unchanged.
        """
        overlap = ctx.overlap
        for _ in range(nl):
            rows, cols, vals = payload
            pending = None
            if overlap:
                with track(ctx.comm, Phase.PROPAGATION):
                    part = (rows, cols) if split else payload
                    pending = ctx.layer.ishift(part, displacement=-1, tag=TAG_SHIFT_S)
            with track(ctx.comm, Phase.COMPUTATION):
                compute(rows, cols, vals)
            with track(ctx.comm, Phase.PROPAGATION):
                if not overlap:
                    payload = ctx.layer.shift(
                        payload, displacement=-1, tag=TAG_SHIFT_S
                    )
                elif split:
                    vals = ctx.layer.shift(vals, displacement=-1, tag=TAG_SHIFT_SV)
                    rows, cols = pending.wait()
                    payload = (rows, cols, vals)
                else:
                    payload = pending.wait()
        return payload

    def rank_kernel(
        self,
        ctx: Ctx15DSparse,
        plan: Plan15DSparse,
        local: Local15DSparse,
        mode: Mode,
        use_r_values: bool = False,
        use_values: bool = True,
        sparse_plan: Optional[SparsePlan15D] = None,
    ) -> None:
        """One unified kernel call (see module docstring).

        ``use_values=False`` computes a pattern-only SDDMM (plain dots,
        for the ALS normal equations).  With ``sparse_plan`` the fiber
        collectives become need-list neighborhood exchanges over *packed*
        panels, and the circulating chunks carry pre-remapped coordinates.
        """
        prof = ctx.comm.profile
        nl = plan.n_layer
        sw = plan.strip_width(ctx.u)
        packed = sparse_plan is not None

        with track(ctx.comm, Phase.REPLICATION):
            if mode in (Mode.SDDMM, Mode.SPMM_B):
                if packed:
                    T = self._gather_strip_packed(ctx, local, sparse_plan)
                else:
                    T = self._gather_strip(ctx, plan, local.A, plan.rows_a_of_fiber)
            elif packed:
                # SpMMA partial-output accumulator, packed to the layer's
                # row union (leased: same slot as the gather panel)
                T = ctx.pool.lease_zeros("panel", (sparse_plan.index.size, sw))
            else:
                T = ctx.pool.zeros("panel", (plan.m, sw))

        if mode == Mode.SDDMM:
            vals0 = np.zeros(len(local.S_rows))
        else:
            vals0 = (local.R if use_r_values else local.S_vals).copy()
        if packed:
            # cached index remapping: every rank of the layer ring shares
            # the same global->packed row map and the same B ownership, so
            # the chunk circulates with the plan's pre-translated packed
            # rows and local columns (computed once per structure) and no
            # index translation happens anywhere on the ring, per phase
            # or per call
            payload = (
                sparse_plan.home_rows_packed,
                sparse_plan.home_cols_local,
                vals0,
            )
        else:
            payload = (local.S_rows, local.S_cols, vals0)
        if mode == Mode.SPMM_B:
            # B is a pure output here; rebind rather than zero in place
            # (the previous array may be caller-owned, e.g. a CG query
            # vector), and keep it off the pool since it escapes into the
            # collected local state
            local.B = np.zeros_like(local.B)

        def compute(rows, cols, vals):
            if len(rows):
                lcols = cols if packed else self._local_cols(local, cols)
                if mode == Mode.SDDMM:
                    # accumulate this strip's partial dots into the
                    # circulating value array
                    sddmm_coo(
                        T, local.B, rows, lcols, out=vals, accumulate=True,
                        profile=prof,
                    )
                elif mode == Mode.SPMM_A:
                    spmm_scatter(rows, lcols, vals, local.B, T, profile=prof)
                else:  # SPMM_B: out[local cols] += vals * T[rows]
                    spmm_scatter(lcols, rows, vals, T, local.B, profile=prof)

        payload = self._shift_loop(
            ctx, nl, payload, compute, split=(mode == Mode.SDDMM)
        )

        if mode == Mode.SDDMM:
            _, _, dots = payload  # home again after the full ring cycle
            local.R = dots * local.S_vals if use_values else dots
        elif mode == Mode.SPMM_A:
            with track(ctx.comm, Phase.REPLICATION), region(
                ctx.comm, "reduce-scatter-A"
            ):
                if packed:
                    # seed with this rank's own partials at the owned union
                    # rows (everything else it owns was never touched and
                    # stays zero), then pull in each fiber peer's
                    # contributions straight out of their packed panels.
                    # Pipelined: the contribution legs are posted first and
                    # the own-rows seeding hides behind the exchange.
                    base = np.zeros_like(local.A)
                    if ctx.overlap:
                        pending = isparse_reduce_scatterv_packed(
                            ctx.fiber, sparse_plan.reduce_packed,
                            sparse_plan.index, T, base,
                        )
                        base[sparse_plan.own_local] = T[sparse_plan.own_packed]
                        local.A = pending.wait()
                    else:
                        base[sparse_plan.own_local] = T[sparse_plan.own_packed]
                        local.A = sparse_reduce_scatterv_packed(
                            ctx.fiber, sparse_plan.reduce_packed,
                            sparse_plan.index, T, base,
                        )
                else:
                    pieces = [T[plan.rows_a_of_fiber[w]] for w in range(self.c)]
                    local.A = ctx.fiber.reduce_scatter(pieces, tag=TAG_FIBER_RS)

    @staticmethod
    def _local_cols(local: Local15DSparse, cols: np.ndarray) -> np.ndarray:
        lc = local.loc_b[cols]
        if len(lc) and lc.min() < 0:
            raise DistributionError("nonzero column not owned by this layer")
        return lc

    # -- FusedMM ---------------------------------------------------------

    def rank_fusedmm_none_a(
        self, ctx: Ctx15DSparse, plan: Plan15DSparse, local: Local15DSparse,
        sparse_plan: Optional[SparsePlan15D] = None,
    ) -> None:
        """Unoptimized FusedMMA: SDDMM call then SpMMA call."""
        self.rank_kernel(ctx, plan, local, Mode.SDDMM, sparse_plan=sparse_plan)
        self.rank_kernel(
            ctx, plan, local, Mode.SPMM_A, use_r_values=True, sparse_plan=sparse_plan
        )

    def rank_fusedmm_none_b(
        self, ctx: Ctx15DSparse, plan: Plan15DSparse, local: Local15DSparse,
        sparse_plan: Optional[SparsePlan15D] = None,
    ) -> None:
        """Unoptimized FusedMMB: SDDMM call then SpMMB call (re-gathers A)."""
        self.rank_kernel(ctx, plan, local, Mode.SDDMM, sparse_plan=sparse_plan)
        self.rank_kernel(
            ctx, plan, local, Mode.SPMM_B, use_r_values=True, sparse_plan=sparse_plan
        )

    def rank_fusedmm_reuse(
        self,
        ctx: Ctx15DSparse,
        plan: Plan15DSparse,
        local: Local15DSparse,
        use_values: bool = True,
        sparse_plan: Optional[SparsePlan15D] = None,
    ) -> None:
        """Replication reuse (native FusedMMB): one all-gather, two rounds.

        Cost: ``6 nnz/c + n r (c-1)/p`` words (paper Eq. 2); with
        ``sparse_plan`` the ``n r (c-1)/p`` term shrinks to the layer's
        touched rows.
        """
        prof = ctx.comm.profile
        nl = plan.n_layer
        packed = sparse_plan is not None

        with track(ctx.comm, Phase.REPLICATION):
            if packed:
                T = self._gather_strip_packed(ctx, local, sparse_plan)
            else:
                T = self._gather_strip(ctx, plan, local.A, plan.rows_a_of_fiber)

        # home-chunk coordinates: the packed path circulates the plan's
        # structure-cached pre-translated coordinates (shared by both
        # rounds), the dense path the global ones
        if packed:
            rows0 = sparse_plan.home_rows_packed
            cols0 = sparse_plan.home_cols_local
        else:
            rows0, cols0 = local.S_rows, local.S_cols

        # round 1: SDDMM — circulate accumulating dots (split pipeline:
        # coordinates pre-posted, accumulated values follow the kernel)
        def sddmm_compute(rows, cols, vals):
            if len(rows):
                sddmm_coo(
                    T, local.B, rows,
                    cols if packed else self._local_cols(local, cols),
                    out=vals, accumulate=True, profile=prof,
                )

        payload = self._shift_loop(
            ctx, nl, (rows0, cols0, np.zeros(len(local.S_rows))),
            sddmm_compute, split=True,
        )
        local.R = payload[2] * local.S_vals if use_values else payload[2]

        # round 2: SpMMB reusing T — accumulate into a fresh output panel
        # (rebind, never zero in place: the old array may be caller-owned,
        # and the result escapes into the collected local state).  The
        # circulating chunk is read-only here, so the pipeline pre-posts
        # the whole shift behind the local kernel.
        local.B = np.zeros_like(local.B)

        def spmmb_compute(rows, cols, vals):
            if len(rows):
                spmm_scatter(
                    cols if packed else self._local_cols(local, cols),
                    rows, vals, T, local.B, profile=prof,
                )

        self._shift_loop(
            ctx, nl, (rows0, cols0, local.R.copy()), spmmb_compute, split=False
        )
