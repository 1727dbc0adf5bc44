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
  chunk is home and is multiplied by the resident S values.  The round
  *leads* (shift, then compute), so a chunk's home strip is added last.
* SpMMA — partial products accumulate into a full ``m x strip`` buffer,
  reduce-scattered along the fiber at the end (cyclic row groups).
* SpMMB — all-gather A's strip; contributions accumulate directly into
  the stationary local B panel (already in B's input distribution, so no
  terminal reduction).

FusedMM: *replication reuse* (native FusedMMB) shares the single
all-gather between the SDDMM and SpMMB rounds, reproducing the paper's
Eq. (2) cost ``6 nnz/c + n r (c-1)/p`` with ``2p/c + (c-1)`` messages and
optimal ``c = sqrt(6 p phi)`` — less, for a *cold* call, the SpMM round's
hop home: its chunk triple is read-only and still at home, so it makes
``L − 1`` shifts (``3 nnz/p`` words and one message less,
``home_hops``), while the SDDMM round's accumulating triple makes all
``L``.  A warm call of a session moves the values alone: the layer
ring already carried every chunk's coordinates, which each rank kept
(``CarriedCoords`` on its context).  It also makes ``L − 1`` value
shifts per round on the ring of ``L = p/c``: the SpMMB round's
read-only values stop one hop short of home, where they still are, and
the SDDMM round's zero accumulator starts one hop downstream.  So propagation falls to
``2 nnz (L − 1) / (c L)`` words (``nnz/c`` at ``L = 2``), and the fiber
gather of an unchanged A is skipped too (``BufferPool.replica``).
Local kernel fusion is impossible here (dense matrices are split along
r, so local dots are partial — paper Section IV-B), matching the paper.

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
global->packed remap.  All panels come from a per-rank
:class:`~repro.runtime.buffers.BufferPool`, so repeated calls allocate
nothing and the rank profiles record true peak buffer footprints.

Propagation is the S chunk's :class:`~repro.algorithms.base.Lane` s on the
layer ring (``chunk_lanes``) handed to the shared ``ring_loop``; the
packed fiber collectives are the blocking ones of
:mod:`repro.comm_sparse.collectives`.

The chunk leaves home *kernel-ready* on both communication paths
(``home_chunk``, cached per resident structure with the rank's local
state): coordinates in kernel space — panel rows (global, or packed) and
layer-local B rows, one translation every rank of the layer ring shares
— and in the mode's travel order (column-major for SpMMB, whose output
index is the column).  A ring phase therefore runs the local kernel and
nothing else; per call only the values are gathered into travel order,
and — once the layer ring carried a mode's chunks — only they travel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    TAG_FIBER_AG,
    TAG_FIBER_RS,
    CarriedCoords,
    DistributedAlgorithm,
    frozen,
    region,
    track,
)
from repro.comm_sparse.collectives import (
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
    #: the home chunk as each mode's kernel consumes it (``home_chunk``)
    travel: dict = field(default_factory=dict, repr=False)


@dataclass
class Ctx15DSparse:
    comm: Communicator
    layer: Communicator
    fiber: Communicator
    u: int
    v: int
    pool: BufferPool = field(default_factory=BufferPool)
    #: the coordinates the layer ring carried (``chunk_lanes``)
    carried: CarriedCoords = field(default_factory=CarriedCoords)


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
        placeholder = frozen(np.empty((0, 0)))
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
                    S_vals=frozen(sv),
                    gidx=gi,
                )
            )
        return locals_

    def piece_index(self, plan: Plan15DSparse, loc: Local15DSparse, side: str):
        """Block-row cyclic fine rows of fiber position ``v`` x r-strip ``u``."""
        rows = plan.rows_a_of_fiber if side == "a" else plan.rows_b_of_fiber
        return rows[loc.v], plan.strip_slice(loc.u)

    def update_values(
        self, plan: Plan15DSparse, locals_: List[Local15DSparse], vals: np.ndarray
    ) -> None:
        for loc in locals_:
            if len(loc.gidx):
                loc.S_vals = frozen(vals[loc.gidx])

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
            comm=comm, layer=layer, fiber=fiber, u=u, v=v, pool=self.pool_for(comm)
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
        full-height scatter bandwidth is ever paid.
        """
        with region(ctx.comm, "gather-strip-packed"):
            P = ctx.pool.empty("packed", (sparse_plan.index.size, local.A.shape[1]))
            P[sparse_plan.own_packed] = local.A[sparse_plan.own_local]
            return sparse_allgatherv_packed(
                ctx.fiber, sparse_plan.gather, sparse_plan.index, local.A, P
            )

    def replicate(
        self, ctx: Ctx15DSparse, plan: Plan15DSparse, local: Local15DSparse,
        sparse_plan: Optional[SparsePlan15D] = None,
    ) -> np.ndarray:
        """The replication step: A's strip gathered along the fiber.

        The panel is what ``rank_kernel`` / ``rank_fusedmm_reuse`` accept
        as ``replicated=``; it lives in the rank's buffer pool, stays valid
        until its slot (``"panel"``, or ``"packed"`` on the need-list path)
        is acquired again, and is handed back to a later dispatch while
        A's block is unchanged (see ``BufferPool.replica``).
        """
        with track(ctx.comm, Phase.REPLICATION):
            if sparse_plan is not None:
                return ctx.pool.replica(
                    "packed", local.A,
                    partial(self._gather_strip_packed, ctx, local, sparse_plan),
                )
            return ctx.pool.replica(
                "panel", local.A,
                partial(self._gather_strip, ctx, plan, local.A, plan.rows_a_of_fiber),
            )

    @staticmethod
    def _kernel_coords(
        local: Local15DSparse, sparse_plan: Optional[SparsePlan15D]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The home chunk's coordinates in kernel space: rows index the
        gathered panel (global, or packed to the layer's row union),
        columns the layer-local B rows.  Every rank of a layer ring shares
        one row space and one B ownership, so a chunk translated at home
        is valid wherever it travels."""
        lcols = local.loc_b[local.S_cols]
        if len(lcols) and lcols.min() < 0:
            raise DistributionError("nonzero column not owned by this layer")
        if sparse_plan is not None:
            return sparse_plan.index.positions(local.S_rows), lcols
        return local.S_rows, lcols

    def rank_kernel(
        self,
        ctx: Ctx15DSparse,
        plan: Plan15DSparse,
        local: Local15DSparse,
        mode: Mode,
        use_r_values: bool = False,
        use_values: bool = True,
        residual: bool = False,
        sparse_plan: Optional[SparsePlan15D] = None,
        replicated: Optional[np.ndarray] = None,
    ) -> None:
        """One unified kernel call (see module docstring).

        ``use_values=False`` computes a pattern-only SDDMM (plain dots,
        for the ALS normal equations); ``residual=True`` leaves
        ``S_vals − dots`` instead (the ALS start residual).  With
        ``sparse_plan`` the fiber collectives become need-list
        neighborhood exchanges over *packed* panels (the chunk's rows
        then index the packed panel).
        ``replicated`` hands in an already-gathered A panel (replication
        reuse shares one gather between its two rounds).
        """
        prof = ctx.comm.profile
        sw = plan.strip_width(ctx.u)
        packed = sparse_plan is not None

        if replicated is not None:
            T = replicated
        elif mode != Mode.SPMM_A:
            T = self.replicate(ctx, plan, local, sparse_plan)
        else:
            with track(ctx.comm, Phase.REPLICATION):
                if packed:
                    # SpMMA partial-output accumulator, packed to the layer's
                    # row union (the same slot as the gather panel)
                    T = ctx.pool.zeros("packed", (sparse_plan.index.size, sw))
                else:
                    T = ctx.pool.zeros("panel", (plan.m, sw))

        # the chunk leaves home kernel-ready — translated, in the mode's
        # travel order — so no phase sorts, gathers or translates an index
        space = "packed" if packed else "panel"
        rows0, cols0, perm = self.home_chunk(
            local.travel, space, partial(self._kernel_coords, local, sparse_plan),
            mode,
        )
        if mode == Mode.SDDMM:
            vals0 = np.zeros(len(local.S_rows))
        else:
            vals0 = local.R if use_r_values else local.S_vals
            if perm is not None:
                vals0 = frozen(vals0[perm])
        if mode == Mode.SPMM_B:
            # B is a pure output here, accumulated in a fresh block sized
            # from the plan (off the pool: it escapes into the local state)
            local.B = np.zeros(self.piece_shape(plan, local, "b"))

        def compute(_t, rows, cols, vals):
            if len(rows):
                if mode == Mode.SDDMM:
                    # accumulate this strip's partial dots into the
                    # circulating value array
                    sddmm_coo(
                        T, local.B, rows, cols, out=vals, accumulate=True,
                        profile=prof,
                    )
                elif mode == Mode.SPMM_A:
                    spmm_scatter(rows, cols, vals, local.B, T, profile=prof)
                else:  # SPMM_B: out[local cols] += vals * T[rows]
                    spmm_scatter(cols, rows, vals, T, local.B, profile=prof)

        # the chunk is home again after the full ring cycle; an SDDMM
        # round leads, so each chunk's home strip is added last
        _, _, dots = self.ring_loop(
            ctx.comm, plan.n_layer,
            self.chunk_lanes(
                ctx.layer, rows0, cols0, vals0,
                carried=ctx.carried, key=(space, mode),
            ),
            compute,
            leading=mode == Mode.SDDMM,
        )

        if mode == Mode.SDDMM:
            if residual:
                local.R = frozen(local.S_vals - dots)
            else:
                local.R = frozen(dots * local.S_vals if use_values else dots)
        elif mode == Mode.SPMM_A:
            with track(ctx.comm, Phase.REPLICATION), region(
                ctx.comm, "reduce-scatter-A"
            ):
                if packed:
                    # seed with this rank's own partials at the owned union
                    # rows (everything else it owns was never touched and
                    # stays zero), then pull in each fiber peer's
                    # contributions straight out of their packed panels
                    base = np.zeros(self.piece_shape(plan, local, "a"))
                    base[sparse_plan.own_local] = T[sparse_plan.own_packed]
                    local.A = sparse_reduce_scatterv_packed(
                        ctx.fiber, sparse_plan.reduce, sparse_plan.index,
                        T, base,
                    )
                else:
                    pieces = [T[plan.rows_a_of_fiber[w]] for w in range(self.c)]
                    local.A = ctx.fiber.reduce_scatter(pieces, tag=TAG_FIBER_RS)
