"""2.5D sparse-replicating algorithm (paper Section V-D).

Grid ``q x q x c`` with ``q = sqrt(p/c)``.  The sparse matrix is the
replicated operand: the *coordinates* of coarse block ``(x, y)`` (a
``q x q`` blocking) are shared by all ``c`` fiber ranks — Table II's
``(i, j, *)`` — while the *values* are distributed along the fiber in
contiguous chunks, so "only the nonzero values need to be communicated
along the fiber axis" (one word per nonzero).  Both dense matrices
propagate within each layer.

Dense layout: layer ``z`` owns the r-strip ``z`` (width ``~r/c``),
subdivided into ``q`` column chunks; piece ``(x, kappa)`` of A (coarse row
block ``x``, chunk ``kappa``) starts at rank ``(x, (kappa - x) mod q, z)``
and shifts along the grid row; piece ``(y, kappa)`` of B starts at rank
``((kappa - y) mod q, y, z)`` and shifts along the grid column.  At phase
``t`` rank ``(x, y, z)`` holds the A and B pieces with
``kappa = (x + y - t) mod q``, so the partial products for the resident S
block are always computable locally.

Unified kernel:

* SDDMM — all-gather S values along the fiber; dense pieces circulate for
  ``q`` phases accumulating this layer's strip of the dot products;
  partials are multiplied by the (gathered) S values and reduce-scattered
  along the fiber back into value chunks.
* SpMMA — all-gather values; the output circulates in A's piece layout
  (accumulating across the grid row); no terminal reduction.
* SpMMB — mirror image of SpMMA with A propagating.

The resident block is held as a :class:`~repro.sparse.coo.SparseBlock`,
so the ``q`` SpMM phases of a call (and every later call) are CSR
products on one cached structure with the gathered values swapped in.

FusedMM (the paper: this family admits *no* communication elision): an
initial value all-gather, the SDDMM round, an all-reduce of the values
(reduce-scatter + all-gather, exactly the paper's description), and the
SpMM round — ``4 sqrt(p/c) + 3(c-1)`` messages and
``nr/sqrt(p) * (4/sqrt(c) + 3 phi (c-1)/sqrt(p))`` words (Table III).
As run, the Cannon path moves ``3 nr/p`` words and three messages less
(``home_hops``): both of the SDDMM round's pieces and the SpMM round's
input pieces are read-only (frozen pool copies of the bound blocks: the
pool accounts the ring's three pieces), so each skips the hop that would
bring it home; the SpMM's output piece, an accumulator, makes all ``q``
shifts.

Sparse communication (``comm="sparse"``): the resident block's structure
is *stationary*, so rank ``(x, y, z)`` only ever reads A at
``unique(S_rows)`` and B at ``unique(S_cols)`` of block ``(x, y)`` — in
every chunk of its layer strip.  Instead of relaying full dense pieces
around the Cannon rings for ``q`` phases, the sparse path fetches exactly
those rows from each chunk's owner with one need-list neighborhood
gather (and pushes back only touched output rows), turning the
``2 nr/sqrt(pc)`` propagation term into
``(|unique rows| + |unique cols|) r (q-1)/(c q)`` words per kernel.  The
fiber value collectives were already sparse (1 word/nnz) and are kept.
The paper gives this family no elision because Cannon *propagates* pieces
instead of holding them; a gathered panel is held, so the need-list
FusedMM hands the SDDMM round's panel of the SpMM's input side (B for
FusedMMA, A for FusedMMB) to the SpMM round: one gather per operand per
fused call plus the output reduction — three exchanges, not four.  A
gathered panel is also held *across* calls, per side, while its source
block is unchanged and nothing has acquired its slot since
(``BufferPool.replica``); kernel outputs are transient, so a kernel call
changes no source block.

Packed buffers: the strip-wide gather targets and partial-output
accumulators are packed to exactly those unique-row unions
(``len(union) x strip_width`` panels from a per-rank buffer pool), and
the resident block's coordinates are rewritten into packed-panel space
once per structure (:meth:`~repro.sparse.coo.SparseBlock.remapped`, with
the CSR caches prebuilt driver-side) so the local kernels run as plain
``spmm_a_block``/``spmm_b_block`` CSR products and coordinate SDDMMs on
compact panels with zero per-call index translation.  Each dense side
has a gather slot (``gather-a`` / ``gather-b``), and a panel held across
calls lives in its slot, so it adds no footprint.  Where three packed
panels fit in the dense path's three pieces for every rank
(``SparsePlan25D.third_slot``) an SpMM accumulates in a third slot,
``spmm-out``, as tall as the taller union: both gathered panels outlive
every kernel, and a FusedMMA / FusedMMB alternation on unchanged
operands posts only its output reductions and its fiber value
collectives.  Above that budget the SpMM's packed output takes its own
side's gather slot (the same shape, read by no SpMM), dropping that
side's stored panel: a rank holds two strip panels, and the next call
gathers that side again.

The Cannon propagation is stated as :class:`~repro.algorithms.base.Lane` s
(A pieces on the grid row, B pieces on the grid column, read-only but
for an SpMM's output lane, the accumulator the kernel mutates) handed to
the shared ``ring_loop``; the packed neighborhood gathers / reductions are the
blocking collectives of :mod:`repro.comm_sparse.collectives`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    TAG_FIBER_AG,
    TAG_FIBER_RS,
    TAG_SHIFT_A,
    TAG_SHIFT_B,
    DistributedAlgorithm,
    Lane,
    concat_allgather,
    frozen,
    region,
    track,
)
from repro.comm_sparse.collectives import (
    sparse_allgatherv_packed,
    sparse_reduce_scatterv_packed,
)
from repro.comm_sparse.planner import (
    SparsePlan25D,
    cached_comm_plans,
    plan_sparse_replicate_25d,
)
from repro.errors import DistributionError
from repro.kernels.sddmm import sddmm_coo
from repro.kernels.spmm import spmm_a_block, spmm_b_block
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator
from repro.runtime.grid import Grid25D
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.partition import block_ranges, partition_coo_2d
from repro.types import Elision, Mode, Phase


@dataclass(frozen=True)
class Plan25DSparse:
    """Immutable layout description for :class:`SparseReplicate25D`."""

    m: int
    n: int
    r: int
    grid: Grid25D
    row_coarse: np.ndarray = field(repr=False)  # S row blocks: block_ranges(m, q)
    col_coarse: np.ndarray = field(repr=False)  # S col blocks: block_ranges(n, q)
    strips: np.ndarray = field(repr=False)  # layer r-strips: block_ranges(r, c)
    chunk_bounds: Tuple[np.ndarray, ...] = field(repr=False, default=())  # per z

    @property
    def p(self) -> int:
        return self.grid.p

    @property
    def c(self) -> int:
        return self.grid.c

    @property
    def q(self) -> int:
        return self.grid.q

    def kappa0(self, x: int, y: int) -> int:
        """Chunk index held by rank ``(x, y, .)`` at phase 0."""
        return (x + y) % self.q

    def chunk_slice(self, z: int, kappa: int) -> slice:
        b = self.chunk_bounds[z]
        return slice(int(b[kappa]), int(b[kappa + 1]))

    def rows_a(self, x: int) -> slice:
        return slice(int(self.row_coarse[x]), int(self.row_coarse[x + 1]))

    def rows_b(self, y: int) -> slice:
        return slice(int(self.col_coarse[y]), int(self.col_coarse[y + 1]))


@dataclass
class Local25DSparse:
    """Rank-local state for :class:`SparseReplicate25D`."""

    x: int
    y: int
    z: int
    S: SparseBlock  # coarse block (x, y): structure replicated over z
    S_vals_chunk: np.ndarray  # this layer's contiguous value chunk
    val_bounds: np.ndarray  # (c+1,) chunk boundaries over the block's nnz
    gidx: np.ndarray  # global positions of the block's nonzeros
    A: np.ndarray  # piece (x, kappa0): coarse rows x, chunk kappa0 of strip z
    B: np.ndarray  # piece (y, kappa0)
    R_chunk: Optional[np.ndarray] = None  # SDDMM output (this layer's chunk)

    # coordinate views under the names the other families' locals use
    @property
    def S_rows(self) -> np.ndarray:
        return self.S.rows

    @property
    def S_cols(self) -> np.ndarray:
        return self.S.cols


@dataclass
class Ctx25DSparse:
    comm: Communicator
    row: Communicator  # vary y (A pieces shift here)
    col: Communicator  # vary x (B pieces shift here)
    fiber: Communicator  # vary z (value collectives here)
    x: int
    y: int
    z: int
    pool: BufferPool = field(default_factory=BufferPool)


class SparseReplicate25D(DistributedAlgorithm):
    """2.5D sparse-replicating algorithm (see module docstring)."""

    name = "2.5d-sparse-replicate"
    elisions = (Elision.NONE,)
    native_variant = {Elision.NONE: "either"}
    supports_sparse_comm = True

    def __init__(self, p: int, c: int) -> None:
        super().__init__(p, c)
        self.grid = Grid25D(p, c)

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    def plan(self, m: int, n: int, r: int) -> Plan25DSparse:
        q, c = self.grid.q, self.c
        strips = block_ranges(r, c)
        chunk_bounds = tuple(
            block_ranges(int(strips[z + 1] - strips[z]), q) + strips[z]
            for z in range(c)
        )
        return Plan25DSparse(
            m=m,
            n=n,
            r=r,
            grid=self.grid,
            row_coarse=block_ranges(m, q),
            col_coarse=block_ranges(n, q),
            strips=strips,
            chunk_bounds=chunk_bounds,
        )

    def distribute_sparse(
        self, plan: Plan25DSparse, S: Optional[CooMatrix]
    ) -> List[Local25DSparse]:
        c = plan.c
        if S is not None and S.shape != (plan.m, plan.n):
            raise DistributionError(f"S shape {S.shape} != ({plan.m}, {plan.n})")
        parts = {}
        if S is not None and S.nnz:
            parts = partition_coo_2d(
                S.rows, S.cols, S.vals, plan.row_coarse, plan.col_coarse
            )
        empty = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            np.empty(0, np.int64),
        )
        placeholder = frozen(np.empty((0, 0)))
        # one structure-caching block per coarse (x, y), shared by its c
        # fiber ranks like the coordinates themselves; its stored values
        # are never read (every kernel passes the gathered ``values=``)
        blocks = {}
        locals_: List[Local25DSparse] = []
        for rank in range(self.p):
            x, y, z = self.grid.coords(rank)
            sr, sc, sv, gi = parts.get((x, y), empty)
            if (x, y) not in blocks:
                ra, rb = plan.rows_a(x), plan.rows_b(y)
                shape = (ra.stop - ra.start, rb.stop - rb.start)
                blocks[x, y] = SparseBlock(sr, sc, frozen(sv), shape)
            vb = block_ranges(len(sr), c)
            locals_.append(
                Local25DSparse(
                    x=x,
                    y=y,
                    z=z,
                    S=blocks[x, y],
                    S_vals_chunk=frozen(sv[int(vb[z]) : int(vb[z + 1])]),
                    val_bounds=vb,
                    gidx=gi,
                    A=placeholder,
                    B=placeholder,
                )
            )
        return locals_

    def piece_index(self, plan: Plan25DSparse, loc: Local25DSparse, side: str):
        """Coarse row block (``x`` for A, ``y`` for B) x the phase-0 column
        chunk of layer strip ``z``."""
        rows = plan.rows_a(loc.x) if side == "a" else plan.rows_b(loc.y)
        return rows, plan.chunk_slice(loc.z, plan.kappa0(loc.x, loc.y))

    def update_values(
        self, plan: Plan25DSparse, locals_: List[Local25DSparse], vals: np.ndarray
    ) -> None:
        for loc in locals_:
            if len(loc.gidx):
                vb = loc.val_bounds
                # gather only this layer's chunk, not the whole replicated block
                chunk = loc.gidx[int(vb[loc.z]) : int(vb[loc.z + 1])]
                # rebound, never written in place: the value replica keys
                # on this object
                loc.S_vals_chunk = frozen(vals[chunk])

    def collect_sddmm(
        self, plan: Plan25DSparse, locals_: List[Local25DSparse], S: CooMatrix
    ) -> CooMatrix:
        vals = np.zeros(S.nnz)
        for loc in locals_:
            if loc.R_chunk is not None and len(loc.gidx):
                sl = slice(int(loc.val_bounds[loc.z]), int(loc.val_bounds[loc.z + 1]))
                vals[loc.gidx[sl]] = loc.R_chunk
        return S.with_values(vals)

    def build_comm_plans(
        self, plan: Plan25DSparse, S: CooMatrix
    ) -> List[SparsePlan25D]:
        return cached_comm_plans(
            "2.5d-sparse-replicate", plan, S, plan_sparse_replicate_25d
        )

    # ------------------------------------------------------------------
    # rank side
    # ------------------------------------------------------------------

    def make_context(self, comm: Communicator) -> Ctx25DSparse:
        row, col, fiber = self.grid.make_comms(comm)
        x, y, z = self.grid.coords(comm.rank)
        return Ctx25DSparse(
            comm=comm, row=row, col=col, fiber=fiber, x=x, y=y, z=z,
            pool=self.pool_for(comm),
        )

    # -- fiber value collectives ------------------------------------------

    def _gather_values(self, ctx: Ctx25DSparse, local: Local25DSparse) -> np.ndarray:
        """All-gather the value chunks along the fiber (1 word/nnz), or
        hand back an earlier dispatch's while the resident value chunk is
        the block it gathered (see ``BufferPool.replica``)."""
        source = local.S_vals_chunk
        return ctx.pool.replica(
            "values", source,
            lambda: concat_allgather(ctx.fiber, source, TAG_FIBER_AG),
        )

    def _reduce_scatter_values(
        self, ctx: Ctx25DSparse, local: Local25DSparse, full: np.ndarray
    ) -> np.ndarray:
        """Reduce-scatter a full-length value array back into chunks."""
        vb = local.val_bounds
        pieces = [full[int(vb[k]) : int(vb[k + 1])] for k in range(self.c)]
        return ctx.fiber.reduce_scatter(pieces, tag=TAG_FIBER_RS)

    @staticmethod
    def _piece_ring(ctx: Ctx25DSparse, side: str) -> Tuple[Communicator, int]:
        """Where a dense side's pieces travel: A's along the grid row, B's
        along the grid column (ring, shift channel)."""
        return (ctx.row, TAG_SHIFT_A) if side == "a" else (ctx.col, TAG_SHIFT_B)

    # -- need-list dense-row exchanges (comm="sparse") ---------------------

    def _gather_panels(
        self, ctx: Ctx25DSparse, local: Local25DSparse, sp: SparsePlan25D, sides: str
    ) -> List[np.ndarray]:
        """Assemble the needed rows of A (``"a"``, along the grid row), of
        B (``"b"``, along the grid column) or of both (``"ab"``) across
        the strip into *packed* panels.

        A panel is ``len(unique(S_rows or S_cols)) x strip_width``: the
        own chunk's needed rows are copied into its column window with
        one ``take``, and every peer's column window is filled
        row-complete by that peer's leg (the need list is identical for
        every chunk of the strip; the plan marks those legs
        ``recv_whole``, so they land by slice), so the pool hands back
        uninitialized panels — no block-tall buffer, no zero fill.

        Each side's panel is its source block's ring replica (see
        ``BufferPool.replica``): while ``local.A`` / ``local.B`` is the
        block an earlier dispatch gathered and nothing has acquired the
        side's slot since, the stored read-only panel comes back and that
        side posts no exchange and copies no own rows.  Every rank of a
        grid row (column) rebinds A (B) with the others and acquires the
        same slots in the same calls, so a ring decides hit or miss as one.
        """
        w0, w1 = sp.my_window
        legs = {
            "a": (sp.gather_a, sp.index_a, local.A),
            "b": (sp.gather_b, sp.index_b, local.B),
        }
        panels = {s: ctx.pool.held_replica(f"gather-{s}", legs[s][2]) for s in sides}
        missing = "".join(s for s in sides if panels[s] is None)
        if missing:
            with region(ctx.comm, f"gather-{missing.upper()}-packed"):
                for side in missing:
                    gather, index, block = legs[side]
                    ring, _ = self._piece_ring(ctx, side)
                    label = f"gather-{side}"
                    panel = ctx.pool.empty(label, (index.size, sp.strip_width))
                    panel[:, w0:w1] = block.take(index.union, axis=0)
                    sparse_allgatherv_packed(ring, gather, index, block, panel)
                    panels[side] = ctx.pool.keep_replica(label, block, panel)
        return [panels[side] for side in sides]

    # -- unified kernel ----------------------------------------------------

    def rank_kernel(
        self,
        ctx: Ctx25DSparse,
        plan: Plan25DSparse,
        local: Local25DSparse,
        mode: Mode,
        values_full: Optional[np.ndarray] = None,
        sparse_plan: Optional[SparsePlan25D] = None,
    ) -> None:
        """One unified kernel call.

        ``values_full`` hands pre-gathered values to an SpMM (what the
        all-reduce between the two rounds of a FusedMM produces).  With
        ``sparse_plan`` the dense Cannon propagation is replaced by
        need-list neighborhood exchanges (see module docstring).
        """
        if mode == Mode.SDDMM:
            partial_vals, _ = self._sddmm_round(ctx, plan, local, sparse_plan)
            with track(ctx.comm, Phase.REPLICATION):
                local.R_chunk = self._reduce_scatter_values(ctx, local, partial_vals)
            return
        with track(ctx.comm, Phase.REPLICATION):
            if values_full is None:
                values_full = self._gather_values(ctx, local)
        self._spmm_round(ctx, plan, local, mode, values_full, sparse_plan)

    def _spmm_round(
        self,
        ctx: Ctx25DSparse,
        plan: Plan25DSparse,
        local: Local25DSparse,
        mode: Mode,
        values_full: np.ndarray,
        sparse_plan: Optional[SparsePlan25D] = None,
        held: Optional[np.ndarray] = None,
    ) -> None:
        """The SpMM propagation round on already-gathered values.

        ``held`` is the packed panel of the *input* side when the caller
        still has it from an SDDMM round of the same call (FusedMM): its
        rows cannot have changed, so they are not fetched again.
        """
        # SpMMA accumulates in A's layout out of B's pieces; SpMMB mirrors it
        out, inp = ("a", "b") if mode == Mode.SPMM_A else ("b", "a")
        kernel = spmm_a_block if mode == Mode.SPMM_A else spmm_b_block
        in_home = local.B if out == "a" else local.A
        out_shape = self.piece_shape(plan, local, out)
        out_ring, out_tag = self._piece_ring(ctx, out)
        prof = ctx.comm.profile

        if sparse_plan is not None:
            # need-list propagation over packed panels: one gather of the
            # stationary operand's needed rows into a packed strip panel
            # (unless the caller holds it), one local CSR product through
            # the structure-cached packed block (its coordinates already
            # live in packed-panel space), then a need-list reduction of
            # the packed partial-output panel back to the chunk owners.
            # Every row of the packed output panel is a touched row, so
            # the reduction ships it densely — the packing *is* the need
            # list.  Where three panels fit the dense pieces
            # (``third_slot``) the output panel gets a slot of its own, as
            # tall as the taller side's, and both gathered panels outlive
            # the call; above that budget it takes its own side's slot.
            sp = sparse_plan
            w0, w1 = sp.my_window
            index, reduce = (
                (sp.index_a, sp.reduce_a) if out == "a" else (sp.index_b, sp.reduce_b)
            )
            in_p = held
            if in_p is None:
                with track(ctx.comm, Phase.PROPAGATION):
                    (in_p,) = self._gather_panels(ctx, local, sp, inp)
            slot, rows = (
                ("spmm-out", max(sp.index_a.size, sp.index_b.size))
                if sp.third_slot
                else (f"gather-{out}", index.size)
            )
            out_p = ctx.pool.empty(slot, (rows, sp.strip_width))[: index.size]
            out_p.fill(0.0)
            with track(ctx.comm, Phase.COMPUTATION):
                kernel(sp.block_packed, in_p, out_p, values=values_full, profile=prof)
            with track(ctx.comm, Phase.PROPAGATION), region(
                ctx.comm, f"reduce-{out.upper()}-packed"
            ):
                result = np.zeros(out_shape)
                result[index.union] = out_p[:, w0:w1]
                sparse_reduce_scatterv_packed(out_ring, reduce, index, out_p, result)
        else:
            # Cannon propagation: the input pieces circulate read-only, the
            # output circulates as the accumulator the kernel mutates
            def compute(_t, in_cur, out_cur):
                kernel(local.S, in_cur, out_cur, values=values_full, profile=prof)

            in_ring, in_tag = self._piece_ring(ctx, inp)
            _, result = self.ring_loop(
                ctx.comm, plan.q,
                [
                    Lane(
                        in_ring, frozen(ctx.pool.take_like(f"piece-{inp}", in_home)),
                        in_tag, displacement=1,
                    ),
                    Lane(
                        out_ring, ctx.pool.zeros("piece-out", out_shape),
                        out_tag, displacement=1,
                    ),
                ],
                compute,
            )
        if out == "a":
            local.A = result
        else:
            local.B = result

    def _sddmm_round(
        self,
        ctx: Ctx25DSparse,
        plan: Plan25DSparse,
        local: Local25DSparse,
        sparse_plan: Optional[SparsePlan25D] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """The SDDMM propagation round.

        Returns the *full-length* partial R values of this layer's strip,
        already multiplied by the gathered S values (the caller reduces
        them along the fiber), and the packed panels the need-list path
        gathered, by side (empty on the Cannon path) — valid until the
        pool slots are acquired again, i.e. for the rest of this call.
        """
        prof = ctx.comm.profile
        with track(ctx.comm, Phase.REPLICATION):
            s_vals = self._gather_values(ctx, local)

        acc = np.zeros(len(local.S_rows))
        panels: Dict[str, np.ndarray] = {}
        if sparse_plan is not None:
            # gather every needed row across the strip once into packed
            # panels and take the full-width dots in a single local kernel
            # call, addressed through the structure-cached packed block
            with track(ctx.comm, Phase.PROPAGATION):
                a_p, b_p = self._gather_panels(ctx, local, sparse_plan, "ab")
            panels = {"a": a_p, "b": b_p}
            with track(ctx.comm, Phase.COMPUTATION):
                if len(local.S_rows):
                    blk = sparse_plan.block_packed
                    sddmm_coo(
                        a_p, b_p, blk.rows, blk.cols,
                        out=acc, accumulate=True, profile=prof,
                    )
        else:
            # both circulating pieces are read-only inputs here (the
            # accumulator is rank-local)
            def compute(_t, a_cur, b_cur):
                if len(local.S_rows):
                    sddmm_coo(
                        a_cur, b_cur, local.S_rows, local.S_cols,
                        out=acc, accumulate=True, profile=prof,
                    )

            self.ring_loop(
                ctx.comm, plan.q,
                [
                    Lane(
                        ctx.row, frozen(ctx.pool.take_like("piece-a", local.A)),
                        TAG_SHIFT_A, displacement=1,
                    ),
                    Lane(
                        ctx.col, frozen(ctx.pool.take_like("piece-b", local.B)),
                        TAG_SHIFT_B, displacement=1,
                    ),
                ],
                compute,
            )

        with track(ctx.comm, Phase.COMPUTATION):
            partial_vals = acc * s_vals
            prof.add_flops(len(acc))
        return partial_vals, panels

    # -- FusedMM -----------------------------------------------------------

    def _rank_fusedmm(
        self,
        ctx: Ctx25DSparse,
        plan: Plan25DSparse,
        local: Local25DSparse,
        spmm_mode: Mode,
        sparse_plan: Optional[SparsePlan25D] = None,
    ) -> None:
        """FusedMM per the paper: value all-gather, SDDMM round, value
        all-reduce (reduce-scatter + all-gather), SpMM round.  On the
        need-list path the SDDMM round's packed panel of the SpMM's input
        side (B for FusedMMA, A for FusedMMB) feeds the SpMM round — each
        dense operand is gathered once per call."""
        partial_vals, panels = self._sddmm_round(ctx, plan, local, sparse_plan)
        with track(ctx.comm, Phase.REPLICATION):
            local.R_chunk = self._reduce_scatter_values(ctx, local, partial_vals)
            r_full = concat_allgather(ctx.fiber, local.R_chunk, TAG_FIBER_AG)
        inp = "b" if spmm_mode == Mode.SPMM_A else "a"
        self._spmm_round(
            ctx, plan, local, spmm_mode, r_full, sparse_plan, held=panels.get(inp)
        )

    def rank_fusedmm_none_a(
        self, ctx: Ctx25DSparse, plan: Plan25DSparse, local: Local25DSparse,
        sparse_plan: Optional[SparsePlan25D] = None,
    ) -> None:
        """FusedMMA (no elision is the only option for this family)."""
        self._rank_fusedmm(ctx, plan, local, Mode.SPMM_A, sparse_plan=sparse_plan)

    def rank_fusedmm_none_b(
        self, ctx: Ctx25DSparse, plan: Plan25DSparse, local: Local25DSparse,
        sparse_plan: Optional[SparsePlan25D] = None,
    ) -> None:
        """FusedMMB."""
        self._rank_fusedmm(ctx, plan, local, Mode.SPMM_B, sparse_plan=sparse_plan)
