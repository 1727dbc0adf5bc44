"""2.5D dense-replicating algorithm (paper Algorithm 2).

Grid ``q x q x c`` with ``q = sqrt(p/c)``; rank ``(x, y, z)``.  Each layer
(fixed ``z``) runs a Cannon-style 2D algorithm; the fiber replicates the
m-side dense matrix A.

Input distribution (paper Table II):

* ``A`` — fine row block ``x*c + z`` (of ``q*c`` blocks over m), column
  strip ``y`` (of ``q`` strips over r).
* ``B`` — fine row block ``j`` (over n), strip ``y``; block ``j`` homes at
  rank ``(j/c, y, j%c)``.
* ``S`` — row block ``x`` (of ``q`` coarse blocks), fine column block ``j``
  (of ``q*c``); block ``(x, j)`` homes at rank ``(x, j/c, j%c)``.

Cannon skew: the paper's Algorithm 2 performs an initial cyclic shift of S
and B "to correctly index blocks", and notes applications avoid it by
filling buffers appropriately.  We do exactly that: ``distribute`` places
blocks directly at their skewed positions, so that at phase ``t`` rank
``(x, y, z)`` holds S block ``(x, sigma*c+z)`` and B block ``sigma*c+z``
with ``sigma = (x + y + t) mod q``.  Each phase shifts S along the grid
row and B along the grid column; after ``q`` phases everything is back at
its (skewed) start.

Unified kernel: all-gather A along the fiber into the coarse panel ``T``
(input) or reduce-scatter ``T`` at the end (output).  SDDMM accumulates
partial dots (over the r-strips) in the circulating value array and
multiplies by the resident S values on return — its round *leads* (S and
B shift, then the kernel runs), so the home strip is added last; SpMMB
accumulates into the circulating B buffer (ends complete, no reduction).

FusedMM supports *no elision* and *replication reuse* (one all-gather for
both rounds; native FusedMMB), at the Table III cost
``nr/sqrt(pc) * (6 phi + 2 + (c^1.5 - sqrt(c))/sqrt(p))`` with
``4 sqrt(p/c) + (c-1)`` messages — less, for a *cold* call, the hops
home of the lanes a round only reads (``home_hops``): the B block outside
SpMMB (``nr/p`` words) and an SpMM's chunk triple (``3 phi nr/p``) make
``q − 1`` shifts, one message each less, so FusedMMB moves
``(1 + 3 phi) nr/p`` words and two messages less, an un-elided FusedMMA
(its SpMMA reads B too) ``(2 + 3 phi) nr/p`` and three.  A warm call of a
session moves the S chunks' values alone: the grid row already carried
their coordinates, which each rank kept (``CarriedCoords`` on its
context).  The values also make ``q − 1`` shifts per round, not ``q``:
an SpMM round's read-only values stop one hop short of home, and an
SDDMM round's zero accumulator starts one hop downstream.  So ``6 phi``
becomes ``2 phi (q − 1) / q``; the B block keeps its ``q − 1`` shifts
as an input and ``q`` as the SpMMB output.
Local kernel fusion is impossible (dense operands are split along r),
as the paper notes.

Propagation is stated as :class:`~repro.algorithms.base.Lane` s — the S
chunk on the grid row (``chunk_lanes``: its values accumulate in the
SDDMM rounds, read-only in the SpMM rounds) and the B block on the grid
column (the output accumulator in the SpMMB rounds, read-only otherwise)
— handed to the shared ``ring_loop``, which owns the schedule.  The S
chunk leaves home in the mode's travel order (``home_chunk``:
column-major for SpMMB, cached per resident structure), so a phase runs
the local kernel and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.algorithms.base import (
    TAG_FIBER_AG,
    TAG_FIBER_RS,
    TAG_SHIFT_B,
    CarriedCoords,
    DistributedAlgorithm,
    Lane,
    concat_allgather,
    frozen,
    reduce_scatter_rows,
    region,
    track,
)
from repro.errors import DistributionError
from repro.kernels.sddmm import sddmm_coo
from repro.kernels.spmm import spmm_scatter
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator
from repro.runtime.grid import Grid25D
from repro.sparse.coo import CooMatrix
from repro.sparse.partition import (
    block_of,
    block_ranges,
    group_offsets,
    partition_by_owner,
)
from repro.types import Elision, Mode, Phase


@dataclass(frozen=True)
class Plan25DDense:
    """Immutable layout description for :class:`DenseReplicate25D`."""

    m: int
    n: int
    r: int
    grid: Grid25D
    row_fine: np.ndarray = field(repr=False)  # A row blocks: block_ranges(m, q*c)
    col_fine: np.ndarray = field(repr=False)  # B row blocks: block_ranges(n, q*c)
    row_coarse: np.ndarray = field(repr=False)  # S row blocks: grouped over c
    strips: np.ndarray = field(repr=False)  # r strips: block_ranges(r, q)

    @property
    def p(self) -> int:
        return self.grid.p

    @property
    def c(self) -> int:
        return self.grid.c

    @property
    def q(self) -> int:
        return self.grid.q

    def strip_slice(self, y: int) -> slice:
        return slice(int(self.strips[y]), int(self.strips[y + 1]))

    def strip_width(self, y: int) -> int:
        return int(self.strips[y + 1] - self.strips[y])

    def fine_rows_a(self, f: int) -> slice:
        return slice(int(self.row_fine[f]), int(self.row_fine[f + 1]))

    def fine_rows_b(self, f: int) -> slice:
        return slice(int(self.col_fine[f]), int(self.col_fine[f + 1]))

    def sigma(self, x: int, y: int, t: int) -> int:
        """Coarse column index processed by rank ``(x, y, .)`` at phase t."""
        return (x + y + t) % self.q


@dataclass
class Local25DDense:
    """Rank-local state for :class:`DenseReplicate25D`."""

    x: int
    y: int
    z: int
    A: np.ndarray  # fine block x*c+z, strip y
    B: np.ndarray  # skewed start: fine block sigma0*c+z, strip y
    S_rows: np.ndarray  # skewed S block (x, sigma0*c+z): rows local to coarse x
    S_cols: np.ndarray  # cols local to fine block sigma0*c+z
    S_vals: np.ndarray
    gidx: np.ndarray
    R: Optional[np.ndarray] = None
    #: the home chunk as each mode's kernel consumes it (``home_chunk``)
    travel: dict = field(default_factory=dict, repr=False)


@dataclass
class Ctx25D:
    comm: Communicator
    row: Communicator  # vary y (S shifts here)
    col: Communicator  # vary x (B shifts here)
    fiber: Communicator  # vary z (replication here)
    x: int
    y: int
    z: int
    pool: BufferPool = field(default_factory=BufferPool)  # the replica memo
    #: the coordinates the grid row carried (``chunk_lanes``)
    carried: CarriedCoords = field(default_factory=CarriedCoords)


class DenseReplicate25D(DistributedAlgorithm):
    """Paper Algorithm 2 (see module docstring)."""

    name = "2.5d-dense-replicate"
    elisions = (Elision.NONE, Elision.REPLICATION_REUSE)
    native_variant = {Elision.NONE: "either", Elision.REPLICATION_REUSE: "b"}

    def __init__(self, p: int, c: int) -> None:
        super().__init__(p, c)
        self.grid = Grid25D(p, c)

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    def plan(self, m: int, n: int, r: int) -> Plan25DDense:
        q, c = self.grid.q, self.c
        row_fine = block_ranges(m, q * c)
        return Plan25DDense(
            m=m,
            n=n,
            r=r,
            grid=self.grid,
            row_fine=row_fine,
            col_fine=block_ranges(n, q * c),
            row_coarse=group_offsets(row_fine, c),
            strips=block_ranges(r, q),
        )

    def distribute_sparse(
        self, plan: Plan25DDense, S: Optional[CooMatrix]
    ) -> List[Local25DDense]:
        q, c = plan.q, plan.c
        if S is not None and S.shape != (plan.m, plan.n):
            raise DistributionError(f"S shape {S.shape} != ({plan.m}, {plan.n})")
        parts = {}
        if S is not None and S.nnz:
            bx = block_of(S.rows, plan.row_coarse)
            bj = block_of(S.cols, plan.col_fine)
            # home (x, y'=j/c, z=j%c); skewed start y = (y' - x) mod q
            y_home = bj // c
            z = bj % c
            y_skew = (y_home - bx) % q
            owner = (bx * q + y_skew) * c + z
            parts = partition_by_owner(S.rows, S.cols, S.vals, owner, self.p)
        locals_: List[Local25DDense] = []
        empty = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            np.empty(0, np.int64),
        )
        placeholder = frozen(np.empty((0, 0)))
        for rank in range(self.p):
            x, y, z = self.grid.coords(rank)
            sigma0 = plan.sigma(x, y, 0)
            fb = sigma0 * c + z
            sr, sc, sv, gi = parts.get(rank, empty)
            locals_.append(
                Local25DDense(
                    x=x,
                    y=y,
                    z=z,
                    A=placeholder,
                    B=placeholder,
                    S_rows=sr - plan.row_coarse[x] if len(sr) else sr,
                    S_cols=sc - plan.col_fine[fb] if len(sc) else sc,
                    S_vals=frozen(sv),
                    gidx=gi,
                )
            )
        return locals_

    def piece_index(self, plan: Plan25DDense, loc: Local25DDense, side: str):
        """Fine row block (``x*c + z`` of A; the skewed start
        ``sigma0*c + z`` of B) x r-strip ``y``."""
        if side == "a":
            rows = plan.fine_rows_a(loc.x * plan.c + loc.z)
        else:
            rows = plan.fine_rows_b(plan.sigma(loc.x, loc.y, 0) * plan.c + loc.z)
        return rows, plan.strip_slice(loc.y)

    def update_values(
        self, plan: Plan25DDense, locals_: List[Local25DDense], vals: np.ndarray
    ) -> None:
        for loc in locals_:
            if len(loc.gidx):
                loc.S_vals = frozen(vals[loc.gidx])

    def collect_sddmm(
        self, plan: Plan25DDense, locals_: List[Local25DDense], S: CooMatrix
    ) -> CooMatrix:
        vals = np.zeros(S.nnz)
        for loc in locals_:
            if loc.R is not None and len(loc.gidx):
                vals[loc.gidx] = loc.R
        return S.with_values(vals)

    # ------------------------------------------------------------------
    # rank side
    # ------------------------------------------------------------------

    def make_context(self, comm: Communicator) -> Ctx25D:
        row, col, fiber = self.grid.make_comms(comm)
        x, y, z = self.grid.coords(comm.rank)
        return Ctx25D(
            comm=comm, row=row, col=col, fiber=fiber, x=x, y=y, z=z,
            pool=self.pool_for(comm),
        )

    def _fiber_sizes_a(self, plan: Plan25DDense, x: int) -> List[int]:
        return [
            int(plan.row_fine[x * plan.c + z + 1] - plan.row_fine[x * plan.c + z])
            for z in range(plan.c)
        ]

    def replicate(
        self, ctx: Ctx25D, plan: Plan25DDense, local: Local25DDense
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
        ctx: Ctx25D,
        plan: Plan25DDense,
        local: Local25DDense,
        mode: Mode,
        use_r_values: bool = False,
        use_values: bool = True,
        replicated: Optional[np.ndarray] = None,
    ) -> None:
        """One unified kernel call (paper Algorithm 2).

        ``use_values=False`` computes a pattern-only SDDMM (plain dots).
        ``replicated`` hands in an already-gathered coarse A panel
        (replication reuse shares one gather between its two rounds).
        """
        prof = ctx.comm.profile
        x, y = ctx.x, ctx.y
        coarse_rows = int(plan.row_coarse[x + 1] - plan.row_coarse[x])

        T = replicated
        if T is None:
            if mode in (Mode.SDDMM, Mode.SPMM_B):
                T = self.replicate(ctx, plan, local)
            else:
                with track(ctx.comm, Phase.REPLICATION):
                    T = np.zeros((coarse_rows, plan.strip_width(y)))

        # block-local coordinates are kernel space already; SpMMB travels
        # column-major
        rows0, cols0, perm = self.home_chunk(
            local.travel, "block", lambda: (local.S_rows, local.S_cols), mode
        )
        if mode == Mode.SDDMM:
            vals0 = np.zeros(len(local.S_rows))
        else:
            vals0 = local.R if use_r_values else local.S_vals
            if perm is not None:
                vals0 = frozen(vals0[perm])
        B_start = local.B
        if mode == Mode.SPMM_B:
            B_start = np.zeros(self.piece_shape(plan, local, "b"))

        def compute(_t, rows, cols, vals, B_cur):
            if len(rows):
                if mode == Mode.SDDMM:
                    sddmm_coo(
                        T, B_cur, rows, cols, out=vals, accumulate=True,
                        profile=prof,
                    )
                elif mode == Mode.SPMM_A:
                    spmm_scatter(rows, cols, vals, B_cur, T, profile=prof)
                else:  # SPMM_B
                    spmm_scatter(cols, rows, vals, T, B_cur, profile=prof)

        # q Cannon phases: the S chunk moves left along the grid row (its
        # values accumulate in the SDDMM), B up along the grid column (as
        # the output accumulator in the SpMMB); an SDDMM round leads with
        # both lanes, so S/B pairs stay matched and the home strip is last
        _, _, dots, B_end = self.ring_loop(
            ctx.comm, plan.q,
            [
                *self.chunk_lanes(
                    ctx.row, rows0, cols0, vals0,
                    carried=ctx.carried, key=("block", mode),
                ),
                Lane(ctx.col, B_start, TAG_SHIFT_B),
            ],
            compute,
            leading=mode == Mode.SDDMM,
        )

        if mode == Mode.SDDMM:
            # home after q shifts
            local.R = frozen(dots * local.S_vals if use_values else dots)
        elif mode == Mode.SPMM_A:
            with track(ctx.comm, Phase.REPLICATION), region(
                ctx.comm, "reduce-scatter-A"
            ):
                local.A = reduce_scatter_rows(
                    ctx.fiber, T, self._fiber_sizes_a(plan, x), TAG_FIBER_RS
                )
        else:
            # the accumulated output, back at its skewed start and read-only
            # as a bound block is: a later round may circulate it read-only
            local.B = frozen(B_end)
