"""Need-list planners: sparse-matrix structure -> per-rank CommPlans.

Given an algorithm's layout plan and the global sparse matrix, these
planners compute — driver side, like ``distribute`` — exactly which dense
rows each rank must exchange with each neighbor, because some resident
nonzero touches them:

* **1.5D sparse-shift** (``plan_sparse_shift_15d``): rank ``(u, v)``'s
  gathered panel ``T`` is only ever indexed at the union of the S rows of
  *layer* ``v`` (every chunk of the layer circulates through the rank),
  so the fiber all-gather need list from peer ``(u, w)`` is
  ``rows(layer v) ∩ rows_owned(w)`` — and the SpMMA output reduction is
  the exact mirror exchange.
* **2.5D sparse-replicate** (``plan_sparse_replicate_25d``): rank
  ``(x, y, z)`` reads A at ``unique(S_rows)`` and B at ``unique(S_cols)``
  of its resident coarse block in *every* chunk of its layer strip, so
  instead of relaying full dense pieces around the Cannon ring it fetches
  just those rows from each chunk's owner (and pushes back only the
  output rows it touched).

Each exchange is one :class:`CommPlan`, built in the coordinates its
collective runs in: the rows a rank receives (or, reducing, sends back)
are positions in its packed panel, the union of what it needs.

Plans are cached by sparse-structure fingerprint so repeated kernel
invocations on the same matrix (ALS sweeps, GAT layers, the paper's
"5 FusedMM calls") pay the planning cost once — the communication-layer
analogue of the paper's amortized CSR preprocessing.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.comm_sparse.plan import CommPlan, PackedIndex, PeerExchange
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.partition import block_of, partition_coo_2d

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _touched(index: np.ndarray, extent: int) -> np.ndarray:
    """``np.unique(index)`` for indices in ``[0, extent)``, by counting."""
    return np.flatnonzero(np.bincount(index, minlength=extent))


# ----------------------------------------------------------------------
# per-rank plan bundles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SparsePlan15D:
    """Need-list plans for one rank of the 1.5D sparse-shifting layout,
    computed once per sparsity structure:

    * ``index`` — the sorted union of rows this rank's layer touches plus
      the cached global->packed remap (shared by every rank of the layer);
    * ``gather`` / ``reduce`` — the fiber exchanges in packed-panel
      coordinates: a gather leg receives into packed positions of
      ``index`` and sends local-panel rows, the reduction is its mirror;
    * ``own_local``/``own_packed`` — positions of the locally-owned union
      rows in the local panel and in the packed panel respectively, so
      seeding a packed gather (or draining a packed reduction) is a single
      fancy-indexed copy.
    """

    gather: CommPlan  # fiber all-gather of the dense A panel into T
    reduce: CommPlan  # fiber reduction of the SpMMA output panel (mirror)
    index: PackedIndex  # union of the layer's touched rows over m
    own_local: np.ndarray  # local-panel rows of owned union rows
    own_packed: np.ndarray  # packed positions of those same rows

    @property
    def kernel_recv_words(self) -> Dict[str, int]:
        """Predicted per-kernel replication words received, by mode."""
        return {
            "sddmm": self.gather.recv_words(),
            "spmm_a": self.reduce.recv_words(),
            "spmm_b": self.gather.recv_words(),
        }


@dataclass(frozen=True)
class SparsePlan25D:
    """Need-list plans for one rank of the 2.5D sparse-replicating layout.

    ``strip_width`` is the full width of this layer's r-strip and
    ``my_window`` the column window (relative to the strip) of the chunk
    this rank owns — the kernels assemble gathered rows into a
    strip-wide buffer and slice their own chunk back out of it.

    Every gather leg receives the whole packed panel of its side
    (``arange(index.size)`` in the sender's column window, flagged
    ``recv_whole``) and sends rows of the sender's resident piece; each
    reduction is its gather reversed, so its sends are whole.
    """

    gather_a: CommPlan  # row-comm gather of needed A rows across chunks
    gather_b: CommPlan  # col-comm gather of needed B rows across chunks
    reduce_a: CommPlan  # row-comm reduction of touched SpMMA output rows
    reduce_b: CommPlan  # col-comm reduction of touched SpMMB output rows
    strip_width: int
    my_window: Tuple[int, int]
    index_a: PackedIndex  # unique S rows of the resident block
    index_b: PackedIndex  # unique S cols of the resident block
    #: the resident block's coordinates rewritten into packed-panel space
    #: (rows index a ``len(index_a.union)``-tall A panel, cols a
    #: ``len(index_b.union)``-tall B panel), with CSR structure prebuilt
    #: driver-side so rank threads only read the caches
    block_packed: SparseBlock
    #: an SpMM accumulates in a third panel slot (``"spmm-out"``, as tall
    #: as the taller union) instead of its output side's gather slot, so
    #: both gathered panels outlive every kernel; decided for all ranks
    #: together by :func:`plan_sparse_replicate_25d`
    third_slot: bool

    @property
    def kernel_recv_words(self) -> Dict[str, int]:
        """Predicted per-kernel propagation words received, by mode."""
        return {
            "sddmm": self.gather_a.recv_words() + self.gather_b.recv_words(),
            "spmm_a": self.gather_b.recv_words() + self.reduce_a.recv_words(),
            "spmm_b": self.gather_a.recv_words() + self.reduce_b.recv_words(),
        }


# ----------------------------------------------------------------------
# 1.5D sparse-shift
# ----------------------------------------------------------------------


def plan_sparse_shift_15d(plan, S: CooMatrix) -> List[SparsePlan15D]:
    """Build per-rank fiber exchange plans for the 1.5D sparse layout.

    ``plan`` is a :class:`~repro.algorithms.sparse_shift_15d.Plan15DSparse`
    (duck-typed to avoid an import cycle with the algorithms package).
    """
    grid = plan.grid
    p, c = grid.p, grid.c
    rows_of = plan.rows_a_of_fiber  # sorted global rows owned per fiber coord

    # rows each *layer* touches: union of S rows over the layer's chunks
    if S.nnz:
        layer_v = block_of(S.cols, plan.col_fine) % c
        need = [_touched(S.rows[layer_v == v], plan.m) for v in range(c)]
    else:
        need = [_EMPTY] * c

    # packed index per *layer*: the union need[v] and its global->packed
    # remap are identical for every rank of layer v, so build them once
    # and share the (m-long) lookup across the layer's p/c plan bundles.
    indexes = [PackedIndex.from_union(need[v], plan.m) for v in range(c)]

    # the rows layer v needs from fiber coordinate w's panel leave w's
    # panel at local[w][v] and land at packed[v][w] of layer v's panel
    # (positions raise on a row outside the union)
    packed = [[_EMPTY] * c for _ in range(c)]
    local = [[_EMPTY] * c for _ in range(c)]
    for v in range(c):
        for w in range(c):
            if v != w:
                rows = np.intersect1d(need[v], rows_of[w], assume_unique=True)
                packed[v][w] = indexes[v].positions(rows)
                local[w][v] = np.searchsorted(rows_of[w], rows)
    own_positions = []
    for v in range(c):
        pos = indexes[v].lookup[rows_of[v]]
        own_local = np.flatnonzero(pos >= 0).astype(np.int64)
        own_positions.append((own_local, pos[own_local]))

    plans: List[SparsePlan15D] = []
    for rank in range(p):
        u, v = grid.coords(rank)
        sw = plan.strip_width(u)
        peers = tuple(
            PeerExchange(
                peer=w,
                send_rows=local[v][w],
                recv_rows=packed[v][w],
                send_width=sw,
                recv_width=sw,
                # sorted positions of a subset of the union: as tall as the
                # union, they are the whole panel in panel order
                recv_whole=len(packed[v][w]) == indexes[v].size,
            )
            for w in range(c)
            if w != v
        )
        gather = CommPlan(key="15d/fiber-gather", size=c, rank=v, peers=peers)
        own_local, own_packed = own_positions[v]
        plans.append(
            SparsePlan15D(
                gather=gather,
                reduce=gather.reversed("15d/fiber-reduce"),
                index=indexes[v],
                own_local=own_local,
                own_packed=own_packed,
            )
        )
    return plans


# ----------------------------------------------------------------------
# 2.5D sparse-replicate
# ----------------------------------------------------------------------


def plan_sparse_replicate_25d(plan, S: CooMatrix) -> List[SparsePlan25D]:
    """Build per-rank row/col exchange plans for the 2.5D sparse layout.

    ``plan`` is a :class:`~repro.algorithms.sparse_repl_25d.Plan25DSparse`.
    The need lists are identical across the fiber (``z``) because block
    coordinates are replicated; only chunk windows differ per layer.

    ``third_slot`` holds on every rank or on none — a grid row (column)
    must decide hit or miss on its panels as one — and it holds iff every
    rank's three packed panels (``gather-a``, ``gather-b`` and an
    ``spmm-out`` as tall as the taller union, all strip-wide) fit in the
    dense path's three chunk-wide pieces (``piece-a``, ``piece-b`` and a
    ``piece-out`` as tall as the taller block).  Above that budget an
    SpMM's output takes its own side's gather slot.
    """
    grid = plan.grid
    p, c, q = grid.p, grid.c, grid.q

    u_rows: Dict[Tuple[int, int], np.ndarray] = {}
    u_cols: Dict[Tuple[int, int], np.ndarray] = {}
    parts: Dict[Tuple[int, int], tuple] = {}
    if S.nnz:
        parts = partition_coo_2d(
            S.rows, S.cols, S.vals, plan.row_coarse, plan.col_coarse
        )
        heights, widths = np.diff(plan.row_coarse), np.diff(plan.col_coarse)
        for (x, y), (br, bc, _, _) in parts.items():
            u_rows[x, y] = _touched(br, heights[x])
            u_cols[x, y] = _touched(bc, widths[y])

    # packed indexes + coordinate-remapped block, shared across the fiber
    # (block coordinates are replicated over z, so all c fiber ranks of a
    # block reuse ONE remap and ONE prebuilt packed CSR structure)
    packed: Dict[Tuple[int, int], Tuple[PackedIndex, PackedIndex, SparseBlock]] = {}

    def packed_of(x: int, y: int) -> Tuple[PackedIndex, PackedIndex, SparseBlock]:
        entry = packed.get((x, y))
        if entry is None:
            mb = int(plan.row_coarse[x + 1] - plan.row_coarse[x])
            nb = int(plan.col_coarse[y + 1] - plan.col_coarse[y])
            br, bc, bv, _ = parts.get((x, y), (_EMPTY, _EMPTY, _EMPTY_F, _EMPTY))
            ia = PackedIndex.from_union(u_rows.get((x, y), _EMPTY), mb)
            ib = PackedIndex.from_union(u_cols.get((x, y), _EMPTY), nb)
            base = SparseBlock(br, bc, bv, (mb, nb))
            blk = base.remapped(
                "packed-25d", ia.lookup, ib.lookup, (ia.size, ib.size), prebuild=True
            )
            entry = (ia, ib, blk)
            packed[(x, y)] = entry
        return entry

    bundles: List[dict] = []
    fits = True
    for rank in range(p):
        x, y, z = grid.coords(rank)
        strip0 = int(plan.strips[z])
        sw = int(plan.strips[z + 1]) - strip0
        cb = plan.chunk_bounds[z]

        def window(kappa: int) -> Tuple[int, int]:
            return (int(cb[kappa]) - strip0, int(cb[kappa + 1]) - strip0)

        my_w = window(plan.kappa0(x, y))
        my_width = my_w[1] - my_w[0]
        # the block's need list IS its packed panel: every leg fills the
        # whole panel, in the sender's column window
        index_a, index_b, block_packed = packed_of(x, y)
        panel_a, panel_b = np.arange(index_a.size), np.arange(index_b.size)

        peers_a = []
        for yp in range(q):
            if yp == y:
                continue
            w0, w1 = window(plan.kappa0(x, yp))
            peers_a.append(
                PeerExchange(
                    peer=yp,
                    send_rows=u_rows.get((x, yp), _EMPTY),
                    recv_rows=panel_a,
                    send_width=my_width,
                    recv_width=w1 - w0,
                    recv_cols=(w0, w1),
                    recv_whole=True,
                )
            )
        gather_a = CommPlan(
            key="25d/row-gather-a", size=q, rank=y, peers=tuple(peers_a)
        )

        peers_b = []
        for xp in range(q):
            if xp == x:
                continue
            w0, w1 = window(plan.kappa0(xp, y))
            peers_b.append(
                PeerExchange(
                    peer=xp,
                    send_rows=u_cols.get((xp, y), _EMPTY),
                    recv_rows=panel_b,
                    send_width=my_width,
                    recv_width=w1 - w0,
                    recv_cols=(w0, w1),
                    recv_whole=True,
                )
            )
        gather_b = CommPlan(
            key="25d/col-gather-b", size=q, rank=x, peers=tuple(peers_b)
        )

        ua, ub = index_a.size, index_b.size
        ha = int(plan.row_coarse[x + 1] - plan.row_coarse[x])
        hb = int(plan.col_coarse[y + 1] - plan.col_coarse[y])
        fits &= (ua + ub + max(ua, ub)) * sw <= (ha + hb + max(ha, hb)) * my_width
        bundles.append(
            dict(
                gather_a=gather_a,
                gather_b=gather_b,
                reduce_a=gather_a.reversed("25d/row-reduce-a"),
                reduce_b=gather_b.reversed("25d/col-reduce-b"),
                strip_width=sw,
                my_window=my_w,
                index_a=index_a,
                index_b=index_b,
                block_packed=block_packed,
            )
        )
    return [SparsePlan25D(**fields, third_slot=fits) for fields in bundles]


# ----------------------------------------------------------------------
# plan cache (amortization across repeated kernel invocations)
# ----------------------------------------------------------------------

_CACHE: "OrderedDict[tuple, list]" = OrderedDict()
_CACHE_CAPACITY = 16
_CACHE_STATS = {"hits": 0, "misses": 0}


def _fingerprint(S: CooMatrix) -> tuple:
    return (
        S.nrows,
        S.ncols,
        S.nnz,
        hashlib.sha1(S.rows.tobytes()).hexdigest(),
        hashlib.sha1(S.cols.tobytes()).hexdigest(),
    )


def cached_comm_plans(family: str, plan, S: CooMatrix, builder: Callable) -> list:
    """Memoized ``builder(plan, S)`` keyed by layout + sparsity structure.

    Values are irrelevant to need lists, so two matrices sharing a
    structure (e.g. an SDDMM output reusing its input's pattern) share
    one plan set.
    """
    key = (family, plan.m, plan.n, plan.r, plan.grid.p, plan.grid.c) + _fingerprint(S)
    if key in _CACHE:
        _CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return _CACHE[key]
    plans = builder(plan, S)
    _CACHE[key] = plans
    _CACHE_STATS["misses"] += 1
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    return plans


def plan_cache_stats() -> Dict[str, int]:
    return dict(_CACHE_STATS)


def clear_plan_cache() -> None:
    _CACHE.clear()
    _CACHE_STATS["hits"] = _CACHE_STATS["misses"] = 0
