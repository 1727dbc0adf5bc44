"""Block partitioning utilities (Table II distributions are built on these).

All distributed layouts in the library are described by *offset arrays*:
``block_ranges(total, nblocks)`` returns the ``nblocks + 1`` boundaries of a
balanced 1D blocking (ragged by at most one element, so no divisibility
constraints are imposed on matrix dimensions).  Block-cyclic assignments —
e.g. "column blocks ``j`` with ``j % c == v`` live on layer ``v``" — are
expressed with :func:`cyclic_block_index`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import DistributionError


def block_ranges(total: int, nblocks: int) -> np.ndarray:
    """Balanced 1D block boundaries: ``offsets`` of length ``nblocks + 1``.

    Block ``b`` covers ``[offsets[b], offsets[b+1])``.  The first
    ``total % nblocks`` blocks are one element longer, matching the usual
    MPI decomposition.  ``total`` may be smaller than ``nblocks`` (some
    blocks are then empty).
    """
    if nblocks < 1:
        raise DistributionError(f"nblocks must be >= 1, got {nblocks}")
    if total < 0:
        raise DistributionError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, nblocks)
    sizes = np.full(nblocks, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def block_of(indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Block id of each global index under the blocking ``offsets``."""
    out = np.searchsorted(offsets, indices, side="right") - 1
    return out.astype(np.int64, copy=False)


def block_size(offsets: np.ndarray, b: int) -> int:
    return int(offsets[b + 1] - offsets[b])


def cyclic_block_index(offsets: np.ndarray, stride: int, phase: int) -> np.ndarray:
    """Global indices of all blocks ``b`` with ``b % stride == phase``.

    The result concatenates the blocks in increasing ``b`` order, which is
    the storage order used for cyclic local buffers (e.g. the rows of A
    owned by fiber position ``v`` in the 1.5D sparse-shifting layout).
    """
    nblocks = len(offsets) - 1
    picks = [
        np.arange(offsets[b], offsets[b + 1], dtype=np.int64)
        for b in range(phase, nblocks, stride)
    ]
    if not picks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(picks)


def global_to_local_map(total: int, owned_global: np.ndarray) -> np.ndarray:
    """Dense lookup ``loc`` with ``loc[g] = position of g in owned_global``
    for owned indices and ``-1`` elsewhere."""
    loc = np.full(total, -1, dtype=np.int64)
    loc[owned_global] = np.arange(len(owned_global), dtype=np.int64)
    return loc


def partition_coo_2d(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    row_offsets: np.ndarray,
    col_offsets: np.ndarray,
) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Bucket COO triples into the 2D blocking given by the offset arrays.

    Returns ``{(bi, bj): (local_rows, local_cols, vals, gidx)}`` with
    indices *local to the block*, nonzeros kept in their original relative
    order within each block, and ``gidx`` giving each nonzero's position in
    the input arrays (so SDDMM outputs can be scattered back into the
    global value ordering).  Blocks with no nonzeros are omitted.
    """
    if not (len(rows) == len(cols) == len(vals)):
        raise DistributionError("rows/cols/vals length mismatch")
    if len(rows) == 0:
        return {}
    bi = block_of(rows, row_offsets)
    bj = block_of(cols, col_offsets)
    ncb = len(col_offsets) - 1
    key = bi * ncb + bj
    order = stable_order(key, (len(row_offsets) - 1) * ncb)
    key_sorted = key[order]
    boundaries = np.flatnonzero(np.diff(key_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(key_sorted)]))
    out: Dict[
        Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ] = {}
    for s, e in zip(starts, ends):
        idx = order[s:e]
        b_i = int(key_sorted[s] // ncb)
        b_j = int(key_sorted[s] % ncb)
        out[(b_i, b_j)] = (
            rows[idx] - row_offsets[b_i],
            cols[idx] - col_offsets[b_j],
            vals[idx],
            idx.astype(np.int64),
        )
    return out


def partition_coo_rows(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    row_offsets: np.ndarray,
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """1D row-block partition; row indices are localized, columns global."""
    one_col = np.array(
        [0, max(int(cols.max()) + 1 if len(cols) else 1, 1)], dtype=np.int64
    )
    full = partition_coo_2d(rows, cols, vals, row_offsets, one_col)
    return {bi: quad for (bi, _), quad in full.items()}


def partition_by_owner(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    owner: np.ndarray,
    nranks: int,
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Group COO triples by a precomputed per-nonzero owner rank.

    Keeps coordinates *global* (unlike :func:`partition_coo_2d`); used by
    layouts whose ownership rule is not a plain 2D blocking (e.g. the
    column-block-cyclic chunks of the 1.5D sparse-shifting algorithm).
    Returns ``{rank: (rows, cols, vals, gidx)}``; empty ranks are omitted.
    """
    if len(owner) == 0:
        return {}
    for rank in (owner.min(), owner.max()):
        if not 0 <= rank < nranks:
            raise DistributionError(f"owner rank {rank} out of range")
    order = stable_order(owner, nranks)
    o_sorted = owner[order]
    boundaries = np.flatnonzero(np.diff(o_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(o_sorted)]))
    out: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    for s, e in zip(starts, ends):
        idx = order[s:e]
        rank = int(o_sorted[s])
        out[rank] = (rows[idx], cols[idx], vals[idx], idx.astype(np.int64))
    return out


def stable_order(key: np.ndarray, nkeys: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for keys in ``[0, nkeys)``, sorted
    in the narrowest dtype that holds them: numpy radix-sorts up to 16 bits
    (120k random block keys: 3.4 -> 0.8 ms)."""
    narrow = key.astype(np.min_scalar_type(max(nkeys - 1, 0)))
    return np.argsort(narrow, kind="stable")


def group_offsets(offsets: np.ndarray, group: int) -> np.ndarray:
    """Coarsen a blocking by grouping ``group`` consecutive fine blocks.

    Used to keep the coarse S row blocks of the 1.5D algorithms aligned
    with unions of fine dense blocks even when sizes are ragged.
    """
    nfine = len(offsets) - 1
    if nfine % group != 0:
        raise DistributionError(
            f"{nfine} fine blocks not divisible into groups of {group}"
        )
    return offsets[::group].copy()
