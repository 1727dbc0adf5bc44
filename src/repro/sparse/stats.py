"""Matrix statistics, including the paper's ``phi`` ratio.

``phi = nnz(S) / (n * r)`` — the ratio of sparse-matrix nonzeros to dense-
matrix entries — is the single parameter that determines which algorithm
family wins in the paper's analysis (low phi favours sparse-shifting /
sparse-replicating; high phi favours dense-shifting / dense-replicating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.generate import random_permutations
from repro.sparse.partition import block_ranges, stable_order

#: seed of the one random row / column permutation a session may
#: distribute its operand under: fixed, so a layout is the same on every
#: run and in every process of a run
LAYOUT_SEED = 0


def phi_ratio(nnz: int, n: int, r: int) -> float:
    """The paper's phi = nnz(S) / (n*r)."""
    return nnz / float(n * r)


def _owners(total: int, p: int) -> np.ndarray:
    """Block of every index under ``p`` equal blocks (``block_ranges``)."""
    return np.repeat(np.arange(p, dtype=np.int64), np.diff(block_ranges(total, p)))


def _in_order_within_blocks(perm: np.ndarray, p: int) -> np.ndarray:
    """``perm``'s assignment of indices to ``p`` equal blocks, each block's
    indices kept in their original relative order."""
    by_block = stable_order(_owners(len(perm), p)[perm], p)
    out = np.empty_like(perm)
    out[by_block] = np.arange(len(perm), dtype=perm.dtype)
    return out


def layout_permutations(
    nrows: int, ncols: int, p: int, seed=LAYOUT_SEED
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(row_perm, col_perm)`` a permuted session distributes under
    (``new_index = perm[old_index]``): the random assignment of rows and
    columns to ``p`` equal blocks that
    :func:`~repro.sparse.generate.random_permutations` ``(seed)`` makes —
    so the same balance and the same unions for every blocking built
    from those blocks — with each block's indices in their original
    order, which keeps a rank's gathers from the caller's dense operands
    walking forward through memory (about 10 % of ``rmat_25d``'s op time
    against the unsorted permutation on a 2-core host)."""
    return tuple(
        _in_order_within_blocks(perm, p)
        for perm in random_permutations(nrows, ncols, seed)
    )


def _per_block(
    blocks: np.ndarray, index: np.ndarray, p: int, extent: int
) -> Tuple[np.ndarray, int]:
    """Nonzeros per block and the most distinct ``index`` values any block
    touches, from one ``bincount`` (no sort)."""
    touched = np.bincount(blocks * extent + index, minlength=p * extent)
    touched = touched.reshape(p, extent)
    return touched.sum(axis=1), int(np.count_nonzero(touched, axis=1).max())


def _imbalance(nnz: np.ndarray) -> float:
    """Max / mean nonzeros per block (1.0 when there are none)."""
    return float(nnz.max() / nnz.mean()) if nnz.any() else 1.0


def layout_statistics(S: CooMatrix, p: int, seed=LAYOUT_SEED) -> Dict[str, float]:
    """The structural numbers the layout decision reads, over ``p`` equal
    row blocks and ``p`` equal column blocks.

    ``row_imbalance`` / ``col_imbalance`` are max / mean nonzeros per
    block.  The *union proxy* of a layout is the most distinct columns any
    row block touches plus the most distinct rows any column block touches
    — what a rank's need lists grow with; ``union_natural`` is the
    operand's own, ``union_permuted`` the one under
    :func:`layout_permutations` ``(seed)`` (which puts every index in the
    block :func:`~repro.sparse.generate.random_permutations` does, so the
    unsorted pair counts the same).  Counting only: one ``bincount`` per
    side per layout.
    """
    m, n = S.shape
    row_perm, col_perm = random_permutations(m, n, seed)
    row_owner, col_owner = _owners(m, p), _owners(n, p)
    row_nnz, row_union = _per_block(row_owner[S.rows], S.cols, p, n)
    col_nnz, col_union = _per_block(col_owner[S.cols], S.rows, p, m)
    _, row_union_permuted = _per_block(row_owner[row_perm][S.rows], S.cols, p, n)
    _, col_union_permuted = _per_block(col_owner[col_perm][S.cols], S.rows, p, m)
    return {
        "row_imbalance": _imbalance(row_nnz),
        "col_imbalance": _imbalance(col_nnz),
        "union_natural": row_union + col_union,
        "union_permuted": row_union_permuted + col_union_permuted,
        "seed": seed,
    }


@dataclass(frozen=True)
class MatrixStats:
    """Summary statistics in the style of the paper's Table V."""

    name: str
    rows: int
    cols: int
    nnz: int
    nnz_per_row_mean: float
    nnz_per_row_max: int
    empty_rows: int

    def phi(self, r: int) -> float:
        return phi_ratio(self.nnz, self.cols, r)

    def table_row(self) -> str:
        return (
            f"{self.name:<16} {self.rows:>10,} {self.cols:>10,} {self.nnz:>12,} "
            f"{self.nnz_per_row_mean:>8.1f} {self.nnz_per_row_max:>8,} "
            f"{self.empty_rows:>8,}"
        )


def matrix_stats(mat: CooMatrix, name: str = "") -> MatrixStats:
    counts = np.bincount(mat.rows, minlength=mat.nrows)
    return MatrixStats(
        name=name or "matrix",
        rows=mat.nrows,
        cols=mat.ncols,
        nnz=mat.nnz,
        nnz_per_row_mean=float(mat.nnz) / max(mat.nrows, 1),
        nnz_per_row_max=int(counts.max()) if mat.nrows else 0,
        empty_rows=int((counts == 0).sum()),
    )
