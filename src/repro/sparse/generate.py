"""Workload generators.

* :func:`erdos_renyi` reproduces the paper's weak-scaling workloads
  (CombBLAS-generated Erdős–Rényi matrices with a fixed expected nonzero
  count per row).
* :func:`rmat` is a vectorized R-MAT/Graph500-style power-law generator.
* :func:`realworld_standin` produces scaled-down stand-ins for the five
  SuiteSparse matrices of the paper's Table V (amazon-large, uk-2002,
  eukarya, arabic-2005, twitter7), matching their defining property for
  the paper's analysis — the nonzeros-per-row profile, hence ``phi`` —
  at laptop-scale dimensions.
* :func:`random_permutation` applies the random row/column permutation the
  paper uses to load-balance real-world matrices across processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sparse.coo import CooMatrix


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def erdos_renyi(
    m: int,
    n: int,
    nnz_per_row: float,
    seed=0,
    values: str = "uniform",
) -> CooMatrix:
    """Erdős–Rényi sparse matrix with ``nnz_per_row`` expected nonzeros/row.

    Nonzero positions are sampled uniformly with replacement and
    deduplicated, matching CombBLAS's generator semantics (the realized
    count is slightly below ``m * nnz_per_row`` due to collisions).

    ``values`` is ``"uniform"`` (U[0,1)), ``"ones"`` (all 1.0, useful for
    adjacency matrices), or ``"normal"``.
    """
    total = int(round(m * nnz_per_row))
    rng = _rng(seed)
    rows = rng.integers(0, m, size=total, dtype=np.int64)
    cols = rng.integers(0, n, size=total, dtype=np.int64)
    vals = _make_values(rng, total, values)
    return CooMatrix(rows, cols, vals, (m, n), dedupe=True)


def rmat(
    scale: int,
    edge_factor: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
    values: str = "uniform",
    square_shape: Optional[int] = None,
) -> CooMatrix:
    """R-MAT power-law matrix of side ``2**scale`` with ``edge_factor``
    edges per row (Graph500 defaults for ``a, b, c``; ``d = 1-a-b-c``).

    The recursive quadrant choice is vectorized bit by bit.  Duplicates
    are merged, so dense hub rows lose proportionally more edges — the
    same skew real web/social graphs show.
    """
    n = 2**scale if square_shape is None else square_shape
    total = int(round(n * edge_factor))
    rng = _rng(seed)
    rows = np.zeros(total, dtype=np.int64)
    cols = np.zeros(total, dtype=np.int64)
    p_row1 = c + (1.0 - a - b - c)  # P(row bit = 1)
    for _ in range(scale):
        rows <<= 1
        cols <<= 1
        r_bit = rng.random(total) < p_row1
        # conditional column-bit probability given the row bit
        p_col1_given0 = b / (a + b)
        p_col1_given1 = (1.0 - a - b - c) / max(c + (1.0 - a - b - c), 1e-12)
        c_prob = np.where(r_bit, p_col1_given1, p_col1_given0)
        c_bit = rng.random(total) < c_prob
        rows |= r_bit.astype(np.int64)
        cols |= c_bit.astype(np.int64)
    if square_shape is not None:
        rows %= n
        cols %= n
    vals = _make_values(rng, total, values)
    return CooMatrix(rows, cols, vals, (n, n), dedupe=True)


def random_permutations(
    nrows: int, ncols: int, seed=0
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(row_perm, col_perm)`` pair :func:`random_permutation` applies
    (``new_index = perm[old_index]``)."""
    rng = _rng(seed)
    return (
        rng.permutation(nrows).astype(np.int64),
        rng.permutation(ncols).astype(np.int64),
    )


def random_permutation(mat: CooMatrix, seed=0) -> CooMatrix:
    """Random row+column permutation for load balance (paper Section VI)."""
    return mat.permuted(*random_permutations(mat.nrows, mat.ncols, seed))


def _make_values(rng: np.random.Generator, total: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.random(total)
    if kind == "ones":
        return np.ones(total)
    if kind == "normal":
        return rng.standard_normal(total)
    raise ValueError(f"unknown value kind {kind!r}")


# ----------------------------------------------------------------------
# Real-world stand-ins (paper Table V)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RealWorldProfile:
    """Shape profile of one of the paper's Table V matrices."""

    name: str
    paper_rows: int
    paper_nnz: int
    nnz_per_row: float  # the property that determines phi and algorithm choice
    rmat_a: float  # skew of the degree distribution
    rmat_b: float
    rmat_c: float


#: The five strong-scaling matrices of Table V.  ``nnz_per_row`` follows the
#: paper's own characterization: ~16 for amazon-large and uk-2002, 111 for
#: eukarya, 28 for arabic-2005 and 35 for twitter7.
REALWORLD_PROFILES: Dict[str, RealWorldProfile] = {
    "amazon-large": RealWorldProfile(
        "amazon-large", 14_249_639, 230_788_269, 16.2, 0.50, 0.22, 0.22
    ),
    "uk-2002": RealWorldProfile(
        "uk-2002", 18_484_117, 298_113_762, 16.1, 0.57, 0.19, 0.19
    ),
    "eukarya": RealWorldProfile(
        "eukarya", 3_243_106, 359_744_161, 110.9, 0.45, 0.25, 0.25
    ),
    "arabic-2005": RealWorldProfile(
        "arabic-2005", 22_744_080, 639_999_458, 28.1, 0.57, 0.19, 0.19
    ),
    "twitter7": RealWorldProfile(
        "twitter7", 41_652_230, 1_468_365_182, 35.3, 0.55, 0.20, 0.20
    ),
}


def realworld_standin(
    name: str, scale: int = 13, seed=0, permute: bool = True
) -> CooMatrix:
    """Scaled-down stand-in for a Table V matrix.

    ``scale`` gives the side length ``2**scale``; the nonzeros-per-row
    profile (and therefore ``phi = nnz / (n r)`` at any embedding width)
    matches the original matrix.  A random permutation is applied, as the
    paper does for load balance (``permute=False``: the skewed R-MAT
    matrix as generated).
    """
    if name not in REALWORLD_PROFILES:
        raise KeyError(
            f"unknown matrix {name!r}; options: {sorted(REALWORLD_PROFILES)}"
        )
    prof = REALWORLD_PROFILES[name]
    # R-MAT discards duplicate edges; oversample so the realized
    # nonzeros-per-row matches the profile.
    target = prof.nnz_per_row
    factor = target
    mat = rmat(
        scale, edge_factor=factor, a=prof.rmat_a, b=prof.rmat_b, c=prof.rmat_c,
        seed=seed,
    )
    realized = mat.nnz / mat.nrows
    if realized < 0.9 * target:
        factor *= target / max(realized, 1e-9)
        mat = rmat(
            scale, edge_factor=factor, a=prof.rmat_a, b=prof.rmat_b, c=prof.rmat_c,
            seed=seed,
        )
    if not permute:
        return mat
    return random_permutation(mat, seed=_rng(seed).integers(1 << 31))
