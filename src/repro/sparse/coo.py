"""COO containers with cached CSR structure.

The distributed algorithms keep sparse blocks *stationary* across the
phases of a kernel call (1.5D dense shift) or re-visit the same structure
on every FusedMM invocation.  :class:`SparseBlock` therefore caches the
CSR structure (indptr/indices plus the COO-to-CSR permutation) once and
re-materializes the CSR data (raw arrays for the kernels, a SciPy CSR
for the oracles) for any values array in O(nnz) gather time — the Python
analogue of the paper amortizing sparse-matrix preprocessing across
repeated kernel calls.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import DistributionError
from repro.sparse.partition import stable_order


class SparseBlock:
    """An immutable-structure sparse block in COO form with CSR caches.

    ``rows``/``cols`` are *local* indices within the block's ``shape``.
    The values array may be swapped per call via the ``values=`` arguments,
    which is how SDDMM outputs reuse the sparsity structure of their input.
    """

    __slots__ = ("rows", "cols", "vals", "nrows", "ncols", "_csr", "_csr_t", "_remaps")

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        if not (len(rows) == len(cols) == len(vals)):
            raise DistributionError("COO arrays must have equal length")
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.nrows, self.ncols = int(shape[0]), int(shape[1])
        if len(self.rows) and (
            self.rows.min() < 0
            or self.rows.max() >= self.nrows
            or self.cols.min() < 0
            or self.cols.max() >= self.ncols
        ):
            raise DistributionError("COO indices out of block bounds")
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._csr_t: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._remaps: Dict[str, tuple] = {}  # key -> (view, row_map, col_map, shape)

    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def _structure(self, transpose: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, perm) with ``perm`` mapping CSR slot -> COO slot."""
        cache = self._csr_t if transpose else self._csr
        if cache is None:
            r, c = (self.cols, self.rows) if transpose else (self.rows, self.cols)
            nr, nc = (self.ncols, self.nrows) if transpose else self.shape
            # (row, col) order with duplicates kept in COO order, what
            # lexsort((c, r)) gives: nothing to do for a row-major block,
            # else two stable passes, column then row, each radix-sorted
            # while its extent fits 16 bits (66 617 nonzeros on a 2-core
            # x86_64 host: lexsort 11-12 ms; 0.55 ms row-major, 1.9 ms
            # shuffled)
            key = r * nc + c
            if (key[1:] >= key[:-1]).all():
                order = np.arange(len(key))
            else:
                by_col = stable_order(c, nc)
                order = by_col[stable_order(r[by_col], nr)]
            indptr = np.zeros(nr + 1, dtype=np.int64)
            np.cumsum(np.bincount(r, minlength=nr), out=indptr[1:])
            cache = (
                indptr,
                c[order].astype(np.int64, copy=False),
                order.astype(np.int64, copy=False),
            )
            if transpose:
                self._csr_t = cache
            else:
                self._csr = cache
        return cache

    def csr(self, values: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """CSR view of this block with the given (or stored) values."""
        indptr, indices, data = self.csr_arrays(values)
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)

    def csr_t(self, values: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """CSR view of this block's transpose with the given values."""
        indptr, indices, data = self.csr_arrays(values, transpose=True)
        return sp.csr_matrix((data, indices, indptr), shape=(self.ncols, self.nrows))

    def csr_arrays(
        self, values: Optional[np.ndarray] = None, transpose: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw ``(indptr, indices, data)`` of the cached CSR structure.

        What every kernel backend's ``spmm_csr_add`` consumes — the rank
        kernels build no SciPy matrix object; the structure cache and
        the per-call ``values`` gather are shared with :meth:`csr` /
        :meth:`csr_t`, which the serial oracles keep using.
        """
        indptr, indices, perm = self._structure(transpose=transpose)
        data = (self.vals if values is None else values)[perm]
        return indptr, indices, data

    def transposed(self) -> "SparseBlock":
        return SparseBlock(self.cols, self.rows, self.vals, (self.ncols, self.nrows))

    def with_values(self, vals: np.ndarray) -> "SparseBlock":
        blk = SparseBlock.__new__(SparseBlock)
        blk.rows, blk.cols = self.rows, self.cols
        blk.vals = np.asarray(vals, dtype=np.float64)
        blk.nrows, blk.ncols = self.nrows, self.ncols
        blk._csr, blk._csr_t = self._csr, self._csr_t
        blk._remaps = self._remaps
        return blk

    def remapped(
        self,
        key: str,
        row_map: Optional[np.ndarray] = None,
        col_map: Optional[np.ndarray] = None,
        shape: Optional[Tuple[int, int]] = None,
        prebuild: bool = False,
    ) -> "SparseBlock":
        """Cached view of this block with indices rewritten through lookups.

        ``row_map``/``col_map`` are dense lookup arrays (``new = map[old]``,
        e.g. a :class:`~repro.comm_sparse.plan.PackedIndex` ``lookup``)
        taking this block's coordinates into a *packed panel* coordinate
        space of the given ``shape``.  The rewrite — and the CSR structure
        of the rewritten block, when ``prebuild`` is set — happens once per
        ``key`` and is cached on the block, so repeated kernel invocations
        on packed panels pay zero per-call index translation: the local
        kernels (:func:`~repro.kernels.spmm.spmm_a_block`,
        :func:`~repro.kernels.spmm.spmm_b_block`, ``sddmm_coo`` on
        ``view.rows``/``view.cols``) run unchanged on compact buffers.

        The view shares this block's value array *by reference* (and
        survives :meth:`with_values`, which shares the structure cache):
        callers must pass per-call values explicitly (``values=``),
        exactly as they do with the primary block.  A ``key`` is bound to
        its maps on first use — reusing it with different maps or shape
        raises instead of silently returning the stale view.
        """
        entry = self._remaps.get(key)
        if entry is not None:
            cached, bound_rm, bound_cm, bound_shape = entry
            if (
                bound_rm is not row_map
                or bound_cm is not col_map
                or bound_shape != shape
            ):
                raise DistributionError(
                    f"remap {key!r} already bound to different maps/shape; "
                    f"use a distinct key per coordinate space"
                )
            return cached
        rows = self.rows if row_map is None else row_map[self.rows]
        cols = self.cols if col_map is None else col_map[self.cols]
        if len(rows) and (min(rows.min(), cols.min()) < 0):
            raise DistributionError(
                f"remap {key!r}: some coordinates fall outside the map"
            )
        cached = SparseBlock(rows, cols, self.vals, shape or self.shape)
        if prebuild:
            cached._structure(transpose=False)
            cached._structure(transpose=True)
        self._remaps[key] = (cached, row_map, col_map, shape)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseBlock(shape={self.shape}, nnz={self.nnz})"


class CooMatrix:
    """A global sparse matrix in COO form (deduplicated, canonical order)."""

    __slots__ = ("rows", "cols", "vals", "nrows", "ncols")

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        dedupe: bool = True,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise DistributionError("COO arrays must have equal length")
        self.nrows, self.ncols = int(shape[0]), int(shape[1])
        if len(rows):
            if rows.min() < 0 or rows.max() >= self.nrows:
                raise DistributionError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.ncols:
                raise DistributionError("column index out of range")
        if dedupe and len(rows):
            key = rows * self.ncols + cols
            order = np.argsort(key, kind="stable")
            key = key[order]
            keep = np.concatenate(([True], np.diff(key) != 0))
            idx = order[keep]
            rows, cols, vals = rows[idx], cols[idx], vals[idx]
        self.rows, self.cols, self.vals = rows, cols, vals

    # ------------------------------------------------------------------

    @classmethod
    def from_scipy(cls, mat) -> "CooMatrix":
        coo = sp.coo_matrix(mat)
        return cls(coo.row, coo.col, coo.data, coo.shape)

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.nrows, self.ncols)
        )

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def transposed(self) -> "CooMatrix":
        return CooMatrix(
            self.cols, self.rows, self.vals, (self.ncols, self.nrows), dedupe=False
        )

    def with_values(self, vals: np.ndarray) -> "CooMatrix":
        return CooMatrix(self.rows, self.cols, vals, self.shape, dedupe=False)

    def same_structure(self, other: "CooMatrix") -> bool:
        """Whether ``other`` has the identical sparsity structure (shape and
        nonzero coordinates, in the same stored ordering).  Values are not
        compared — this is the cache key the session handle and the comm
        planners rely on."""
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
        )

    def permuted(self, row_perm: np.ndarray, col_perm: np.ndarray) -> "CooMatrix":
        """Apply row/column permutations (``new_index = perm[old_index]``)."""
        return CooMatrix(
            row_perm[self.rows], col_perm[self.cols], self.vals, self.shape,
            dedupe=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CooMatrix(shape={self.shape}, nnz={self.nnz})"
