"""Locality-improving reorderings for local kernels (paper Section III-A).

The paper cites two shared-memory optimizations for SDDMM/SpMM: reordering
the sparse matrix to minimize the hypergraph connectivity metric (Jiang et
al.) and adaptive tiling (Hong et al.).  This module implements lightweight
analogues used by the ablation benchmarks:

* :func:`degree_sort` — order rows by descending nonzero count, clustering
  heavy rows so their dense-row reuse coalesces.
* :func:`bfs_reorder` — Cuthill–McKee-style breadth-first ordering of the
  bipartite row/column graph, reducing the column span of row blocks
  (a cheap proxy for hypergraph partitioning's edgecut-1 objective).
* :func:`column_span_cost` — the evaluation metric: average distinct
  columns touched per row block, which models dense-matrix traffic of a
  blocked kernel exactly (each distinct column in a block is one dense-row
  fetch from slow memory).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sparse.coo import CooMatrix


def degree_sort(mat: CooMatrix) -> Tuple[CooMatrix, np.ndarray]:
    """Reorder rows by descending degree; returns (matrix, row_perm)."""
    counts = np.bincount(mat.rows, minlength=mat.nrows)
    order = np.argsort(-counts, kind="stable")  # old index in new order
    row_perm = np.empty(mat.nrows, dtype=np.int64)
    row_perm[order] = np.arange(mat.nrows)
    return mat.permuted(row_perm, np.arange(mat.ncols, dtype=np.int64)), row_perm


def bfs_reorder(mat: CooMatrix) -> Tuple[CooMatrix, np.ndarray, np.ndarray]:
    """Breadth-first (Cuthill–McKee-like) reordering of rows and columns.

    Rows and columns are visited in BFS order over the bipartite adjacency;
    unreached rows/columns keep their relative order at the end.  Returns
    ``(matrix, row_perm, col_perm)``.
    """
    csr = mat.to_scipy()
    csc = csr.tocsc()
    row_seen = np.zeros(mat.nrows, dtype=bool)
    col_seen = np.zeros(mat.ncols, dtype=bool)
    row_order = []
    col_order = []
    degrees = np.diff(csr.indptr)
    for start in np.argsort(degrees, kind="stable"):
        if row_seen[start] or degrees[start] == 0:
            continue
        frontier = [int(start)]
        row_seen[start] = True
        while frontier:
            row_order.extend(frontier)
            cols_next = []
            for i in frontier:
                for j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]]:
                    if not col_seen[j]:
                        col_seen[j] = True
                        cols_next.append(int(j))
            col_order.extend(cols_next)
            rows_next = []
            for j in cols_next:
                for i in csc.indices[csc.indptr[j] : csc.indptr[j + 1]]:
                    if not row_seen[i]:
                        row_seen[i] = True
                        rows_next.append(int(i))
            frontier = rows_next
    row_order.extend(np.flatnonzero(~row_seen))
    col_order.extend(np.flatnonzero(~col_seen))
    row_perm = np.empty(mat.nrows, dtype=np.int64)
    row_perm[np.asarray(row_order, dtype=np.int64)] = np.arange(mat.nrows)
    col_perm = np.empty(mat.ncols, dtype=np.int64)
    col_perm[np.asarray(col_order, dtype=np.int64)] = np.arange(mat.ncols)
    return mat.permuted(row_perm, col_perm), row_perm, col_perm


def column_span_cost(mat: CooMatrix, row_block: int = 64) -> float:
    """Average distinct columns per ``row_block`` rows (edgecut-1 proxy).

    This is the number of dense-matrix rows a blocked kernel must stream
    per row block — the traffic model of the paper's Section III-A.
    """
    if mat.nnz == 0:
        return 0.0
    blocks = mat.rows // row_block
    key = blocks * np.int64(mat.ncols) + mat.cols
    distinct = len(np.unique(key))
    nblocks = int(blocks.max()) + 1
    return distinct / nblocks
