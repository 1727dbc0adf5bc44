"""Local SpMM kernels.

``SpMMA(S, B) = S @ B`` and ``SpMMB(S, A) = S.T @ A`` over a
:class:`~repro.sparse.coo.SparseBlock`.  The CSR structure of the block is
cached (paper-style amortized preprocessing); each call is a single SciPy
CSR matmul accumulated into the caller's output buffer.

When the caller's profile carries a compiled kernel backend
(``profile.kernels``), the CSR product runs through the backend's
row-partitioned jitted kernel on the same cached ``(indptr, indices,
data)`` arrays — bitwise-identical to the SciPy path, because both walk
each row's nonzeros in CSR index order (gated in
``tests/test_kernel_backends.py``).  Non-float64 operands always take
the SciPy path.

:func:`spmm_scatter` is the same product for a *transient* coordinate
chunk: a per-call CSR over the touched rows, run through the same two
CSR implementations.  The rank running it caches nothing — what can be
prepared about a circulating chunk (its order by output row) is prepared
once per structure at the chunk's home rank, and arrives with it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.kernels.sddmm import _f64, _kernel_impl
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock


def spmm_flops(nnz: int, r: int) -> int:
    """FLOPs of one SpMM over ``nnz`` nonzeros and width ``r``."""
    return 2 * nnz * r


def spmm_a_block(
    block: SparseBlock,
    B: np.ndarray,
    out: np.ndarray,
    values: Optional[np.ndarray] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out += S_block @ B`` (output shaped like A's rows for this block).

    ``values`` overrides the block's stored values (e.g. an SDDMM result
    reusing the input's sparsity structure).
    """
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    if block.nnz:
        impl = _kernel_impl(profile)
        if impl is not None and _f64(B, out):
            indptr, indices, data = block.csr_arrays(values)
            impl.spmm_csr_add(
                indptr, indices, data, np.ascontiguousarray(B), out
            )
        else:
            out += block.csr(values) @ B
    if profile is not None:
        profile.add_flops(spmm_flops(block.nnz, B.shape[1]))
        if tracer is not None:
            tracer.span("spmm-a", "kernel", t0, time.perf_counter())
    return out


def spmm_b_block(
    block: SparseBlock,
    A: np.ndarray,
    out: np.ndarray,
    values: Optional[np.ndarray] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out += S_block.T @ A`` (output shaped like B's rows for this block)."""
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    if block.nnz:
        impl = _kernel_impl(profile)
        if impl is not None and _f64(A, out):
            indptr, indices, data = block.csr_arrays(values, transpose=True)
            impl.spmm_csr_add(
                indptr, indices, data, np.ascontiguousarray(A), out
            )
        else:
            out += block.csr_t(values) @ A
    if profile is not None:
        profile.add_flops(spmm_flops(block.nnz, A.shape[1]))
        if tracer is not None:
            tracer.span("spmm-b", "kernel", t0, time.perf_counter())
    return out


def spmm_scatter(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    B: np.ndarray,
    out: np.ndarray,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out[rows] += vals * B[cols]`` for a transient coordinate chunk.

    A circulating sparse chunk visits a rank once per phase and the
    receiver keeps nothing about it, so a CSR over *only the rows the
    chunk touches* is built per call (``indptr`` = the segment starts of
    the row keys, ``indices``/``data`` in chunk order within each row)
    and the product is one CSR matmul scattered back into the touched
    rows.  The families send their chunks out already ordered by output
    row (prepared once per structure at the home rank, see
    ``DistributedAlgorithm.home_chunk``), so the keys are first checked,
    in O(nnz), for arriving non-decreasing — then the CSR is the chunk
    itself; any other order is stably sorted here first.  Both ways walk
    each row's nonzeros in the same order, so a chunk and its stable
    row-sort give bitwise-equal outputs.
    Work and temporaries are O(nnz * r) whatever the height of ``out``.
    Contributions of duplicate rows (and duplicate ``(row, col)`` pairs)
    are summed.  Both kernel backends walk the same CSR in the same
    order, so they are bitwise-identical.
    """
    nnz = len(rows)
    if nnz == 0:
        return out
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
    indptr = np.concatenate(([0], starts, [nnz]))
    touched = rows[indptr[:-1]]
    impl = _kernel_impl(profile)
    if impl is not None and _f64(vals, B, out):
        sums = np.zeros((len(touched), B.shape[1]))
        impl.spmm_csr_add(
            indptr,
            np.ascontiguousarray(cols, dtype=np.int64),
            vals,
            np.ascontiguousarray(B),
            sums,
        )
    else:
        shape = (len(touched), B.shape[0])
        sums = sp.csr_matrix((vals, cols, indptr), shape=shape) @ B
    out[touched] += sums
    if profile is not None:
        profile.add_flops(spmm_flops(nnz, B.shape[1]))
        if tracer is not None:
            tracer.span("spmm-scatter", "kernel", t0, time.perf_counter())
    return out
