"""Local SpMM kernels.

``SpMMA(S, B) = S @ B`` and ``SpMMB(S, A) = S.T @ A`` over a
:class:`~repro.sparse.coo.SparseBlock`.  The CSR structure of the block is
cached (paper-style amortized preprocessing); each call hands the raw
``(indptr, indices, data)`` arrays (:meth:`SparseBlock.csr_arrays`) to
the ``spmm_csr_add`` hook of a kernel backend, which accumulates the
product into the caller's output buffer.  No ``scipy.sparse`` matrix
object is built on this path.

The backend is the compiled one the caller's profile carries
(``profile.kernels``) for float64 operands, else numpy
(:mod:`repro.kernels.backend_numpy`: SciPy's own CSR loop on the raw
arrays).  Both walk each row's nonzeros in CSR index order into a zeroed
accumulator that is then added to the output, so they are
bitwise-identical to each other and to SciPy's ``out += csr @ B``
(gated in ``tests/test_kernel_backends.py`` and
``tests/test_kernels.py::TestCsrProduct``).

:func:`spmm_scatter` is the same product for a *transient* coordinate
chunk: a per-call CSR run through the same hook — over every row of the
output when it is at most ``2 * nnz`` rows tall (one contiguous add of
the product), over only the touched rows above that (the product is
scattered back into them).  The rank running it caches nothing — what
can be prepared about a circulating chunk (its order by output row) is
prepared once per structure at the chunk's home rank, and arrives with
it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.sddmm import _account, _kernel_impl, _span_start
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
    t0 = _span_start(profile)
    if block.nnz:
        _kernel_impl(profile, B, out).spmm_csr_add(
            *block.csr_arrays(values), np.ascontiguousarray(B), out
        )
    _account(profile, spmm_flops(block.nnz, B.shape[1]), "spmm-a", t0)
    return out


def spmm_b_block(
    block: SparseBlock,
    A: np.ndarray,
    out: np.ndarray,
    values: Optional[np.ndarray] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """``out += S_block.T @ A`` (output shaped like B's rows for this block)."""
    t0 = _span_start(profile)
    if block.nnz:
        _kernel_impl(profile, A, out).spmm_csr_add(
            *block.csr_arrays(values, transpose=True), np.ascontiguousarray(A), out
        )
    _account(profile, spmm_flops(block.nnz, A.shape[1]), "spmm-b", t0)
    return out


def _row_runs(rows: np.ndarray) -> tuple:
    """``(indptr, heads)`` of the runs of equal consecutive keys in ``rows``."""
    starts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
    indptr = np.concatenate(([0], starts, [len(rows)]))
    return indptr, rows[indptr[:-1]]


def _full_height_indptr(rows: np.ndarray, height: int) -> np.ndarray:
    """CSR ``indptr`` over all ``height`` rows of the output for
    non-decreasing keys ``rows`` (empty rows get empty segments)."""
    counts = np.bincount(rows, minlength=height)
    if len(counts) > height:
        raise IndexError(
            f"row {len(counts) - 1} is out of bounds for an output of "
            f"{height} rows"
        )
    indptr = np.zeros(height + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


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
    receiver keeps nothing about it, so a CSR is built per call
    (``indices``/``data`` in chunk order within each row) and run through
    the backend's CSR hook.  Which rows that CSR spans is a rule on the
    shapes, not a knob:

    * **full height** when ``out`` has at most ``2 * nnz`` rows: the
      ``indptr`` spans every row of ``out`` (a ``bincount`` of the keys,
      cumulated, empty rows included) and the hook writes one
      ``out``-shaped product with one contiguous add — no gather or
      scatter of the touched rows;
    * **touched rows** for a taller (hypersparse) ``out``: ``indptr`` =
      the segment starts of the row keys, and the product is scattered
      back into only the rows the chunk touches.

    Either way the temporaries are at most ``2 * nnz * r`` words plus
    O(nnz), whatever the height of ``out``.  The families send their
    chunks out already ordered by output row (prepared once per structure
    at the home rank, see ``DistributedAlgorithm.home_chunk``), so keys
    that arrive non-decreasing are the CSR as they are; any other order
    is stably sorted here first.  Both paths walk each row's nonzeros in
    the same order into a zero-started accumulator that is then added to
    ``out``, so a chunk and its stable row-sort, and the two paths, give
    bitwise-equal outputs (an untouched row adds ``+0.0``, which changes
    no bits unless ``out`` holds a ``-0.0`` there; a zero-started output
    never does).  A row outside ``out`` raises.  Contributions of
    duplicate rows (and duplicate ``(row, col)`` pairs) are summed.  Both
    kernel backends walk the same CSR in the same order, so they are
    bitwise-identical.
    """
    nnz = len(rows)
    if nnz == 0:
        return out
    t0 = _span_start(profile)
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    if rows[0] < 0:  # fancy indexing would wrap it into the last rows
        raise IndexError(f"row {rows[0]} is negative")
    height = out.shape[0]
    if height <= 2 * nnz:
        indptr, touched = _full_height_indptr(rows, height), None
    else:
        indptr, touched = _row_runs(rows)
    _kernel_impl(profile, vals, B, out).spmm_csr_add(
        indptr,
        np.ascontiguousarray(cols, dtype=np.int64),
        vals,
        np.ascontiguousarray(B),
        out,
        touched,
    )
    _account(profile, spmm_flops(nnz, B.shape[1]), "spmm-scatter", t0)
    return out
