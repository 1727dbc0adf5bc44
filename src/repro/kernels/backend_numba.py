"""Numba-JIT'd local kernels (``kernels="numba"``).

Compiled, ``prange``-parallel implementations of the hot local kernels
dispatched by :mod:`repro.kernels.registry`.  Partitioning follows the
shared-memory sparse-kernel literature (Gale et al., "Sparse GPU Kernels
for Deep Learning"):

* **Row-partitioned CSR** for SpMMA/SpMMB and the transient CSR of
  ``spmm_scatter`` (full-height into ``out`` itself when ``out`` has at
  most ``2 * nnz`` rows, else over the touched rows into a ``sums``
  temporary scattered back): one ``prange`` iteration per output row walks
  that row's nonzeros in CSR index order into a private accumulator,
  then adds the accumulator into the caller's output — the *same*
  per-element accumulation order SciPy's ``csr @ dense`` routine
  (``csr_matvecs``) uses, so the numpy and numba paths are
  **bitwise-identical** (gated in ``tests/test_kernel_backends.py``).
* **Merge/nonzero-partitioned COO** for SDDMM-family kernels: ``prange``
  over nonzeros gives every thread an equal contiguous nonzero range (the
  merge-path equal-work split for edge-parallel kernels).  Where the
  numpy path materializes gathered row blocks in byte-bounded chunks,
  the compiled loop streams each edge's two rows directly from A and B
  and materializes nothing — the cache blocking is implicit in the
  per-thread contiguous nonzero range.

``fastmath`` is **off** everywhere and every reduction has a fixed
left-to-right accumulation order.  The SDDMM-family kernels still cannot
match the numpy path bit for bit, because numpy's own reduction order
there is an implementation detail that varies with SIMD width and numpy
version: ``sddmm_coo``'s ``np.einsum("ij,ij->i")`` reduces each edge dot
with SIMD partial accumulators (empirically ≠ any fixed sequential
order), and the fused GAT score goes through BLAS gemv.  For those the
registry documents a tight tolerance instead (error bounded by
``r * eps`` per reduced element); the equivalence suite gates it.  Every
CSR-backed kernel is gated bitwise.

The module imports cleanly without numba (mirroring
``runtime/backend_mpi.py``): guards in the registry raise the typed
:class:`~repro.errors.KernelBackendUnavailableError` before any jitted
symbol is touched.  ``cache=True`` persists compiled machine code across
processes; :meth:`NumbaKernels.warmup` is called at plan time so
first-call latency is not poisoned by JIT compilation.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Decorator stub so the module defines its symbols without numba
        (they raise via the registry guard before ever being called)."""

        def wrap(fn):
            return fn

        return wrap

    prange = range  # type: ignore[assignment]


@njit(cache=True, parallel=True)
def _sddmm_dots_add(A, B, rows, cols, out):
    """``out[k] += <A[rows[k]], B[cols[k]]>`` for every nonzero k.

    Each edge dot accumulates left-to-right over the r dimension in a
    scalar (fixed order); edges are independent, so ``prange`` over
    nonzeros is an equal-nnz merge split with no write conflicts.
    """
    nnz = rows.shape[0]
    r = A.shape[1]
    for k in prange(nnz):
        i = rows[k]
        j = cols[k]
        acc = 0.0
        for t in range(r):
            acc += A[i, t] * B[j, t]
        out[k] += acc


@njit(cache=True, parallel=True)
def _gat_edge_scores(uL, uR, rows, cols, negative_slope, out):
    """``out[k] = LeakyReLU(uL[rows[k]] + uR[cols[k]])`` — one add and at
    most one multiply per edge, identical to the numpy formulation."""
    for k in prange(rows.shape[0]):
        e = uL[rows[k]] + uR[cols[k]]
        if e < 0.0:
            e = e * negative_slope
        out[k] = e


@njit(cache=True, parallel=True)
def _sddmm_gat_score(A, B, rows, cols, a_row, a_col, negative_slope, out):
    """Fused GAT attention scores at the nonzeros:
    ``out[k] = LeakyReLU(<A[rows[k]], a_row> + <B[cols[k]], a_col>)``.

    The numpy path computes the two projections with BLAS gemv per chunk;
    its reduction order is BLAS-internal, so this kernel is gated with
    the documented tolerance rather than bitwise.
    """
    nnz = rows.shape[0]
    r = A.shape[1]
    for k in prange(nnz):
        i = rows[k]
        j = cols[k]
        accr = 0.0
        for t in range(r):
            accr += A[i, t] * a_row[t]
        accc = 0.0
        for t in range(r):
            accc += B[j, t] * a_col[t]
        e = accr + accc
        if e < 0.0:
            e = e * negative_slope
        out[k] = e


@njit(cache=True, parallel=True)
def _spmm_csr_add(indptr, indices, data, B, out):
    """``out[i, :] += sum_k data[k] * B[indices[k], :]`` per CSR row.

    Row-partitioned: one ``prange`` iteration per output row.  The
    private accumulator starts at zero and adds the row's nonzeros in
    CSR index order — exactly SciPy's ``csr_matvecs`` order — and is
    added into ``out`` once, matching ``out += csr @ B`` bitwise.
    """
    n = indptr.shape[0] - 1
    r = B.shape[1]
    for i in prange(n):
        s = indptr[i]
        e = indptr[i + 1]
        if s == e:
            continue
        acc = np.zeros(r)
        for k in range(s, e):
            v = data[k]
            j = indices[k]
            for t in range(r):
                acc[t] += v * B[j, t]
        for t in range(r):
            out[i, t] += acc[t]


class NumbaKernels:
    """The ``kernels="numba"`` backend object handed to rank profiles.

    The public kernel wrappers in :mod:`repro.kernels.sddmm` /
    :mod:`repro.kernels.spmm` keep all bookkeeping (FLOP accounting,
    tracer spans, ``s_vals`` scaling, ``col_range`` slicing, argsort /
    CSR-structure preparation) and delegate only the inner compute loop
    here, so both backends share one contract and one accounting path
    (:class:`~repro.kernels.backend_numpy.NumpyKernels` is the other).
    """

    name = "numba"

    def __init__(self) -> None:
        self._warmed = False

    # inner compute hooks (see the jitted functions for contracts)
    sddmm_dots_add = staticmethod(_sddmm_dots_add)
    gat_edge_scores = staticmethod(_gat_edge_scores)
    sddmm_gat_score = staticmethod(_sddmm_gat_score)

    @staticmethod
    def spmm_csr_add(indptr, indices, data, B, out, rows=None):
        """``out[rows] += csr @ B`` (all of ``out`` when ``rows`` is ``None``)."""
        if rows is None:
            _spmm_csr_add(indptr, indices, data, B, out)
        else:
            sums = np.zeros((len(rows), B.shape[1]))
            _spmm_csr_add(indptr, indices, data, B, sums)
            out[rows] += sums

    def warmup(self) -> "NumbaKernels":
        """Compile every kernel on tiny operands (idempotent).

        Called at plan time so the first real kernel call is not charged
        JIT compilation; ``cache=True`` makes repeat processes load the
        machine code from the on-disk cache instead of recompiling.
        """
        if self._warmed:
            return self
        idx = np.zeros(1, dtype=np.int64)
        M = np.zeros((1, 2))
        vec = np.zeros(2)
        val = np.zeros(1)
        out1 = np.zeros(1)
        out2 = np.zeros((1, 2))
        indptr = np.array([0, 1], dtype=np.int64)
        # a fiber replica (BufferPool.replica) and a bound dense block
        # (bind_dense) reach the kernels read-only, in either operand
        # position, and so do a circulating chunk's resident sparse
        # values and the coordinates a warm chunk round carries
        # (CarriedCoords), which numba types apart from writeable arrays
        ro, ro_val, ro_idx = np.zeros((1, 2)), np.zeros(1), np.zeros(1, dtype=np.int64)
        ro.flags.writeable = ro_val.flags.writeable = ro_idx.flags.writeable = False
        for panel in (M, ro):
            for other in (M, ro):
                for coords in (idx, ro_idx):
                    _sddmm_dots_add(panel, other, coords, coords, out1)
                _sddmm_gat_score(panel, other, idx, idx, vec, vec, 0.2, out1)
            for data in (val, ro_val):
                for coords in (idx, ro_idx):
                    _spmm_csr_add(indptr, coords, data, panel, out2)
        _gat_edge_scores(val, val, idx, idx, 0.2, out1)
        self._warmed = True
        return self
