"""NumPy/SciPy local kernels (``kernels="numpy"``, the default backend).

The four inner-compute hooks of
:class:`~repro.kernels.backend_numba.NumbaKernels`, written to cost
their memory traffic and little else:

* the CSR product is :func:`scipy.sparse._sparsetools.csr_matvecs` — the
  C loop behind SciPy's ``csr @ dense`` — run on raw ``(indptr, indices,
  data)`` arrays into a zeroed temporary that is then added into the
  caller's rows: bitwise ``out += csr @ B``, minus the per-call matrix
  object (constructor, index scan and downcast, matmul dispatch — more
  than the product itself at rank sizes).  ``_sparsetools`` is private
  to SciPy; ``tests/test_kernels.py::TestCsrProduct`` is the tripwire;
* edge gathers are ``np.take(..., axis=0)`` in byte-bounded chunks (4-10x
  faster than fancy indexing below width 16, equal from 64 up), reduced by
  ``einsum`` / gemv.  Each chunk gathers into a fresh block.
  ``take(out=)`` is only slow in its default ``mode="raise"``, which
  buffers ``out`` (2.7x at 8 192 x 64); ``mode="clip"`` is bitwise-equal
  and as fast as a fresh gather.  Reusing per-thread scratch blocks that
  way is still rejected, because in the e2e harness's steady loop the
  fresh blocks cost nothing to fault in: after its 7 cold builds it
  takes a median of 0-1 minor faults per op on ``small_auto`` /
  ``er_compute``, and a scratch-reuse prototype read +10-15 %
  ``op_ms_p50`` and +11-23 MB ``peak_rss_mb`` there (2-core x86_64
  host).  That holds only once glibc's dynamic mmap / trim thresholds
  have risen: a process that plans once and runs 8 warm-up ops at those
  shapes measured 8 500-10 300 minor faults and 15-21 ms system time
  per op (``RUSAGE_THREAD``, read in each rank thread), almost all
  in :meth:`NumpyKernels.sddmm_edge_op`'s ``np.take``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

#: Byte budget of one chunk's two gathered row blocks (``A[rows]`` and
#: ``B[cols]``, ``2 * chunk * r * itemsize`` bytes): 8 MB, i.e. 8 192
#: nonzeros at r = 64.  Large enough that a rank block's SDDMM is a few
#: pieces at most (every extra chunk is another round of interpreter
#: calls on the GIL the rank threads share — 1 MB chunks cost the
#: ``er_compute`` benchmark workload +20 %); small enough that no gather
#: reaches the tens of MB where every fresh block is page-fault bound —
#: the former fixed 65 536 nonzeros were 64 MB at r = 64 and measured
#: 1.4x (r = 64) to 2.1x (r = 128) slower at nnz 131 072.  Results do not
#: depend on it: the row-wise dots are independent.
_CHUNK_BYTES = 1 << 23


def _chunk_nnz(A: np.ndarray) -> int:
    """Nonzeros per chunk for width-``A.shape[1]`` gathers of A's dtype."""
    return max(1, _CHUNK_BYTES // (2 * max(1, A.shape[1]) * A.itemsize))


class NumpyKernels:
    """The ``kernels="numpy"`` backend object (stateless; see module doc)."""

    name = "numpy"

    def warmup(self) -> "NumpyKernels":
        """Nothing to compile."""
        return self

    @staticmethod
    def sddmm_edge_op(A, B, rows, cols, edge_op, out, add=False):
        """``out[k] (+)= edge_op(A[rows], B[cols])[k]``, chunk by chunk."""
        chunk = _chunk_nnz(A)
        for s in range(0, len(rows), chunk):
            e = s + chunk
            # named, so the previous chunk's blocks are released one at a
            # time as the next are bound: dropping both at once lets the
            # allocator trim the heap and re-fault the pages on every
            # chunk (measured 41 vs 19 ms at nnz 131 072)
            ga = np.take(A, rows[s:e], axis=0)
            gb = np.take(B, cols[s:e], axis=0)
            if add:
                out[s:e] += edge_op(ga, gb)
            else:
                out[s:e] = edge_op(ga, gb)

    def sddmm_dots_add(self, A, B, rows, cols, out):
        """``out[k] += <A[rows[k]], B[cols[k]]>``; einsum computes the
        row-wise dots without materializing ``ga * gb``."""
        self.sddmm_edge_op(
            A, B, rows, cols, lambda ga, gb: np.einsum("ij,ij->i", ga, gb), out, True
        )

    def sddmm_gat_score(self, A, B, rows, cols, a_row, a_col, negative_slope, out):
        """``out[k] = LeakyReLU(<A[rows[k]], a_row> + <B[cols[k]], a_col>)``."""

        def score(ga, gb):
            e = ga @ a_row + gb @ a_col
            return np.where(e >= 0, e, negative_slope * e)

        self.sddmm_edge_op(A, B, rows, cols, score, out)

    @staticmethod
    def gat_edge_scores(uL, uR, rows, cols, negative_slope, out):
        """``out[k] = LeakyReLU(uL[rows[k]] + uR[cols[k]])``."""
        np.add(np.take(uL, rows), np.take(uR, cols), out=out)
        np.multiply(out, negative_slope, out=out, where=out < 0)

    @staticmethod
    def spmm_csr_add(indptr, indices, data, B, out, rows=None):
        """``out[rows] += csr(indptr, indices, data) @ B`` (all rows of
        ``out`` when ``rows`` is ``None``).  The temporary has SciPy's
        result dtype and stays O(len(indptr) * width)."""
        n, width = len(indptr) - 1, B.shape[1]
        prod = np.zeros((n, width), dtype=np.result_type(data, B))
        csr_matvecs(
            n, B.shape[0], width, indptr, indices, data, B.ravel(), prod.ravel()
        )
        if rows is None:
            out += prod
        else:
            out[rows] += prod


#: the process-wide instance (stateless, so one serves every session)
NUMPY = NumpyKernels()
