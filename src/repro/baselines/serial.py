"""Serial reference implementations of every kernel.

Ground truth for all distributed-algorithm tests.  Definitions follow the
paper's Section II exactly:

* ``SDDMM(A, B, S) = S * (A @ B.T)`` sampled at nnz(S)
* ``SpMMA(S, B) = S @ B``
* ``SpMMB(S, A) = S.T @ A``
* ``FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)``
* ``FusedMMB(S, A, B) = SpMMB(SDDMM(A, B, S), A)``

The SpMMs stay on ``SparseBlock.csr()`` / ``csr_t()`` and SciPy's public
``@``: they are what the rank kernels' raw CSR product is compared with.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.sddmm import sddmm_coo
from repro.sparse.coo import CooMatrix, SparseBlock


def _block(S: CooMatrix) -> SparseBlock:
    return SparseBlock(S.rows, S.cols, S.vals, S.shape)


def sddmm_serial(S: CooMatrix, A: np.ndarray, B: np.ndarray) -> CooMatrix:
    """Reference SDDMM; returns a CooMatrix with S's pattern."""
    vals = sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals)
    return S.with_values(vals)


def spmm_a_serial(S: CooMatrix, B: np.ndarray) -> np.ndarray:
    """Reference ``S @ B``."""
    out = np.zeros((S.nrows, B.shape[1]))
    out += _block(S).csr() @ B
    return out


def spmm_b_serial(S: CooMatrix, A: np.ndarray) -> np.ndarray:
    """Reference ``S.T @ A``."""
    out = np.zeros((S.ncols, A.shape[1]))
    out += _block(S).csr_t() @ A
    return out


def fusedmm_a_serial(S: CooMatrix, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference FusedMMA."""
    R = sddmm_serial(S, A, B)
    return spmm_a_serial(R, B)


def fusedmm_b_serial(S: CooMatrix, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference FusedMMB."""
    R = sddmm_serial(S, A, B)
    return spmm_b_serial(R, A)
