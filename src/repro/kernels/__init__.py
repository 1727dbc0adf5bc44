"""Local (single-rank) kernels.

These are the building blocks every distributed algorithm calls once per
phase: SDDMM, SpMM (both orientations) and a fused SDDMM+SpMM that avoids
materializing the intermediate sparse matrix (the paper's "optimized local
FusedMM functions ... elide intermediate storage of the SDDMM result").

They stand in for the paper's MKL SpMM and handwritten OpenMP SDDMM.
Each public kernel is bookkeeping (explicit FLOP accounting, so runs can
be costed under the gamma model; tracer spans) around one hook of a
kernel backend chosen by the ``kernels=`` registry
(:mod:`repro.kernels.registry`): :mod:`repro.kernels.backend_numpy`
(default: SciPy's CSR loop on raw arrays, ``np.take`` gathers) or the
numba-JIT'd :mod:`repro.kernels.backend_numba`, carried to the ranks on
their profiles.
"""

from repro.kernels.fused import fusedmm_local
from repro.kernels.registry import (
    KERNEL_BACKENDS,
    available_kernel_backends,
    ensure_kernel_backend_available,
    get_kernel_backend,
    numba_available,
    validate_kernel_backend_name,
)
from repro.kernels.sddmm import (
    GatScoreOp,
    gat_edge_scores,
    sddmm_coo,
    sddmm_custom,
)
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_flops, spmm_scatter

__all__ = [
    "sddmm_coo",
    "sddmm_custom",
    "GatScoreOp",
    "gat_edge_scores",
    "spmm_a_block",
    "spmm_b_block",
    "spmm_scatter",
    "spmm_flops",
    "fusedmm_local",
    "KERNEL_BACKENDS",
    "available_kernel_backends",
    "ensure_kernel_backend_available",
    "get_kernel_backend",
    "numba_available",
    "validate_kernel_backend_name",
]
