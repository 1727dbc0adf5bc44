"""Local (single-rank) kernels.

These are the building blocks every distributed algorithm calls once per
phase: SDDMM, SpMM (both orientations) and a fused SDDMM+SpMM that avoids
materializing the intermediate sparse matrix (the paper's "optimized local
FusedMM functions ... elide intermediate storage of the SDDMM result").

They stand in for the paper's MKL SpMM and handwritten OpenMP SDDMM; the
default implementations are fully vectorized NumPy/SciPy with explicit
FLOP accounting so runs can be costed under the gamma model.  A second,
numba-JIT'd implementation of the hot kernels lives behind the
``kernels=`` registry (:mod:`repro.kernels.registry`); the wrappers here
dispatch per call through the backend object carried by the rank
profile, with ``kernels="numpy"`` (no backend attached) as the
zero-overhead default.
"""

from repro.kernels.fused import fusedmm_local
from repro.kernels.registry import (
    KERNEL_BACKENDS,
    available_kernel_backends,
    ensure_kernel_backend_available,
    get_kernel_backend,
    numba_available,
    resolve_kernel_backend,
    validate_kernel_backend_name,
)
from repro.kernels.sddmm import (
    GatScoreOp,
    gat_edge_scores,
    sddmm_block,
    sddmm_coo,
    sddmm_custom,
)
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_flops, spmm_scatter

__all__ = [
    "sddmm_coo",
    "sddmm_block",
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
    "resolve_kernel_backend",
    "validate_kernel_backend_name",
]
