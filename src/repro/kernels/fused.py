"""Fused local SDDMM + SpMM kernel.

The 1.5D dense-shifting algorithm with *local kernel fusion* performs, per
propagation phase, a local SDDMM followed immediately by a local SpMM on
the same processor without intervening communication (paper Section IV-B).
This kernel performs that pair while reusing the cached CSR structure of
the input block and never materializing the intermediate sparse matrix as
a standalone object (cf. Rahman et al.'s FusedMM local kernels, the
paper's reference [11]).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.sddmm import sddmm_coo
from repro.kernels.spmm import spmm_a_block
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock


def fusedmm_local(
    A_rep: np.ndarray,
    B_cur: np.ndarray,
    block: SparseBlock,
    out: np.ndarray,
    use_values: bool = True,
    residual: bool = False,
    return_sddmm: bool = False,
    profile: Optional[RankProfile] = None,
) -> Optional[np.ndarray]:
    """``out += SDDMM(A_rep, B_cur, block) @ B_cur`` in one local pass.

    ``A_rep`` is the replicated dense input (full rows for this block's row
    range), ``B_cur`` the currently-held propagated block.  The SDDMM
    values live only in a transient array that is fed straight into
    :func:`~repro.kernels.spmm.spmm_a_block` on the block's cached CSR
    structure, so both halves honour ``profile.kernels`` and emit their
    kernel spans.

    ``use_values=False`` makes the SDDMM half pattern-only (plain dots);
    ``residual=True`` feeds ``block.vals − dots`` to the SpMM half instead,
    so ``out += (S − pattern(S) * (A_rep B_curᵀ)) @ B_cur``.  With
    ``return_sddmm=True`` the intermediate values are also returned
    (used by tests and by callers that keep R).
    """
    if block.nnz == 0:
        return np.zeros(0) if return_sddmm else None
    r_vals = sddmm_coo(
        A_rep,
        B_cur,
        block.rows,
        block.cols,
        s_vals=block.vals if use_values and not residual else None,
        profile=profile,
    )
    if residual:
        r_vals = block.vals - r_vals
    spmm_a_block(block, B_cur, out, values=r_vals, profile=profile)
    return r_vals if return_sddmm else None


def fusedmm_reference(
    S_rows: np.ndarray,
    S_cols: np.ndarray,
    S_vals: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    shape: Tuple[int, int],
    variant: str = "a",
) -> np.ndarray:
    """Serial reference for FusedMMA / FusedMMB (used by tests).

    ``FusedMMA = SpMMA(SDDMM(A,B,S), B)``; ``FusedMMB = SpMMB(SDDMM(A,B,S), A)``.
    The SpMM half stays SciPy's public ``csr @ dense`` — the oracle the
    kernels' raw CSR product is compared with.
    """
    block = SparseBlock(S_rows, S_cols, S_vals, shape)
    r_vals = sddmm_coo(A, B, S_rows, S_cols, s_vals=S_vals)
    if variant == "a":
        return block.csr(r_vals) @ B
    if variant == "b":
        return block.csr_t(r_vals) @ A
    raise ValueError(f"unknown variant {variant!r}")
