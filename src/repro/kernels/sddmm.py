"""Local SDDMM kernels.

``SDDMM(A, B, S) = S * (A @ B.T)`` evaluated only at the nonzeros of S:
for each nonzero ``(i, j)``, the output value is ``S_ij * <A_i, B_j>``.

The core routine is *chunked* over nonzeros, with the chunk sized in
bytes so the gathered row blocks ``A[rows]`` / ``B[cols]`` stay a few MB
whatever the width — the same blocking consideration the paper discusses
for shared-memory SDDMM (Section III-A).

Each public kernel takes an optional ``profile``; when the profile
carries a compiled kernel backend (``profile.kernels``, attached by the
session for ``kernels="numba"``), the inner compute loop dispatches to
it for float64 operands and the wrapper keeps all bookkeeping (FLOP
accounting, tracer spans, ``s_vals`` scaling, ``col_range`` slicing).
Non-float64 operands always take the numpy path — the compiled backend
covers the library's working dtype only, so dtype edge cases behave
identically under every backend.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock

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


def _kernel_impl(profile: Optional[RankProfile]):
    """The compiled kernel backend carried by ``profile``, or ``None``.

    ``None`` (no profile, or ``kernels="numpy"``) selects the inline
    numpy paths — the default costs one attribute read per kernel call.
    """
    return profile.kernels if profile is not None else None


def _f64(*arrays: np.ndarray) -> bool:
    """True when every array is float64 (the compiled backends' dtype)."""
    return all(a.dtype == np.float64 for a in arrays)


def sddmm_coo(
    A: np.ndarray,
    B: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    s_vals: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    accumulate: bool = False,
    col_range: Optional[tuple] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """SDDMM on COO coordinates.

    Parameters
    ----------
    A, B:
        Dense row-major matrices; ``A[rows[k]]`` and ``B[cols[k]]`` must be
        valid for every nonzero ``k``.
    rows, cols:
        Nonzero coordinates (local to A's / B's row spaces).
    s_vals:
        Optional sparse-matrix values to multiply into the dots (the
        ``S *`` part of the definition).  ``None`` means pattern-only
        (values implicitly 1), which is what FusedMM-style attention and
        the partial-accumulation paths of the distributed algorithms use.
    out, accumulate:
        With ``accumulate=True`` the dots are *added* into ``out`` — the
        primitive used when partial dot products over a column strip of A
        and B accumulate across phases (1.5D sparse shift, 2.5D kernels).
    col_range:
        Optional ``(k0, k1)`` column strip of A and B to restrict the dot
        products to (partial SDDMM over an r-strip).
    profile:
        FLOP accounting sink.

    Returns the values array (length ``len(rows)``).
    """
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    nnz = len(rows)
    if out is None:
        out = np.zeros(nnz, dtype=np.float64)  # freshly zeroed
    elif not accumulate:
        out[:] = 0.0
    if col_range is not None:
        k0, k1 = col_range
        A = A[:, k0:k1]
        B = B[:, k0:k1]
    r = A.shape[1]
    impl = _kernel_impl(profile)
    if impl is not None and _f64(A, B, out):
        impl.sddmm_dots_add(
            np.ascontiguousarray(A),
            np.ascontiguousarray(B),
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(cols, dtype=np.int64),
            out,
        )
    else:
        chunk = _chunk_nnz(A)
        for s in range(0, nnz, chunk):
            e = min(s + chunk, nnz)
            ga = A[rows[s:e]]
            gb = B[cols[s:e]]
            # einsum computes the row-wise dots without materializing ga*gb
            out[s:e] += np.einsum("ij,ij->i", ga, gb)
    if s_vals is not None:
        out *= s_vals
    if profile is not None:
        profile.add_flops(2 * nnz * r + (nnz if s_vals is not None else 0))
        if tracer is not None:
            tracer.span("sddmm", "kernel", t0, time.perf_counter())
    return out


def sddmm_block(
    A: np.ndarray,
    B: np.ndarray,
    block: SparseBlock,
    use_values: bool = True,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """SDDMM against a :class:`SparseBlock`; returns new values for it."""
    return sddmm_coo(
        A,
        B,
        block.rows,
        block.cols,
        s_vals=block.vals if use_values else None,
        profile=profile,
    )


def gat_edge_scores(
    uL: np.ndarray,
    uR: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    negative_slope: float = 0.2,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """Graph-attention edge scores ``LeakyReLU(uL[i] + uR[j])``.

    The paper observes that the GAT score matrix
    ``(A_GAT)_{ij} = a^T (A_i || A_j)`` decomposes into per-node scalars
    ``uL = H @ a_left`` and ``uR = H @ a_right``, so its sampled evaluation
    has the *identical communication pattern* to an SDDMM.  This kernel is
    the local piece; distributed execution routes through the same
    machinery as :func:`sddmm_coo` with width-2 dense operands.
    """
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    impl = _kernel_impl(profile)
    if impl is not None and _f64(uL, uR):
        e = np.empty(len(rows), dtype=np.float64)
        impl.gat_edge_scores(
            np.ascontiguousarray(uL),
            np.ascontiguousarray(uR),
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(cols, dtype=np.int64),
            float(negative_slope),
            e,
        )
    else:
        e = uL[rows] + uR[cols]
        np.multiply(e, negative_slope, out=e, where=e < 0)
    if profile is not None:
        profile.add_flops(2 * len(rows))
        if tracer is not None:
            tracer.span("gat-edge-scores", "kernel", t0, time.perf_counter())
    return e


def make_gat_operands(uL: np.ndarray, uR: np.ndarray) -> tuple:
    """Lift GAT score vectors into width-2 SDDMM operands.

    ``SDDMM(A', B', S)`` with ``A' = [uL, 1]`` and ``B' = [1, uR]``
    computes ``uL[i] + uR[j]`` at every nonzero, proving the paper's claim
    that GAT attention is an SDDMM in disguise.
    """
    A2 = np.stack([uL, np.ones_like(uL)], axis=1)
    B2 = np.stack([np.ones_like(uR), uR], axis=1)
    return A2, B2


class GatScoreOp:
    """Structured GAT edge op for :func:`sddmm_custom`.

    Computes ``LeakyReLU(<A_i, a_row> + <B_j, a_col>)`` per edge — the
    fused attention-score kernel of the GAT app.  Being a *structured*
    op (rather than an opaque closure) lets the compiled kernel backends
    recognize it and run the whole score computation in one jitted pass,
    and lets it carry an honest per-edge FLOP count (two width-r dots,
    one add, one compare/multiply) instead of ``sddmm_custom``'s generic
    ``2*r`` estimate.
    """

    __slots__ = ("a_row", "a_col", "negative_slope")

    def __init__(
        self, a_row: np.ndarray, a_col: np.ndarray, negative_slope: float = 0.2
    ) -> None:
        self.a_row = a_row
        self.a_col = a_col
        self.negative_slope = negative_slope

    @property
    def flops_per_edge(self) -> int:
        return 4 * len(self.a_row) + 2

    def __call__(self, ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        e = ga @ self.a_row + gb @ self.a_col
        return np.where(e >= 0, e, self.negative_slope * e)


def sddmm_custom(
    A: np.ndarray,
    B: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    edge_op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    flops_per_edge: Optional[int] = None,
    profile: Optional[RankProfile] = None,
) -> np.ndarray:
    """Generalized SDDMM: ``edge_op(A[rows_chunk], B[cols_chunk])`` per chunk.

    Lets applications compute arbitrary per-edge functions of the incident
    dense rows while reusing the SDDMM data movement (used by the GAT app
    for fused score computation, and available for user extensions).

    FLOP accounting uses, in order of preference: an explicit
    ``flops_per_edge`` argument, the op's own ``flops_per_edge``
    attribute (see :class:`GatScoreOp`), then the generic dense-dot
    estimate ``2 * A.shape[1]`` — so structured ops no longer overstate
    (or understate) compute in reports.

    A compiled kernel backend runs :class:`GatScoreOp` in one jitted
    pass; opaque callables always execute the numpy chunk loop (they are
    arbitrary Python, so every backend produces bitwise-identical output
    for them by construction).
    """
    tracer = profile.tracer if profile is not None else None
    t0 = time.perf_counter() if tracer is not None else 0.0
    nnz = len(rows)
    if flops_per_edge is None:
        flops_per_edge = getattr(edge_op, "flops_per_edge", 2 * A.shape[1])
    out = np.empty(nnz, dtype=np.float64)
    impl = _kernel_impl(profile)
    if (
        impl is not None
        and isinstance(edge_op, GatScoreOp)
        and _f64(A, B, edge_op.a_row, edge_op.a_col)
    ):
        impl.sddmm_gat_score(
            np.ascontiguousarray(A),
            np.ascontiguousarray(B),
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(cols, dtype=np.int64),
            np.ascontiguousarray(edge_op.a_row),
            np.ascontiguousarray(edge_op.a_col),
            float(edge_op.negative_slope),
            out,
        )
    else:
        chunk = _chunk_nnz(A)
        for s in range(0, nnz, chunk):
            e = min(s + chunk, nnz)
            # named, like sddmm_coo's, so the previous chunk's blocks are
            # released one at a time as the next are bound: dropping both
            # at once lets the allocator trim the heap and re-fault the
            # pages on every chunk (measured 41 vs 19 ms at nnz 131 072)
            ga = A[rows[s:e]]
            gb = B[cols[s:e]]
            out[s:e] = edge_op(ga, gb)
    if profile is not None:
        profile.add_flops(nnz * flops_per_edge)
        if tracer is not None:
            tracer.span("sddmm-custom", "kernel", t0, time.perf_counter())
    return out
