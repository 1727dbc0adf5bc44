"""Local SDDMM kernels.

``SDDMM(A, B, S) = S * (A @ B.T)`` evaluated only at the nonzeros of S:
for each nonzero ``(i, j)``, the output value is ``S_ij * <A_i, B_j>``.

The core routine is *chunked* over nonzeros, with the chunk sized in
bytes so the gathered row blocks ``A[rows]`` / ``B[cols]`` stay a few MB
whatever the width — the same blocking consideration the paper discusses
for shared-memory SDDMM (Section III-A).

Each public kernel is bookkeeping (FLOP accounting, tracer spans,
``s_vals`` scaling, ``col_range`` slicing) around one inner-compute hook
of a kernel backend: the compiled one carried by the optional
``profile`` (``profile.kernels``, attached by the session for
``kernels="numba"``) when every operand is float64, else
:data:`~repro.kernels.backend_numpy.NUMPY` — the compiled backends cover
the library's working dtype only, so dtype edge cases behave identically
under every backend.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.kernels.backend_numpy import NUMPY
from repro.runtime.profile import RankProfile


def _kernel_impl(profile: Optional[RankProfile], *operands: np.ndarray):
    """The kernel backend for one call on ``operands``.

    The backend ``profile`` carries when every operand is float64 (the
    compiled backends' dtype); the numpy backend otherwise, and when
    there is no profile or nothing is attached to it.
    """
    impl = profile.kernels if profile is not None else None
    if impl is None or impl is NUMPY:
        return NUMPY  # no dtype scan on the default backend's hot path
    return impl if all(a.dtype == np.float64 for a in operands) else NUMPY


def _edge_operands(A, B, rows, cols) -> tuple:
    """Dense operands C-contiguous, coordinates contiguous int64 (what the
    compiled hooks index; a no-op for arrays that already are)."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    return np.ascontiguousarray(A), np.ascontiguousarray(B), rows, cols


def _span_start(profile: Optional[RankProfile]) -> float:
    """Start of a kernel span when ``profile`` is tracing (unused otherwise)."""
    tracing = profile is not None and profile.tracer is not None
    return time.perf_counter() if tracing else 0.0


def _account(profile: Optional[RankProfile], flops: int, span: str, t0: float):
    """Book ``flops`` and, when tracing, the kernel span begun at ``t0``."""
    if profile is not None:
        profile.add_flops(flops)
        if profile.tracer is not None:
            profile.tracer.span(span, "kernel", t0, time.perf_counter())


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
    t0 = _span_start(profile)
    nnz = len(rows)
    if out is None:
        out = np.zeros(nnz, dtype=np.float64)  # freshly zeroed
    elif not accumulate:
        out[:] = 0.0
    if col_range is not None:
        k0, k1 = col_range
        A = A[:, k0:k1]
        B = B[:, k0:k1]
    impl = _kernel_impl(profile, A, B, out)
    impl.sddmm_dots_add(*_edge_operands(A, B, rows, cols), out)
    if s_vals is not None:
        out *= s_vals
    flops = 2 * nnz * A.shape[1] + (nnz if s_vals is not None else 0)
    _account(profile, flops, "sddmm", t0)
    return out


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
    t0 = _span_start(profile)
    e = np.empty(len(rows), dtype=np.result_type(uL, uR))
    operands = _edge_operands(uL, uR, rows, cols)
    _kernel_impl(profile, uL, uR).gat_edge_scores(*operands, float(negative_slope), e)
    _account(profile, 2 * len(rows), "gat-edge-scores", t0)
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
    t0 = _span_start(profile)
    nnz = len(rows)
    if flops_per_edge is None:
        flops_per_edge = getattr(edge_op, "flops_per_edge", 2 * A.shape[1])
    out = np.empty(nnz, dtype=np.float64)
    if isinstance(edge_op, GatScoreOp):
        a_row, a_col = edge_op.a_row, edge_op.a_col
        _kernel_impl(profile, A, B, a_row, a_col).sddmm_gat_score(
            *_edge_operands(A, B, rows, cols),
            np.ascontiguousarray(a_row),
            np.ascontiguousarray(a_col),
            float(edge_op.negative_slope),
            out,
        )
    else:
        NUMPY.sddmm_edge_op(A, B, rows, cols, edge_op, out)
    _account(profile, nnz * flops_per_edge, "sddmm-custom", t0)
    return out
