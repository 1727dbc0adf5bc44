"""High-level public API: the session handle plus one-shot wrappers.

The primary entry point is :func:`repro.plan` — it resolves every knob
(algorithm family, replication factor, elision, communication mode) once,
distributes the sparse operand per the chosen Table II layout, builds the
need-list comm plans / packed indexes / buffer pools, and returns a
:class:`~repro.session.Session` whose kernel methods run repeatedly
against that resident distributed state:

    >>> import numpy as np, repro
    >>> S = repro.erdos_renyi(1024, 1024, nnz_per_row=8, seed=0)
    >>> A = np.random.default_rng(0).standard_normal((1024, 64))
    >>> B = np.random.default_rng(1).standard_normal((1024, 64))
    >>> with repro.plan(S, r=64, p=8, c=2, algorithm="1.5d-dense-shift",
    ...                 elision="local-kernel-fusion") as sess:
    ...     for _ in range(5):
    ...         out, report = sess.fusedmm_a(A, B)

Iterative workloads (ALS sweeps, GAT epochs) amortize all driver-side
setup this way: only the dense operands move per call.

The module-level one-shot functions below (:func:`sddmm`, :func:`spmm_a`,
:func:`spmm_b`, :func:`fusedmm_a`, :func:`fusedmm_b`) keep their original
call shapes and semantics — each is ``with plan(S, r, **knobs) as sess:``
plus ``calls`` invocations of the session method of the same name, and
returns the last output together with the accumulated
:class:`~repro.runtime.profile.RunReport` (feed the report a
:class:`~repro.runtime.cost.MachineParams` for modeled cluster times).
Every :func:`repro.plan` knob is accepted by keyword and forwarded; the
session (and its worker pool) is always closed on return, also when the
kernel raises.

Algorithm may be ``"auto"``: the Table III/IV model picks the cheapest
family for the operands' ``phi = nnz/(n r)``, which is the paper's
bottom-line recommendation.

``comm`` selects the communication layer: ``"dense"`` (default) uses the
ring collectives whose costs the paper analyzes; ``"sparse"`` uses
need-list neighborhood collectives (:mod:`repro.comm_sparse`) that move
only the dense rows the sparse structure touches; ``"auto"`` lets the
extended alpha-beta model pick per run.

For traffic made of many small per-user requests instead of one caller
in a loop, :class:`repro.serve.Server` (re-exported here) micro-batches
typed requests into panels on fleets of resident sessions — see
:mod:`repro.serve`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ReproError
from repro.runtime.profile import RunReport
from repro.serve.server import Server
from repro.session import Session, plan
from repro.sparse.coo import CooMatrix

__all__ = [
    "plan",
    "Session",
    "Server",
    "sddmm",
    "spmm_a",
    "spmm_b",
    "fusedmm_a",
    "fusedmm_b",
]


def _width(X) -> int:
    """The embedding width ``r`` a one-shot call plans its session for."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ReproError(
            f"operand shapes inconsistent: dense operands must be 2-D "
            f"arrays, got shape {X.shape}"
        )
    return X.shape[1]


def sddmm(
    S,
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str = "1.5d-dense-shift",
    calls: int = 1,
    **knobs,
) -> Tuple[CooMatrix, RunReport]:
    """Distributed ``SDDMM(A, B, S) = S * (A @ B.T)``.

    Returns the sampled output (same pattern as S) and the run report
    accumulated over ``calls`` invocations.  ``knobs`` are forwarded to
    :func:`repro.plan` (``p``, ``c``, ``comm``, ``trace``,
    ``deadline_ms``, ``retries``, ``backend``, ``kernels``, ...).  With
    ``trace="on"`` the report's profiles carry span tracers — feed the
    report to :func:`repro.export_chrome_trace` /
    :meth:`repro.TimelineStats.from_report`.
    """
    with plan(S, _width(A), algorithm=algorithm, **knobs) as sess:
        for _ in range(max(calls, 1)):
            result = sess.sddmm(A, B)
    return result


def spmm_a(
    S, B: np.ndarray, algorithm: str = "1.5d-dense-shift", calls: int = 1, **knobs
) -> Tuple[np.ndarray, RunReport]:
    """Distributed ``SpMMA(S, B) = S @ B`` (see :func:`sddmm`)."""
    with plan(S, _width(B), algorithm=algorithm, **knobs) as sess:
        for _ in range(max(calls, 1)):
            result = sess.spmm_a(B)
    return result


def spmm_b(
    S, A: np.ndarray, algorithm: str = "1.5d-dense-shift", calls: int = 1, **knobs
) -> Tuple[np.ndarray, RunReport]:
    """Distributed ``SpMMB(S, A) = S.T @ A`` (see :func:`sddmm`)."""
    with plan(S, _width(A), algorithm=algorithm, **knobs) as sess:
        for _ in range(max(calls, 1)):
            result = sess.spmm_b(A)
    return result


def fusedmm_a(
    S,
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str = "1.5d-dense-shift",
    calls: int = 1,
    collect_sddmm: bool = False,
    **knobs,
):
    """Distributed ``FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)``.

    Returns what :meth:`Session.fusedmm_a` returns; ``knobs`` (including
    ``elision``) are forwarded to :func:`repro.plan`.
    """
    with plan(S, _width(A), algorithm=algorithm, **knobs) as sess:
        for _ in range(max(calls, 1)):
            result = sess.fusedmm_a(A, B, collect_sddmm=collect_sddmm)
    return result


def fusedmm_b(
    S,
    A: np.ndarray,
    B: np.ndarray,
    algorithm: str = "1.5d-dense-shift",
    calls: int = 1,
    collect_sddmm: bool = False,
    **knobs,
):
    """Distributed ``FusedMMB(S, A, B) = SpMMB(SDDMM(A, B, S), A)`` (see
    :func:`fusedmm_a`)."""
    with plan(S, _width(A), algorithm=algorithm, **knobs) as sess:
        for _ in range(max(calls, 1)):
            result = sess.fusedmm_b(A, B, collect_sddmm=collect_sddmm)
    return result
