"""Top-level FusedMM driver: variant x elision x algorithm dispatch.

Each elision strategy is *native* to one output shape (Section IV-B):
replication reuse re-uses the replication of the m-side matrix and
accumulates a B-shaped output (FusedMMB); local kernel fusion accumulates
an A-shaped output (FusedMMA).  The other variant is obtained exactly as
the paper prescribes: "we obtain algorithms for FusedMMB by interchanging
the roles of A and B and replacing matrix S with its transpose" — i.e.

``FusedMMA(S, A, B) == FusedMMB(S.T, B, A)`` and vice versa.

This module maps a user-requested ``(variant, elision)`` onto the native
procedure, transposing the distribution when needed (the paper notes this
"amounts to storing two copies of the sparse matrix", one transposed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.runtime.profile import RunReport
from repro.sparse.coo import CooMatrix
from repro.types import CommMode, Elision, FusedVariant


def _native_method(alg, elision: Elision, native: str) -> Callable:
    table = {
        (Elision.NONE, "a"): "rank_fusedmm_none_a",
        (Elision.NONE, "b"): "rank_fusedmm_none_b",
        (Elision.REPLICATION_REUSE, "b"): "rank_fusedmm_reuse",
        (Elision.LOCAL_KERNEL_FUSION, "a"): "rank_fusedmm_lkf",
    }
    name = table.get((elision, native))
    if name is None or not hasattr(alg, name):
        raise ReproError(
            f"{alg.name} does not implement elision={elision.value} (native {native})"
        )
    return getattr(alg, name)


def resolve_orientation(
    alg, variant: FusedVariant, elision: Elision
) -> Tuple[bool, str]:
    """Return ``(transpose_inputs, native_variant)`` for this request.

    ``transpose_inputs=True`` means run the native procedure on
    ``(S.T, B, A)`` and read the output from the opposite dense operand.
    """
    if elision not in alg.elisions:
        raise ReproError(
            f"{alg.name} supports elisions {[e.value for e in alg.elisions]}, "
            f"not {elision.value}"
        )
    want = "a" if variant == FusedVariant.FUSED_A else "b"
    native = alg.native_variant[elision]
    if native == "either" or native == want:
        return False, want
    return True, native


@dataclass
class FusedResult:
    """Output of a driver-level FusedMM run."""

    output: np.ndarray  # the dense FusedMM result (m x r for A, n x r for B)
    sddmm: Optional[CooMatrix]  # intermediate R when reassembled (may be None)
    report: RunReport


def run_fusedmm(
    alg,
    S: CooMatrix,
    A: np.ndarray,
    B: np.ndarray,
    variant: FusedVariant = FusedVariant.FUSED_A,
    elision: Elision = Elision.NONE,
    calls: int = 1,
    collect_sddmm: bool = False,
    comm_mode: Union[str, CommMode] = CommMode.DENSE,
    overlap: str = "off",
) -> FusedResult:
    """Run ``calls`` FusedMM invocations on a throwaway session and collect.

    A shim over :func:`repro.plan` for callers that hold an algorithm
    instance: the session is planned for ``alg``'s family and grid
    (``alg.name``, ``alg.p``, ``alg.c``).  ``calls > 1`` mirrors the
    paper's benchmarking methodology ("time for 5 FusedMM calls"): the
    sparse operand is distributed **once** on the session and the
    per-rank cost profiles accumulate across calls.  ``overlap`` defaults
    to the synchronous schedule, so baseline measurements stay baseline.
    """
    from repro.session import plan  # session builds on this module

    A = np.asarray(A)
    if A.ndim != 2:
        raise ReproError(f"operand shapes inconsistent: S{S.shape}, A{A.shape}")
    with plan(
        S, A.shape[1], p=alg.p, c=alg.c, algorithm=alg.name, elision=elision,
        comm=comm_mode, overlap=overlap,
    ) as sess:
        kernel = sess.fusedmm_a if variant == FusedVariant.FUSED_A else sess.fusedmm_b
        for _ in range(max(calls, 1)):
            res = kernel(A, B, collect_sddmm=collect_sddmm)
    return FusedResult(
        output=res[0], sddmm=res[1] if collect_sddmm else None, report=res[-1]
    )
