"""Which rank procedure serves a FusedMM request: variant x elision -> native.

Each elision strategy is *native* to one output shape (Section IV-B):
replication reuse re-uses the replication of the m-side matrix and
accumulates a B-shaped output (FusedMMB); local kernel fusion accumulates
an A-shaped output (FusedMMA).  The other variant is obtained exactly as
the paper prescribes: "we obtain algorithms for FusedMMB by interchanging
the roles of A and B and replacing matrix S with its transpose" — i.e.

``FusedMMA(S, A, B) == FusedMMB(S.T, B, A)`` and vice versa.

:func:`native_procedure` maps a requested ``(variant, elision)`` onto the
family's native rank procedure and says whether the call must run on the
transposed distribution (the paper notes this "amounts to storing two
copies of the sparse matrix", one transposed).  Running it — planning,
binding operands, dispatching to the ranks, collecting — is
:class:`repro.session.Session`'s job; nothing here launches anything.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.errors import ReproError
from repro.types import Elision, FusedVariant

#: (elision, native output side) -> the family method that implements it
_NATIVE_METHODS = {
    (Elision.NONE, "a"): "rank_fusedmm_none_a",
    (Elision.NONE, "b"): "rank_fusedmm_none_b",
    (Elision.REPLICATION_REUSE, "b"): "rank_fusedmm_reuse",
    (Elision.LOCAL_KERNEL_FUSION, "a"): "rank_fusedmm_lkf",
}


def native_procedure(
    alg, variant: FusedVariant, elision: Elision
) -> Tuple[bool, str, Callable]:
    """Return ``(transpose, native, method)`` for a fused request on ``alg``.

    Run ``method(ctx, plan, local, ...)`` against the ``transpose``
    orientation: ``transpose=True`` means the native procedure runs on
    ``(S.T, B, A)`` and the output is read from the opposite dense
    operand.  ``native`` (``"a"`` or ``"b"``) names the ``local`` slot that
    holds the output; the other slot holds the fixed operand.
    """
    if elision not in alg.elisions:
        raise ReproError(
            f"{alg.name} supports elisions {[e.value for e in alg.elisions]}, "
            f"not {elision.value}"
        )
    want = "a" if variant == FusedVariant.FUSED_A else "b"
    native = alg.native_variant[elision]
    transpose = native not in ("either", want)
    if not transpose:
        native = want
    name = _NATIVE_METHODS.get((elision, native))
    if name is None or not hasattr(alg, name):
        raise ReproError(
            f"{alg.name} does not implement elision={elision.value} (native {native})"
        )
    return transpose, native, getattr(alg, name)
