"""Which rank procedure serves a kernel request: kernel x elision -> native.

The three single modes are the paper's unified procedure (Algorithms
1-2), ``rank_kernel`` itself.  For FusedMM, each elision strategy is
*native* to one output shape (Section IV-B): replication reuse re-uses the
replication of the m-side matrix and accumulates a B-shaped output
(FusedMMB); local kernel fusion accumulates an A-shaped output (FusedMMA).
The other variant is obtained exactly as the paper prescribes: "we obtain
algorithms for FusedMMB by interchanging the roles of A and B and
replacing matrix S with its transpose" — i.e.

``FusedMMA(S, A, B) == FusedMMB(S.T, B, A)`` and vice versa.

:func:`native_procedure`, the one table for all five kernels, maps a
requested ``(kernel, elision)`` onto the family's rank procedure, the side
it writes, and whether the call must run on the transposed distribution
(the paper notes this "amounts to storing two copies of the sparse
matrix", one transposed).  Running it — planning, binding operands,
dispatching to the ranks, collecting — is
:class:`repro.session.Session`'s job; nothing here launches anything.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Tuple, Union

from repro.errors import ReproError
from repro.types import Elision, FusedVariant, Mode

#: single mode -> the dense side its output overwrites ("": the SDDMM
#: output R, which lives with the sparse values)
_WRITTEN_SIDE = {Mode.SDDMM: "", Mode.SPMM_A: "a", Mode.SPMM_B: "b"}

#: (elision, native output side) -> the family method that implements it
_NATIVE_METHODS = {
    (Elision.NONE, "a"): "rank_fusedmm_none_a",
    (Elision.NONE, "b"): "rank_fusedmm_none_b",
    (Elision.REPLICATION_REUSE, "b"): "rank_fusedmm_reuse",
    (Elision.LOCAL_KERNEL_FUSION, "a"): "rank_fusedmm_lkf",
}


def native_procedure(
    alg, kernel: Union[Mode, FusedVariant], elision: Elision
) -> Tuple[bool, str, Callable]:
    """Return ``(transpose, written_side, method)`` for ``kernel`` on ``alg``.

    Run ``method(ctx, plan, local, ...)`` against the ``transpose``
    orientation: ``transpose=True`` means the native procedure runs on
    ``(S.T, B, A)`` and the output is read from the opposite dense
    operand.  ``written_side`` (``"a"`` or ``"b"``) names the ``local``
    slot that holds the output, or is ``""`` for the SDDMM.  A single mode
    runs un-transposed on ``rank_kernel(mode=...)`` under any elision.
    """
    if isinstance(kernel, Mode):
        return False, _WRITTEN_SIDE[kernel], partial(alg.rank_kernel, mode=kernel)
    if elision not in alg.elisions:
        raise ReproError(
            f"{alg.name} supports elisions {[e.value for e in alg.elisions]}, "
            f"not {elision.value}"
        )
    want = "a" if kernel == FusedVariant.FUSED_A else "b"
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
