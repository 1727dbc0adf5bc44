"""The residual FusedMM: ``SpMM(S − pattern(S) * (A Bᵀ), ·)`` in one call.

A 1.5D family's SDDMM takes ``residual=True`` (``rank_kernel``, the dense
family's local kernel fusion through ``fusedmm_local``, and the shared
``rank_fusedmm_reuse``, which passes it on only when set): it leaves
``R = S_vals − dots`` with pattern-only dots, so a FusedMM's own two
rounds compute ``SpMM(S − pattern(S) * (A Bᵀ))`` — ALS's start residual
``rhs − M x0`` without a right-hand-side SpMM.  Covered for every 1.5D
family x elision x comm (sparse shift on both modes), both variants:

* ``R`` is bitwise ``S_vals −`` the same family's ``use_values=False``
  dots;
* the output is allclose to the serial
  ``SpMM(S − pattern(S) * (A Bᵀ))``;
* a family without the option (2.5D) is never handed it.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro
from repro.algorithms.dense_repl_25d import DenseReplicate25D
from repro.algorithms.fused import native_procedure
from repro.baselines import serial
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, FusedVariant
from tests.conftest import require_world_size

P, C = 8, 2

CASES = [
    ("1.5d-sparse-shift", Elision.NONE, "dense"),
    ("1.5d-sparse-shift", Elision.NONE, "sparse"),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, "dense"),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, "sparse"),
    ("1.5d-dense-shift", Elision.NONE, "dense"),
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE, "dense"),
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION, "dense"),
]


@pytest.fixture(scope="module")
def problem():
    m, n, r = 96, 72, 8
    S = erdos_renyi(m, n, 5, seed=3)
    rng = np.random.default_rng(11)
    return S, rng.standard_normal((m, r)), rng.standard_normal((n, r))


def _fused(sess, variant, elision, A, B, **kw):
    """One FusedMM ``variant`` through the family's native procedure with
    ``kw``; returns ``(output, R in S's coordinates)``."""
    transpose, native, method = native_procedure(sess.alg, variant, elision)

    def body(ctx, plan, local, **extra):
        method(ctx, plan, local, **kw, **extra)

    out, R, _ = sess.run_rank(
        body, *((B, A) if transpose else (A, B)),
        transpose=transpose, collect=(native, "sddmm"),
    )
    return out, R


@pytest.mark.parametrize(
    "name,el,comm", CASES, ids=[f"{n}/{e.value}/{cm}" for n, e, cm in CASES]
)
@pytest.mark.parametrize("variant", list(FusedVariant), ids=lambda v: v.value)
def test_residual_fusedmm(exec_backend, problem, name, el, comm, variant):
    require_world_size(exec_backend, P)
    S, A, B = problem
    with repro.plan(S, A.shape[1], p=P, c=C, algorithm=name, elision=el,
                    comm=comm, backend=exec_backend) as sess:
        out, R = _fused(sess, variant, el, A, B, residual=True)
        _, dots = _fused(sess, variant, el, A, B, use_values=False)
    for got in (R, dots):
        assert np.array_equal(got.rows, S.rows) and np.array_equal(got.cols, S.cols)
    assert R.vals.tobytes() == (S.vals - dots.vals).tobytes()

    pattern = S.with_values(np.ones(S.nnz))
    resid = S.with_values(S.vals - serial.sddmm_serial(pattern, A, B).vals)
    want = (
        serial.spmm_a_serial(resid, B) if variant == FusedVariant.FUSED_A
        else serial.spmm_b_serial(resid, A)
    )
    np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("el", [Elision.NONE, Elision.REPLICATION_REUSE])
def test_a_family_without_the_option_is_never_handed_it(
    exec_backend, problem, monkeypatch, el
):
    """2.5D's ``rank_kernel`` has no ``residual``; every FusedMM it runs
    through the shared procedures reaches it without the keyword."""
    if exec_backend != "threads":
        pytest.skip("records the rank calls of in-process rank threads")
    assert "residual" not in inspect.signature(DenseReplicate25D.rank_kernel).parameters
    S, A, B = problem
    seen = []
    rank_kernel = DenseReplicate25D.rank_kernel

    def recording(self, *args, **kw):
        seen.append(set(kw))
        return rank_kernel(self, *args, **kw)

    monkeypatch.setattr(DenseReplicate25D, "rank_kernel", recording)
    with repro.plan(S, A.shape[1], p=P, c=C, algorithm="2.5d-dense-replicate",
                    elision=el) as sess:
        out_a, _ = sess.fusedmm_a(A, B)
        out_b, _ = sess.fusedmm_b(A, B)
    assert seen and not any("residual" in kw for kw in seen)
    np.testing.assert_allclose(out_a, serial.fusedmm_a_serial(S, A, B), rtol=1e-10)
    np.testing.assert_allclose(out_b, serial.fusedmm_b_serial(S, A, B), rtol=1e-10)
