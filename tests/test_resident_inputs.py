"""Resident blocks are replaced, never written in place.

A retried call re-runs from the blocks it was dispatched with: the worker
pool's failure hook puts each rank's ``A`` / ``B`` references back
(``Session._call``'s one put-back list) instead of scattering the
operands again.  That is only right while no rank procedure writes into
a resident block, so ``bind_dense`` marks every dense block it binds
read-only, and ``distribute_sparse`` / ``update_values`` every sparse
value array — an in-place write raises.  Covered here: all five kernels
on every family x comm, whose outputs are bitwise a fresh session's, one
ALS run and one GAT forward pass; after each, every resident dense block
and sparse value array of every orientation is still read-only.

A call binds only its inputs: an SpMM's output side keeps whatever it
held (the ``distribute_sparse`` placeholder, or an earlier call's
operand) and the procedure sizes its output from the plan.  Every call's
output is transient: once a kernel or ``run_rank`` call returns or
raises, each side holds the blocks it was dispatched with again, so the
next call on the same operands scatters nothing and reads exactly what a
fresh session would.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import repro
from repro.algorithms.registry import ALGORITHMS
from repro.apps.als import DistributedALS
from repro.apps.gat import DistributedGAT
from repro.baselines.serial import spmm_a_serial, spmm_b_serial
from repro.runtime.faults import FaultPlan
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, Mode
from tests.conftest import make_problem

FAMILY_COMMS = [
    ("1.5d-dense-shift", "dense"),
    ("1.5d-sparse-shift", "dense"),
    ("1.5d-sparse-shift", "sparse"),
    ("2.5d-dense-replicate", "dense"),
    ("2.5d-sparse-replicate", "dense"),
    ("2.5d-sparse-replicate", "sparse"),
]
CASES = [
    (name, comm, elision)
    for name, comm in FAMILY_COMMS
    for elision in ALGORITHMS[name].elisions
]


def _sparse_values(loc):
    """Every resident sparse value array of one rank's local."""
    values = [getattr(loc, name) for name in ("S_vals", "S_vals_chunk")
              if hasattr(loc, name)]
    blocks = getattr(loc, "S", {})
    if isinstance(blocks, SparseBlock):  # 2.5D sparse replicate's shared block
        blocks = {None: blocks}
    return values + [blk.vals for blk in blocks.values()]


def _assert_values_frozen(locals_):
    values = [vals for loc in locals_ for vals in _sparse_values(loc)]
    assert any(len(vals) for vals in values)
    assert not any(vals.flags.writeable for vals in values)


def _assert_frozen(sess):
    """Every resident ``A`` / ``B`` block and every resident sparse value
    array of every orientation is read-only."""
    blocks = [
        block
        for ori in sess._orients.values()
        for loc in ori.locals_
        for block in (loc.A, loc.B)
    ]
    assert blocks
    assert not any(block.flags.writeable for block in blocks)
    for ori in sess._orients.values():
        _assert_values_frozen(ori.locals_)


@pytest.fixture
def frozen_at_close(monkeypatch):
    """Checks every session the test closes with :func:`_assert_frozen`
    first; returns the list of sessions checked."""
    checked = []
    close = repro.Session.close

    def checking_close(self):
        try:
            if not self.closed:
                _assert_frozen(self)
                checked.append(self)
        finally:
            close(self)

    monkeypatch.setattr(repro.Session, "close", checking_close)
    return checked


FIVE = {
    "sddmm": lambda s, A, B: s.sddmm(A, B)[0].vals,
    "spmm_a": lambda s, A, B: s.spmm_a(B)[0],
    "spmm_b": lambda s, A, B: s.spmm_b(A)[0],
    "fusedmm_a": lambda s, A, B: s.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda s, A, B: s.fusedmm_b(A, B)[0],
}


@pytest.mark.parametrize(
    "name,comm,elision", CASES, ids=[f"{n}/{c}/{e.value}" for n, c, e in CASES]
)
def test_five_kernels_never_write_a_bound_block(name, comm, elision):
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    A2 = np.random.default_rng(4).standard_normal(A.shape)
    knobs = dict(p=8, c=2, algorithm=name, comm=comm, elision=elision)
    want = {}
    for X in (A, A2):
        for kernel, run in FIVE.items():
            with repro.plan(S, A.shape[1], **knobs) as fresh:
                want[kernel, X is A2] = run(fresh, X, B)
    with repro.plan(S, A.shape[1], **knobs) as sess:
        # a repeat (skip-rebind, replica reuse), then a changed operand
        for X in (A, A, A2):
            for kernel, run in FIVE.items():
                np.testing.assert_array_equal(run(sess, X, B), want[kernel, X is A2])
        _assert_frozen(sess)


#: the five kernels, and two ``run_rank`` calls: a forward SDDMM and an
#: SpMMA on the transposed sibling ``(S.T, B, A)``
KERNELS = {
    **FIVE,
    "run_rank/sddmm": lambda s, A, B: s.run_rank(
        partial(s.alg.rank_kernel, mode=Mode.SDDMM), A, B, collect="sddmm",
    )[0].vals,
    "run_rank/sibling-spmm_a": lambda s, A, B: s.run_rank(
        partial(s.alg.rank_kernel, mode=Mode.SPMM_A), B, A, transpose=True,
        collect="a",
    )[0],
}


@pytest.mark.parametrize(
    "name,comm,elision", CASES, ids=[f"{n}/{c}/{e.value}" for n, c, e in CASES]
)
def test_a_kernel_leaves_its_inputs_resident(name, comm, elision):
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    knobs = dict(p=8, c=2, algorithm=name, comm=comm, elision=elision)
    want = {}
    for kernel, run in KERNELS.items():
        with repro.plan(S, A.shape[1], **knobs) as fresh:
            want[kernel] = run(fresh, A, B)
    with repro.plan(S, A.shape[1], **knobs) as sess:
        for run in KERNELS.values():  # binds each orientation's sides once
            run(sess, A, B)
        binds = dict(sess.dense_bind_counts)
        # after each call, every call on the same operands scatters
        # nothing and reads what a fresh session reads
        for first, run_first in KERNELS.items():
            np.testing.assert_array_equal(run_first(sess, A, B), want[first])
            for kernel, run in KERNELS.items():
                np.testing.assert_array_equal(run(sess, A, B), want[kernel])
                assert sess.dense_bind_counts == binds, (first, kernel)
        _assert_frozen(sess)
    # a call that raises leaves them resident too: the crash fires on the
    # first call's first computation (and on a sparse-comm session's
    # degraded re-run of a kernel; run_rank fails fast), the repeat skips
    # every bind
    for kernel, run in KERNELS.items():
        degrades = comm == "sparse" and kernel in FIVE
        faults = FaultPlan.crash_at(
            site="computation", rank=0, times=2 if degrades else 1
        )
        with repro.plan(S, A.shape[1], faults=faults, **knobs) as sess:
            with pytest.raises(RuntimeError):
                run(sess, A, B)
            binds = dict(sess.dense_bind_counts)
            np.testing.assert_array_equal(run(sess, A, B), want[kernel])
            assert sess.dense_bind_counts == binds, kernel
            assert [rec["outcome"] for rec in sess.metrics()] == ["failed", "ok"]


SPMM = {
    # kernel: (the call, an SDDMM that binds its output side to NaN)
    "spmm_a": (lambda s, A, B: s.spmm_a(B)[0], lambda s, A, B: s.sddmm(A * np.nan, B)),
    "spmm_b": (lambda s, A, B: s.spmm_b(A)[0], lambda s, A, B: s.sddmm(A, B * np.nan)),
}


@pytest.mark.parametrize(
    "name,comm", FAMILY_COMMS, ids=[f"{n}/{c}" for n, c in FAMILY_COMMS]
)
@pytest.mark.parametrize("kernel", sorted(SPMM))
def test_an_spmm_sizes_its_output_from_the_plan(name, comm, kernel):
    """An SpMM never reads its output side's resident blocks: as a
    session's first call (the side is still the ``distribute_sparse``
    placeholder) and after an SDDMM bound that side to NaN, its output is
    bitwise a fresh session's."""
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    knobs = dict(p=8, c=2, algorithm=name, comm=comm)
    run, poison = SPMM[kernel]
    with repro.plan(S, A.shape[1], **knobs) as fresh:
        want = run(fresh, A, B)
    serial = spmm_a_serial(S, B) if kernel == "spmm_a" else spmm_b_serial(S, A)
    np.testing.assert_allclose(want, serial, rtol=1e-12, atol=1e-12)
    with repro.plan(S, A.shape[1], **knobs) as sess:
        np.testing.assert_array_equal(run(sess, A, B), want)
        _assert_frozen(sess)
    with repro.plan(S, A.shape[1], **knobs) as sess:
        poison(sess, A, B)
        np.testing.assert_array_equal(run(sess, A, B), want)
        _assert_frozen(sess)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_resident_sparse_values_are_read_only(name):
    """``distribute_sparse`` and ``update_values`` bind every resident
    sparse value array read-only, so it circulates without a copy."""
    S = erdos_renyi(48, 40, 4, seed=3)
    alg = ALGORITHMS[name](8, 2)
    plan = alg.plan(48, 40, 4)
    locals_ = alg.distribute_sparse(plan, S)
    _assert_values_frozen(locals_)
    alg.update_values(plan, locals_, 2.0 * S.vals)
    _assert_values_frozen(locals_)


@pytest.mark.parametrize("name", ["1.5d-sparse-shift", "2.5d-dense-replicate"])
def test_a_procedure_cannot_write_resident_sparse_values(name):
    """A ``run_rank`` procedure that scales ``local.S_vals`` in place
    raises at the write; the resident values are intact afterwards."""
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    knobs = dict(p=8, c=2, algorithm=name)
    with repro.plan(S, A.shape[1], **knobs) as fresh:
        want = fresh.sddmm(A, B)[0].vals

    def scale(ctx, plan, local):
        local.S_vals[...] *= 2.0

    with repro.plan(S, A.shape[1], **knobs) as sess:
        with pytest.raises(RuntimeError, match="read-only"):
            sess.run_rank(scale, A, B)
        np.testing.assert_array_equal(sess.sddmm(A, B)[0].vals, want)
        _assert_frozen(sess)


def test_als_never_writes_a_bound_block(frozen_at_close):
    rng = np.random.default_rng(0)
    m, n, r = 60, 48, 4
    pat = erdos_renyi(m, n, 8, seed=1)
    At, Bt = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    vals = np.einsum("ij,ij->i", At[pat.rows], Bt[pat.cols])
    C = CooMatrix(pat.rows, pat.cols, vals, (m, n), dedupe=False)

    def run():
        als = DistributedALS(
            p=4, c=2, algorithm="1.5d-dense-shift",
            elision=Elision.REPLICATION_REUSE, lam=0.05, cg_iters=4,
        )
        return als.run(C, r, outer_iters=2, seed=9)

    want = run()
    got = run()
    assert len(frozen_at_close) == 2
    np.testing.assert_array_equal(want.A, got.A)
    np.testing.assert_array_equal(want.B, got.B)
    assert want.loss_history == got.loss_history


def test_gat_never_writes_a_bound_block(frozen_at_close):
    n = 64
    adj = erdos_renyi(n, n, 5, seed=4, values="ones")
    X = np.random.default_rng(5).standard_normal((n, 12))

    def forward():
        with DistributedGAT(
            p=4, c=2, n_heads=2, r_in=12, r_head=6, elision=Elision.NONE, seed=5,
        ) as gat:
            return gat.forward(adj, X).output

    want = forward()
    got = forward()
    assert len(frozen_at_close) == 2
    np.testing.assert_array_equal(want, got)
