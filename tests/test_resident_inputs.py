"""Resident dense blocks are replaced, never written in place.

A retried call re-runs from the blocks it was dispatched with: the worker
pool's failure hook puts each rank's ``A`` / ``B`` references back
(``Session._dispatch``) instead of scattering the operands again.  That is
only right while no kernel writes into a bound block, so here every block
``bind_dense`` binds is marked read-only — an in-place write raises — and
the outputs must be bitwise those of the unwrapped run: all five kernels
on every family x comm, one ALS run and one GAT forward pass.

The same invariant makes a kernel's output transient: once a kernel call
returns or raises, the side it wrote gets its bound input back (an SpMM's
output side, its pre-call blocks), so the next kernel on the same
operands scatters nothing and reads exactly what a fresh session would.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.algorithms.base import DistributedAlgorithm
from repro.algorithms.registry import ALGORITHMS
from repro.apps.als import DistributedALS
from repro.apps.gat import DistributedGAT
from repro.runtime.faults import FaultPlan
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi
from repro.types import Elision
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


@pytest.fixture
def readonly_binds():
    """A context manager under which ``bind_dense`` marks every block it
    binds read-only; it yields the list of blocks frozen so far."""
    bind = DistributedAlgorithm.bind_dense

    @contextmanager
    def frozen():
        blocks = []

        def bind_dense(self, plan, locals_, A, B):
            bind(self, plan, locals_, A, B)
            for loc in locals_:
                for block in (loc.A, loc.B):
                    if block is not None and block.flags.writeable:
                        block.flags.writeable = False
                        blocks.append(block)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DistributedAlgorithm, "bind_dense", bind_dense)
            yield blocks

    return frozen


def _five_kernels(name, comm, elision, S, A, B, A2):
    outs = []
    with repro.plan(
        S, A.shape[1], p=8, c=2, algorithm=name, comm=comm, elision=elision,
    ) as sess:
        # a repeat (skip-rebind, replica reuse), then a changed operand
        for X in (A, A, A2):
            outs.append(sess.sddmm(X, B)[0].vals)
            outs.append(sess.spmm_a(B)[0])
            outs.append(sess.spmm_b(X)[0])
            outs.append(sess.fusedmm_a(X, B)[0])
            outs.append(sess.fusedmm_b(X, B)[0])
    return outs


@pytest.mark.parametrize(
    "name,comm,elision", CASES, ids=[f"{n}/{c}/{e.value}" for n, c, e in CASES]
)
def test_five_kernels_never_write_a_bound_block(
    readonly_binds, name, comm, elision
):
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    A2 = np.random.default_rng(4).standard_normal(A.shape)
    want = _five_kernels(name, comm, elision, S, A, B, A2)
    with readonly_binds() as blocks:
        got = _five_kernels(name, comm, elision, S, A, B, A2)
    assert blocks
    for w, g in zip(want, got):
        np.testing.assert_array_equal(w, g)


KERNELS = {
    "sddmm": lambda s, A, B: s.sddmm(A, B)[0].vals,
    "spmm_a": lambda s, A, B: s.spmm_a(B)[0],
    "spmm_b": lambda s, A, B: s.spmm_b(A)[0],
    "fusedmm_a": lambda s, A, B: s.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda s, A, B: s.fusedmm_b(A, B)[0],
}


@pytest.mark.parametrize(
    "name,comm,elision", CASES, ids=[f"{n}/{c}/{e.value}" for n, c, e in CASES]
)
def test_a_kernel_leaves_its_inputs_resident(readonly_binds, name, comm, elision):
    S, A, B = make_problem(48, 40, 8, 4, seed=3)
    knobs = dict(p=8, c=2, algorithm=name, comm=comm, elision=elision)
    want = {}
    for kernel, run in KERNELS.items():
        with repro.plan(S, A.shape[1], **knobs) as fresh:
            want[kernel] = run(fresh, A, B)
    with readonly_binds() as blocks, repro.plan(S, A.shape[1], **knobs) as sess:
        for run in KERNELS.values():  # binds each orientation's sides once
            run(sess, A, B)
        binds = dict(sess.dense_bind_counts)
        # after each kernel, every kernel on the same operands scatters
        # nothing and reads what a fresh session reads
        for first, run_first in KERNELS.items():
            np.testing.assert_array_equal(run_first(sess, A, B), want[first])
            for kernel, run in KERNELS.items():
                np.testing.assert_array_equal(run(sess, A, B), want[kernel])
                assert sess.dense_bind_counts == binds, (first, kernel)
    assert blocks
    # a call that raises leaves them resident too: the crash fires on the
    # first call's first computation (and on a sparse-comm session's
    # degraded re-run), the repeat skips every bind
    times = 2 if comm == "sparse" else 1
    with readonly_binds():
        for kernel, run in KERNELS.items():
            faults = FaultPlan.crash_at(site="computation", rank=0, times=times)
            with repro.plan(S, A.shape[1], faults=faults, **knobs) as sess:
                with pytest.raises(RuntimeError):
                    run(sess, A, B)
                binds = dict(sess.dense_bind_counts)
                np.testing.assert_array_equal(run(sess, A, B), want[kernel])
                assert sess.dense_bind_counts == binds, kernel
                assert [rec["outcome"] for rec in sess.metrics()] == ["failed", "ok"]


def test_als_never_writes_a_bound_block(readonly_binds):
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
    with readonly_binds() as blocks:
        got = run()
    assert blocks
    np.testing.assert_array_equal(want.A, got.A)
    np.testing.assert_array_equal(want.B, got.B)
    assert want.loss_history == got.loss_history


def test_gat_never_writes_a_bound_block(readonly_binds):
    n = 64
    adj = erdos_renyi(n, n, 5, seed=4, values="ones")
    X = np.random.default_rng(5).standard_normal((n, 12))

    def forward():
        gat = DistributedGAT(
            p=4, c=2, n_heads=2, r_in=12, r_head=6, elision=Elision.NONE, seed=5,
        )
        return gat.forward(adj, X).output

    want = forward()
    with readonly_binds() as blocks:
        got = forward()
    assert blocks
    np.testing.assert_array_equal(want, got)
