"""comm="sparse" must be numerically equivalent to comm="dense".

The central invariant of the sparse communication subsystem: for every
sparse-comm-capable algorithm, every kernel mode, every supported elision
and every feasible replication factor, need-list communication changes
*how much* data moves but never *what* is computed (up to floating-point
reassociation).  Also covers the ``comm="auto"`` policy and the headline
volume reduction the subsystem exists for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import require_world_size
from tests.helpers import (
    SWEEP_NNZ_PER_ROW,
    SWEEP_SPARSE_REPLICATE,
    SWEEP_SPARSE_SHIFT,
    sweep_dense_vs_sparse,
)
from repro.algorithms.registry import (
    ALGORITHMS,
    feasible_replication_factors,
    make_algorithm,
    supports_sparse_comm,
)
from repro.baselines.serial import (
    fusedmm_a_serial,
    fusedmm_b_serial,
    sddmm_serial,
    spmm_a_serial,
    spmm_b_serial,
)
from repro.errors import ReproError
from repro.model.optimal import choose_comm_mode
from repro.runtime.spmd import run_spmd
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, Mode

SPARSE_CAPABLE = sorted(n for n in ALGORITHMS if supports_sparse_comm(n))

GRIDS = {
    "1.5d-sparse-shift": [(4, 1), (8, 2), (8, 4), (8, 8)],
    "2.5d-sparse-replicate": [(4, 1), (8, 2), (16, 4), (18, 2), (4, 4), (8, 8)],
}


def run_mode(alg, S, A, B, mode, sparse):
    r = (A if A is not None else B).shape[1]
    plan = alg.plan(S.nrows, S.ncols, r)
    locals_ = alg.distribute(plan, S, A, B)
    cplans = alg.build_comm_plans(plan, S) if sparse else None

    def body(comm):
        ctx = alg.make_context(comm)
        kw = {"sparse_plan": cplans[comm.rank]} if cplans is not None else {}
        alg.rank_kernel(ctx, plan, locals_[comm.rank], mode, **kw)

    run_spmd(alg.p, body)
    return plan, locals_


@pytest.mark.parametrize("name", SPARSE_CAPABLE)
@pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
def test_sparse_comm_matches_dense_all_grids(name, mode, rng):
    m, n, r = 52, 61, 10
    S = erdos_renyi(m, n, 3, seed=17)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    for p, c in GRIDS[name]:
        alg_d = make_algorithm(name, p, c)
        alg_s = make_algorithm(name, p, c)
        plan_d, loc_d = run_mode(alg_d, S, A, B, mode, sparse=False)
        plan_s, loc_s = run_mode(alg_s, S, A, B, mode, sparse=True)
        if mode == Mode.SDDMM:
            got_d = alg_d.collect_sddmm(plan_d, loc_d, S).vals
            got_s = alg_s.collect_sddmm(plan_s, loc_s, S).vals
        elif mode == Mode.SPMM_A:
            got_d = alg_d.collect_dense_a(plan_d, loc_d)
            got_s = alg_s.collect_dense_a(plan_s, loc_s)
        else:
            got_d = alg_d.collect_dense_b(plan_d, loc_d)
            got_s = alg_s.collect_dense_b(plan_s, loc_s)
        np.testing.assert_allclose(got_s, got_d, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize(
    "name,elision",
    [
        ("1.5d-sparse-shift", "none"),
        ("1.5d-sparse-shift", "replication-reuse"),
        ("2.5d-sparse-replicate", "none"),
    ],
)
@pytest.mark.parametrize("fused", [repro.fusedmm_a, repro.fusedmm_b])
def test_fused_sparse_comm_matches_dense(name, elision, fused, rng, exec_backend):
    m = n = 48
    r = 8
    S = erdos_renyi(m, n, 3, seed=23)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    grids = (
        [(8, 2), (8, 4)] if name.startswith("1.5d") else [(8, 2), (4, 4), (8, 8)]
    )
    for p, c in grids:
        require_world_size(exec_backend, p)
        out_d, _ = fused(S, A, B, p=p, c=c, algorithm=name, elision=elision,
                         comm="dense", backend=exec_backend)
        out_s, _ = fused(S, A, B, p=p, c=c, algorithm=name, elision=elision,
                         comm="sparse", backend=exec_backend)
        np.testing.assert_allclose(out_s, out_d, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("p", [4, 8])
@pytest.mark.parametrize("shape", [(52, 61, 10), (64, 64, 16)])
def test_q1_grid_conformance(p, shape, rng):
    """The 2.5D sparse-replicating family at c = p (a 1 x 1 x c grid: the
    pattern on every rank, the dense operands split by columns, no
    propagation) — what ``auto`` resolves to on small sparse problems.
    Every kernel and both fused variants against ``baselines/serial.py``;
    dense == sparse bitwise."""
    m, n, r = shape
    S = erdos_renyi(m, n, 3, seed=17)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    ref = (
        sddmm_serial(S, A, B).vals, spmm_a_serial(S, B), spmm_b_serial(S, A),
        fusedmm_a_serial(S, A, B), fusedmm_b_serial(S, A, B),
    )
    first = None
    for comm in ("dense", "sparse"):
        with repro.plan(
            S, r, p=p, c=p, algorithm="2.5d-sparse-replicate", comm=comm,
        ) as sess:
            got = (
                sess.sddmm(A, B)[0].vals, sess.spmm_a(B)[0], sess.spmm_b(A)[0],
                sess.fusedmm_a(A, B)[0], sess.fusedmm_b(A, B)[0],
            )
        first = first or got
        for out, same, want in zip(got, first, ref):
            assert np.array_equal(out, same), comm
            np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12)


@st.composite
def sparse_problems(draw):
    m = draw(st.integers(4, 40))
    n = draw(st.integers(4, 40))
    r = draw(st.integers(1, 10))
    nnz = draw(st.integers(0, 100))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, nnz).astype(np.int64)
    cols = rng.integers(0, n, nnz).astype(np.int64)
    S = CooMatrix(rows, cols, rng.standard_normal(nnz), (m, n))
    return S, rng.standard_normal((m, r)), rng.standard_normal((n, r))


@st.composite
def sparse_grids(draw):
    name = draw(st.sampled_from(SPARSE_CAPABLE))
    p = draw(st.sampled_from([1, 2, 4, 8, 9, 16]))
    feas = feasible_replication_factors(name, p)
    if not feas:
        p = 4
        feas = feasible_replication_factors(name, p)
    c = draw(st.sampled_from(list(feas)))
    return name, p, c


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(problem=sparse_problems(), grid=sparse_grids())
def test_sparse_comm_equals_serial_randomized(problem, grid):
    """Property: the sparse-comm path agrees with the serial baselines on
    arbitrary shapes, sparsities (including empty) and grids."""
    S, A, B = problem
    name, p, c = grid
    alg = make_algorithm(name, p, c)
    plan, loc = run_mode(alg, S, A, B, Mode.SDDMM, sparse=True)
    np.testing.assert_allclose(
        alg.collect_sddmm(plan, loc, S).vals, sddmm_serial(S, A, B).vals,
        rtol=1e-8, atol=1e-10,
    )
    alg = make_algorithm(name, p, c)
    plan, loc = run_mode(alg, S, None, B, Mode.SPMM_A, sparse=True)
    np.testing.assert_allclose(
        alg.collect_dense_a(plan, loc), spmm_a_serial(S, B), rtol=1e-8, atol=1e-10
    )
    alg = make_algorithm(name, p, c)
    plan, loc = run_mode(alg, S, A, None, Mode.SPMM_B, sparse=True)
    np.testing.assert_allclose(
        alg.collect_dense_b(plan, loc), spmm_b_serial(S, A), rtol=1e-8, atol=1e-10
    )


class TestCommModeSelection:
    def test_sparse_on_dense_family_raises(self, rng):
        S = erdos_renyi(32, 32, 2, seed=0)
        A = rng.standard_normal((32, 4))
        B = rng.standard_normal((32, 4))
        with pytest.raises(ReproError, match="sparse-communication"):
            repro.sddmm(S, A, B, p=4, algorithm="1.5d-dense-shift", comm="sparse")

    def test_auto_on_dense_family_is_dense(self):
        assert choose_comm_mode("1.5d-dense-shift", 1024, 64, 4096, 8, 2) == "dense"

    def test_auto_prefers_sparse_for_hypersparse(self):
        # phi = nnz/(n r) well under the coverage saturation point
        assert (
            choose_comm_mode("1.5d-sparse-shift", 4096, 64, 2 * 4096, 8, 4) == "sparse"
        )

    def test_auto_prefers_dense_when_saturated(self):
        # nnz >> n: every row is touched, need lists buy nothing
        n = 256
        assert (
            choose_comm_mode("1.5d-sparse-shift", n, 16, 64 * n, 8, 4) == "dense"
        )

    def test_auto_algorithm_with_sparse_comm_picks_capable_family(self, rng):
        """algorithm='auto' + comm='sparse' must restrict the search to
        sparse-comm-capable families instead of erroring when the model's
        overall winner is a dense family."""
        n = 256
        S = erdos_renyi(n, n, 48, seed=2)  # dense-ish: model favors dense shift
        A = rng.standard_normal((n, 16))
        B = rng.standard_normal((n, 16))
        out, report = repro.sddmm(S, A, B, p=8, algorithm="auto", comm="sparse")
        assert "sparse-comm" in report.label
        np.testing.assert_allclose(out.vals, sddmm_serial(S, A, B).vals, rtol=1e-8, atol=1e-10)

    def test_auto_runs_and_matches_dense(self, rng):
        S = erdos_renyi(96, 96, 2, seed=1)
        A = rng.standard_normal((96, 16))
        B = rng.standard_normal((96, 16))
        out_d, _ = repro.spmm_a(S, B, p=8, c=4, algorithm="1.5d-sparse-shift", comm="dense")
        out_a, _ = repro.spmm_a(S, B, p=8, c=4, algorithm="1.5d-sparse-shift", comm="auto")
        np.testing.assert_allclose(out_a, out_d, rtol=1e-9, atol=1e-10)


class TestVolumeReduction:
    @pytest.mark.parametrize("nnz_per_row", [1, 2])
    def test_15d_sparse_shift_saves_30pct_at_low_phi(self, nnz_per_row):
        """The acceptance bar: >= 30% fewer measured words/rank on the
        1.5D sparse-shift path for an ER input with phi <= 0.05."""
        phi, rep_d, rep_s = sweep_dense_vs_sparse(nnz_per_row, *SWEEP_SPARSE_SHIFT)
        assert phi <= 0.05
        assert rep_s.comm_words <= 0.7 * rep_d.comm_words

    @pytest.mark.parametrize("nnz_per_row", SWEEP_NNZ_PER_ROW)
    @pytest.mark.parametrize("case", [SWEEP_SPARSE_SHIFT, SWEEP_SPARSE_REPLICATE])
    def test_sparse_never_moves_more_words_than_dense(self, nnz_per_row, case):
        """Need-list communication degrades to the dense volume as phi
        grows (every row needed) but never past it, on either family."""
        _, rep_d, rep_s = sweep_dense_vs_sparse(nnz_per_row, *case)
        assert rep_s.comm_words <= rep_d.comm_words
