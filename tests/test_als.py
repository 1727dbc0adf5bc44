"""Tests for the distributed ALS application."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.algorithms.fused import native_procedure
from repro.apps import als as als_module
from repro.apps.als import DistributedALS, _batched_cg
from repro.errors import ReproError
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, FusedVariant, Phase


@pytest.fixture
def completion_problem():
    """Noiseless low-rank observations: ALS should fit them well."""
    rng = np.random.default_rng(0)
    m, n, r = 120, 90, 6
    At = rng.standard_normal((m, r))
    Bt = rng.standard_normal((n, r))
    pat = erdos_renyi(m, n, 14, seed=1)
    vals = np.einsum("ij,ij->i", At[pat.rows], Bt[pat.cols])
    return CooMatrix(pat.rows, pat.cols, vals, (m, n), dedupe=False), r, vals


VARIANTS = [
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION, 4, 2),
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE, 4, 2),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, 6, 2),
]


class TestConvergence:
    @pytest.mark.parametrize(
        "alg,el,p,c", VARIANTS, ids=[f"{a}/{e.value}" for a, e, p, c in VARIANTS]
    )
    def test_loss_decreases_and_fits(self, alg, el, p, c, completion_problem):
        C, r, vals = completion_problem
        als = DistributedALS(p=p, c=c, algorithm=alg, elision=el, lam=0.01, cg_iters=10)
        res = als.run(C, r, outer_iters=4, seed=3)
        assert len(res.loss_history) == 4
        assert res.loss_history[0] > res.loss_history[-1]
        pred = np.einsum("ij,ij->i", res.A[C.rows], res.B[C.cols])
        rel = np.linalg.norm(pred - vals) / np.linalg.norm(vals)
        assert rel < 0.35

    def test_variants_agree(self, completion_problem):
        """All algorithm/elision variants compute the same iteration."""
        C, r, _ = completion_problem
        losses = []
        for alg, el, p, c in VARIANTS:
            als = DistributedALS(p=p, c=c, algorithm=alg, elision=el, lam=0.05, cg_iters=5)
            res = als.run(C, r, outer_iters=2, seed=9)
            losses.append(res.loss_history)
        for other in losses[1:]:
            np.testing.assert_allclose(losses[0], other, rtol=1e-6)

    def test_serial_single_rank(self, completion_problem):
        C, r, _ = completion_problem
        als = DistributedALS(p=1, c=1, lam=0.05, cg_iters=5)
        res = als.run(C, r, outer_iters=1, seed=2)
        assert res.A.shape == (C.nrows, r)
        assert res.B.shape == (C.ncols, r)


class TestCostAccounting:
    def test_sessions_amortize_sparse_distribution(self, completion_problem, monkeypatch):
        """The handle-based driver runs all CG FusedMM calls against
        resident distributions: the sparse operand is partitioned once per
        orientation of its one session (forward + transposed sibling),
        never per matvec."""
        from repro.algorithms.sparse_shift_15d import SparseShift15D

        calls = {"n": 0}
        orig = SparseShift15D.distribute_sparse

        def counting(self, plan, S):
            calls["n"] += 1
            return orig(self, plan, S)

        monkeypatch.setattr(SparseShift15D, "distribute_sparse", counting)
        C, r, _ = completion_problem
        als = DistributedALS(
            p=4, c=2, algorithm="1.5d-sparse-shift",
            elision=Elision.REPLICATION_REUSE, cg_iters=4,
        )
        als.run(C, r, outer_iters=2, seed=0, track_loss=False)
        # 2 sweeps x (5 + 5) matvecs and 4 right-hand sides, yet 2
        # distributions
        assert calls["n"] == 2

    @pytest.mark.parametrize(
        "alg,el,p,c", VARIANTS, ids=[f"{a}/{e.value}" for a, e, p, c in VARIANTS]
    )
    def test_run_holds_one_session_and_one_pool(
        self, alg, el, p, c, completion_problem, monkeypatch
    ):
        """One ``plan()`` per run: ``S`` and its transposed sibling on one
        worker pool — ``p`` rank threads while it runs, none after."""
        sessions, threads = [], []

        def recording_plan(*args, **kw):
            sessions.append(repro.plan(*args, **kw))
            return sessions[-1]

        batched_cg = als_module._batched_cg

        def watching_cg(*args):
            # sampled inside the CG dispatch, on a rank thread of the pool
            threads.append(threading.active_count())
            return batched_cg(*args)

        monkeypatch.setattr(als_module, "plan", recording_plan)
        monkeypatch.setattr(als_module, "_batched_cg", watching_cg)
        C, r, _ = completion_problem
        base = threading.active_count()
        als = DistributedALS(p=p, c=c, algorithm=alg, elision=el, cg_iters=3)
        als.run(C, r, outer_iters=2, seed=0)
        assert len(sessions) == 1
        assert sessions[0].plan_builds == 2  # S and S^T, each built once
        assert set(threads) == {base + p}
        assert threading.active_count() == base

    @pytest.mark.parametrize(
        "alg,el,p,c", VARIANTS, ids=[f"{a}/{e.value}" for a, e, p, c in VARIANTS]
    )
    def test_one_sweep_binds_no_right_hand_side(
        self, alg, el, p, c, completion_problem, monkeypatch
    ):
        """One sweep is two CG dispatches and the loss SDDMM.  Each CG
        dispatch scatters its moving and its fixed factor once and builds
        its right-hand side rank-side; the SDDMM scatters both factors
        unless, as under replication reuse, the B half-sweep ran on the
        forward orientation too: then its fixed factor A is still
        resident.  No call scatters, or collects, a right-hand side."""
        sessions = []

        def recording_plan(*args, **kw):
            sessions.append(repro.plan(*args, **kw))
            return sessions[-1]

        monkeypatch.setattr(als_module, "plan", recording_plan)
        C, r, _ = completion_problem
        DistributedALS(p=p, c=c, algorithm=alg, elision=el, cg_iters=3).run(
            C, r, outer_iters=1, seed=0
        )
        [sess] = sessions
        assert [rec["label"] for rec in sess.metrics()] == [
            "als/cg/fusedmm_a", "als/cg/fusedmm_b", f"{alg}/sddmm",
        ]
        found = int(el == Elision.REPLICATION_REUSE)
        assert sess.dense_bind_counts == {"a": 3 - found, "b": 3}
        assert sess.dense_bind_skips == {"a": found, "b": 0}

    def test_report_contains_fusedmm_phases(self, completion_problem):
        C, r, _ = completion_problem
        als = DistributedALS(p=4, c=2, cg_iters=3)
        rep = als.run(C, r, outer_iters=1, seed=0).report
        assert rep.phase_words(Phase.REPLICATION) > 0
        assert rep.phase_words(Phase.PROPAGATION) > 0
        assert rep.phase_flops(Phase.COMPUTATION) > 0


PATTERN_CASES = [
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, "dense"),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, "sparse"),
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE, "dense"),
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION, "dense"),
    ("2.5d-dense-replicate", Elision.REPLICATION_REUSE, "dense"),
]


class TestPatternOnlyFusedMM:
    """What lets ALS drop its ones-valued twin: ``use_values=False`` on
    the valued ``S`` computes, bit for bit, what ``use_values=True``
    computes on ``S.with_values(ones)`` (``x * 1.0 == x``) — on every
    family with a fused elision, through the one shared
    ``rank_fusedmm_reuse``."""

    @pytest.mark.parametrize(
        "name,el,comm", PATTERN_CASES,
        ids=[f"{n}/{e.value}/{cm}" for n, e, cm in PATTERN_CASES],
    )
    @pytest.mark.parametrize("variant", list(FusedVariant), ids=lambda v: v.value)
    def test_pattern_only_equals_ones_valued_twin(self, name, el, comm, variant, rng):
        m, n, r = 96, 72, 8
        S = erdos_renyi(m, n, 5, seed=3)
        assert not np.all(S.vals == 1.0)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))

        def fused(S_run, use_values):
            with repro.plan(S_run, r, p=8, c=2, algorithm=name, elision=el,
                            comm=comm) as sess:
                transpose, native, method = native_procedure(sess.alg, variant, el)

                def body(ctx, plan, local, **kw):
                    method(ctx, plan, local, use_values=use_values, **kw)

                out, _ = sess.run_rank(
                    body, *((B, A) if transpose else (A, B)),
                    transpose=transpose, collect=native,
                )
                # a no-op dispatch on the same orientation reads the
                # resident SDDMM output the fused call left behind
                dots, report = sess.run_rank(
                    lambda *args, **kw: None, transpose=transpose, collect="sddmm"
                )
                return out, dots.vals, report.comm_words

        twin = fused(S.with_values(np.ones(S.nnz)), True)
        pattern = fused(S, False)
        assert np.array_equal(pattern[0], twin[0])
        assert np.array_equal(pattern[1], twin[1])
        assert pattern[2] == twin[2]
        # and the values do matter when asked for
        assert not np.array_equal(fused(S, True)[0], twin[0])


class TestValidation:
    def test_rejects_25d(self):
        with pytest.raises(ReproError):
            DistributedALS(p=8, c=2, algorithm="2.5d-dense-replicate")

    def test_sparse_shift_requires_reuse(self):
        with pytest.raises(ReproError):
            DistributedALS(
                p=4, c=2, algorithm="1.5d-sparse-shift",
                elision=Elision.LOCAL_KERNEL_FUSION,
            )


class TestBatchedCG:
    def test_solves_diagonal_systems(self, rng):
        """Per-row systems M_i = d_i I are solved exactly in one step."""
        rows, r = 50, 6
        d = rng.uniform(1, 2, rows)

        def matvec(x):
            return d[:, None] * x

        def rowdot(x, y):
            return np.einsum("ij,ij->i", x, y)

        rhs = rng.standard_normal((rows, r))
        x = _batched_cg(rhs, matvec, rowdot, np.zeros_like(rhs), iters=2)
        np.testing.assert_allclose(x, rhs / d[:, None], rtol=1e-8)

    def test_zero_rows_stay_zero(self, rng):
        def matvec(x):
            return x

        def rowdot(x, y):
            return np.einsum("ij,ij->i", x, y)

        rhs = np.zeros((5, 3))
        x = _batched_cg(rhs, matvec, rowdot, np.zeros_like(rhs), iters=3)
        np.testing.assert_allclose(x, 0)


class TestRecommendTopK:
    """The serving scoring path: top-k over the factor product."""

    @pytest.fixture
    def factors(self):
        rng = np.random.default_rng(5)
        n_users, n_items, d = 30, 25, 4
        U = rng.standard_normal((n_users, d))
        F = rng.standard_normal((n_items, d))
        seen = erdos_renyi(n_users, n_items, 5, seed=6)
        return U, F, seen

    def test_matches_dense_reference(self, factors):
        from repro.apps.als import recommend_topk

        U, F, seen = factors
        users = [0, 7, 19, 7]
        items, vals = recommend_topk(U, F, users, 6, seen=seen)
        scores = F @ U[users].T
        for i, u in enumerate(users):
            col = scores[:, i].copy()
            col[seen.cols[seen.rows == u]] = -np.inf
            order = np.argsort(-col, kind="stable")[:6]
            assert np.array_equal(items[i], order)
            np.testing.assert_array_equal(vals[i], col[order])

    def test_exclude_toggle_and_k_clamp(self, factors):
        from repro.apps.als import recommend_topk

        U, F, seen = factors
        n_items = F.shape[0]
        items, vals = recommend_topk(
            U, F, [3], 999, seen=seen, exclude_seen=False
        )
        # k clamps to the item count; without masking the result is a
        # full permutation with descending scores
        assert items.shape == (1, n_items)
        assert sorted(items[0]) == list(range(n_items))
        assert np.all(np.diff(vals[0]) <= 0)

    def test_masked_tail_carries_neg_inf(self):
        from repro.apps.als import recommend_topk

        rng = np.random.default_rng(8)
        U = rng.standard_normal((2, 3))
        F = rng.standard_normal((6, 3))
        # user 0 has seen every item except 1 and 4
        cols = np.array([0, 2, 3, 5])
        seen = CooMatrix(
            np.zeros(4, dtype=np.int64), cols, np.ones(4), (2, 6)
        )
        items, vals = recommend_topk(U, F, [0], 5, seen=seen)
        assert set(items[0][:2]) == {1, 4}  # the only unseen items lead
        assert np.all(np.isneginf(vals[0][2:]))

    def test_precomputed_scores_panel_is_validated(self, factors):
        from repro.apps.als import recommend_topk

        U, F, _ = factors
        good = F @ U[[0, 1]].T
        items, _ = recommend_topk(U, F, [0, 1], 3, scores=good,
                                  exclude_seen=False)
        assert items.shape == (2, 3)
        with pytest.raises(ReproError, match="scores panel"):
            recommend_topk(U, F, [0, 1], 3, scores=good[:, :1])
