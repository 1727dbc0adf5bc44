"""Tests for the distributed ALS application."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_APP
from repro.algorithms.fused import native_procedure
from repro.apps import als as als_module
from repro.apps.als import DistributedALS, _batched_cg
from repro.errors import CommError, ReproError, SpmdTimeout
from repro.runtime.faults import FaultPlan, FaultSpec
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
        dispatch scatters its moving and its fixed factor once and forms
        its start residual rank-side, as one FusedMM; the SDDMM scatters
        both factors unless, as under replication reuse, the B half-sweep
        ran on the forward orientation too: then its fixed factor A is
        still resident.  No call scatters, or collects, a right-hand
        side."""
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

    @pytest.mark.parametrize(
        "alg,el,p,c", VARIANTS, ids=[f"{a}/{e.value}" for a, e, p, c in VARIANTS]
    )
    def test_steady_sweep_is_two_dispatches(
        self, alg, el, p, c, completion_problem, monkeypatch
    ):
        """After the first sweep, a sweep is its two CG dispatches and
        nothing else: sweep ``k``'s loss is read off sweep ``k + 1``'s A
        half-sweep (its start residual), so the one kernel call is the
        last sweep's loss SDDMM.  Each steady sweep scatters each factor
        twice (moving, then fixed) and skips nothing — under local kernel
        fusion too, where the per-sweep loss SDDMM used to re-scatter A on
        the forward orientation — and on the sparse-shifting family its
        ``2 (cg_iters + 1)`` FusedMMs send ``2 (L - 1)`` value shifts
        each, per rank."""
        sessions, after = [], []

        def recording_plan(*args, **kw):
            sessions.append(repro.plan(*args, **kw))
            return sessions[-1]

        rank_cg = DistributedALS._rank_cg

        def watching_cg(self, sess, variant, *args, **kw):
            out = rank_cg(self, sess, variant, *args, **kw)
            if variant == FusedVariant.FUSED_B:  # a sweep's end
                after.append((
                    dict(sess.dense_bind_counts), dict(sess.dense_bind_skips),
                    [prof.counters[Phase.PROPAGATION].messages_received
                     for prof in sess.report().per_rank],
                ))
            return out

        monkeypatch.setattr(als_module, "plan", recording_plan)
        monkeypatch.setattr(DistributedALS, "_rank_cg", watching_cg)
        C, r, _ = completion_problem
        cg_iters = 3
        res = DistributedALS(
            p=p, c=c, algorithm=alg, elision=el, cg_iters=cg_iters
        ).run(C, r, outer_iters=3, seed=0)
        [sess] = sessions
        assert len(res.loss_history) == 3
        assert [rec["label"] for rec in sess.metrics()] == [
            "als/cg/fusedmm_a", "als/cg/fusedmm_b",
        ] * 3 + [f"{alg}/sddmm"]
        L = p // c
        for (counts0, skips0, msgs0), (counts1, skips1, msgs1) in zip(
            after, after[1:]
        ):
            assert {k: counts1[k] - counts0[k] for k in "ab"} == {"a": 2, "b": 2}
            assert skips1 == skips0
            if alg == "1.5d-sparse-shift":
                assert [b - a for a, b in zip(msgs0, msgs1)] == (
                    [2 * (cg_iters + 1) * 2 * (L - 1)] * p
                )

    @pytest.mark.parametrize("cg_iters", [1, 4])
    def test_sparse_shift_sweep_reduces_once_per_cg_iteration(
        self, cg_iters, allreduce_calls
    ):
        """One sparse-shift sweep at p = 8, c = 2 (layers of L = 4) makes
        exactly ``2 * cg_iters`` layer all-reduces per rank, one per CG
        iteration of each half-sweep, each of ``(W, 2)`` row-dot records:
        ``2 log2 L`` messages and the words of two ``W``-element
        all-reduces, nothing else in the OTHER phase."""
        m, n, r, L = 128, 96, 8, 4
        C = erdos_renyi(m, n, 6, seed=1)
        als = DistributedALS(
            p=8, c=2, algorithm="1.5d-sparse-shift",
            elision=Elision.REPLICATION_REUSE, cg_iters=cg_iters,
        )
        rep = als.run(C, r, outer_iters=1, seed=0).report
        for rank, prof in enumerate(rep.per_rank):
            mine = [(size, shape) for w, size, shape in allreduce_calls if w == rank]
            assert len(mine) == 2 * cg_iters
            assert {size for size, _ in mine} == {L}
            assert all(len(shape) == 2 and shape[1] == 2 for _, shape in mine)
            rows = [shape[0] for _, shape in mine]
            assert all(W % L == 0 for W in rows)
            other = prof.counters[Phase.OTHER]
            assert other.messages_received == 2 * cg_iters * 2 * (L.bit_length() - 1)
            # a W-element all-reduce receives 2 (L - 1) / L * W words
            assert other.words_received == sum(2 * 2 * (L - 1) * W // L for W in rows)

    def test_report_contains_fusedmm_phases(self, completion_problem):
        C, r, _ = completion_problem
        als = DistributedALS(p=4, c=2, cg_iters=3)
        rep = als.run(C, r, outer_iters=1, seed=0).report
        assert rep.phase_words(Phase.REPLICATION) > 0
        assert rep.phase_words(Phase.PROPAGATION) > 0
        assert rep.phase_flops(Phase.COMPUTATION) > 0


class TestFaults:
    def test_lost_row_dot_times_out_under_a_deadline(
        self, completion_problem, monkeypatch
    ):
        """``deadline_ms`` reaches the session's watchdog: a row-dot
        message dropped inside a half-sweep ends the run in a typed
        timeout, with the blocked ranks' dump, instead of a hang.  The
        half-sweep is a ``run_rank``, so nothing re-runs it."""
        C, r, _ = completion_problem
        lost = FaultPlan([FaultSpec("drop", rank=0, tag=TAG_APP)])
        sessions = []

        def faulty_plan(*args, **kw):
            sessions.append(repro.plan(*args, faults=lost, **kw))
            return sessions[-1]

        monkeypatch.setattr(als_module, "plan", faulty_plan)
        als = DistributedALS(
            p=8, c=2, algorithm="1.5d-sparse-shift",
            elision=Elision.REPLICATION_REUSE, cg_iters=2, deadline_ms=300,
        )
        with pytest.raises(SpmdTimeout) as err:
            als.run(C, r, outer_iters=1, seed=0)
        assert err.value.dump
        assert len(lost.fired_log) == 1
        [sess] = sessions
        assert [(rec["label"], rec["outcome"]) for rec in sess.metrics()] == [
            ("als/cg/fusedmm_a", "timeout"),
        ]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 16(b): a duplicated row-dot message has the shape of "
        "the next one, and no per-key stamp tells them apart",
    )
    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_duplicated_row_dot_is_typed_or_bitwise_clean(
        self, index, completion_problem, monkeypatch
    ):
        """Known defect, pinned strict so its fix must flip it.  A
        duplicated ``TAG_APP`` message of rank 0 (its ``index``-th send on
        the tag) stays queued and is taken as the next all-reduce's
        segment: it has the right shape, so it is reduced in, and the run
        completes with wrong factors instead of raising a ``CommError``
        (which ``retries=1`` would re-run cleanly)."""
        C, r, _ = completion_problem

        def run(faults):
            def faulty_plan(*args, **kw):
                return repro.plan(*args, retries=1, faults=faults, **kw)

            monkeypatch.setattr(als_module, "plan", faulty_plan)
            als = DistributedALS(
                p=8, c=2, algorithm="1.5d-sparse-shift",
                elision=Elision.REPLICATION_REUSE, cg_iters=4,
            )
            return als.run(C, r, outer_iters=1, seed=0)

        clean = run(None)
        faults = FaultPlan([FaultSpec("dup", rank=0, tag=TAG_APP, index=index)])
        try:
            res = run(faults)
        except RuntimeError as err:
            assert isinstance(err.__cause__, CommError)
            return
        assert len(faults.fired_log) == 1
        np.testing.assert_array_equal(res.A, clean.A)
        np.testing.assert_array_equal(res.B, clean.B)


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


def _identity(dots):
    return dots


def _spd_systems(rng, rows=40, r=12, zero_rows=()):
    """Batched SPD systems ``M_i x_i = rhs_i`` (condition number about 6)
    and a start ``x0``; ``zero_rows`` get a zero right-hand side and
    start."""
    G = rng.standard_normal((rows, r, r))
    M = G @ G.transpose(0, 2, 1) / r + np.eye(r)
    rhs, x0 = rng.standard_normal((rows, r)), rng.standard_normal((rows, r))
    rhs[list(zero_rows)] = 0.0
    x0[list(zero_rows)] = 0.0
    return M, rhs, x0


def _apply(M, x):
    return np.einsum("ijk,ik->ij", M, x)


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


class TestBatchedCG:
    """``_batched_cg`` is Chronopoulos & Gear's single-reduction CG from a
    start residual ``r0`` the caller computes (ALS: one FusedMM): one
    matvec and one ``reduce`` of ``(r.r, r.w)`` row-dot records per
    iteration."""

    def test_solves_diagonal_systems(self, rng):
        """Per-row systems M_i = d_i I are solved exactly in one step."""
        rows, r = 50, 6
        d = rng.uniform(1, 2, rows)

        def matvec(x):
            return d[:, None] * x

        rhs = rng.standard_normal((rows, r))
        # from x0 = 0 the start residual is the right-hand side
        x = _batched_cg(rhs, matvec, _identity, np.zeros_like(rhs), iters=2)
        np.testing.assert_allclose(x, rhs / d[:, None], rtol=1e-8)

    def test_zero_rows_stay_zero(self, rng):
        def matvec(x):
            return x

        r0 = np.zeros((5, 3))
        x = _batched_cg(r0, matvec, _identity, np.zeros_like(r0), iters=3)
        np.testing.assert_allclose(x, 0)

    @pytest.mark.parametrize("iters", [1, 2, 10])
    def test_one_reduction_per_iteration(self, rng, iters):
        """``iters`` matvecs (``w = M r`` per iteration; the start
        residual is the caller's) and ``iters`` reductions, each of one
        ``(rows, 2)`` record array — one all-reduce per iteration on the
        sparse-shifting family."""
        M, rhs, x0 = _spd_systems(rng)
        r0 = rhs - _apply(M, x0)
        calls = {"matvec": 0, "reduce": 0}

        def matvec(x):
            calls["matvec"] += 1
            return _apply(M, x)

        def reduce(dots):
            calls["reduce"] += 1
            assert dots.shape == (len(rhs), 2)
            return dots

        _batched_cg(r0, matvec, reduce, x0, iters)
        assert calls == {"matvec": iters, "reduce": iters}

    @pytest.mark.parametrize("iters", [1, 2, 10])
    def test_same_bits_as_the_recurrence(self, rng, iters):
        """The Chronopoulos-Gear recurrence written out: ``p = r`` and
        ``s = w`` on the first iteration, then ``beta = gamma / gamma_old``,
        ``alpha = gamma / (delta - beta * (gamma / alpha_old))``,
        ``p = r + beta p``, ``s = w + beta s``; the last iteration stops
        at ``x``."""
        M, rhs, x0 = _spd_systems(rng)
        r0 = rhs - _apply(M, x0)
        x = _batched_cg(r0, lambda v: _apply(M, v), _identity, x0, iters)

        want = x0.copy()
        rvec = r0
        for it in range(iters):
            wvec = _apply(M, rvec)
            gamma, delta = _rowdot(rvec, rvec), _rowdot(rvec, wvec)
            if it == 0:
                alpha = gamma / delta
                pvec, svec = rvec, wvec
            else:
                beta = gamma / gamma_old
                alpha = gamma / (delta - beta * (gamma / alpha))
                pvec = rvec + beta[:, None] * pvec
                svec = wvec + beta[:, None] * svec
            gamma_old = gamma
            want = want + alpha[:, None] * pvec
            rvec = rvec - alpha[:, None] * svec
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("iters", [1, 3, 10])
    def test_agrees_with_classical_cg(self, rng, iters):
        """In exact arithmetic the iterates are classical CG's (two
        reductions per iteration, ``q = M p`` by matvec) started from the
        same ``r0``; in floating point they agree to ``rtol=1e-10`` on
        these systems, all-zero rows staying exactly zero."""
        zero = (0, 17, 39)
        M, rhs, x0 = _spd_systems(rng, zero_rows=zero)
        r0 = rhs - _apply(M, x0)
        x = _batched_cg(r0, lambda v: _apply(M, v), _identity, x0, iters)

        def ratio(a, b):
            return np.where(b > 1e-300, a / np.maximum(b, 1e-300), 0.0)

        want = x0.copy()
        rvec = r0
        pvec, rs = rvec.copy(), _rowdot(rvec, rvec)
        for _ in range(iters):
            q = _apply(M, pvec)
            alpha = ratio(rs, _rowdot(pvec, q))
            want = want + alpha[:, None] * pvec
            rvec = rvec - alpha[:, None] * q
            rs_new = _rowdot(rvec, rvec)
            pvec = rvec + ratio(rs_new, rs)[:, None] * pvec
            rs = rs_new
        np.testing.assert_allclose(x, want, rtol=1e-10, atol=1e-13)
        assert not x[list(zero)].any()


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
