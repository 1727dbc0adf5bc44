"""Tests for the session-handle API (plan once, run many kernels).

Covers the session redesign's contract:

* wrapper-vs-session bitwise equivalence across all families x modes x
  dense/sparse communication;
* amortization: the sparse operand is distributed and the comm plans /
  packed indexes are built exactly once per orientation, for both
  ``sess.kernel()`` loops and the legacy ``calls=`` wrappers;
* report accumulation across calls and ``reset_profile``;
* validation: dense-operand shape drift, re-plan error on a different S,
  value rebinding via ``update_values``, closed-session errors;
* context-manager lifecycle and the debugging ``repr``;
* skip-rebind after a failed ``run_rank``, and pool recovery after a
  rank dies while its siblings are blocked in a shift.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from tests.conftest import require_world_size
from repro.algorithms.registry import ALGORITHMS
from repro.baselines.serial import (
    fusedmm_a_serial,
    fusedmm_b_serial,
    sddmm_serial,
    spmm_a_serial,
    spmm_b_serial,
)
from repro.errors import ReproError
from repro.types import FusedVariant, Phase

# (algorithm, p, c, comm) — every family, plus the sparse-comm path on the
# two families that support it
FAMILY_COMMS = [
    ("1.5d-dense-shift", 8, 2, "dense"),
    ("1.5d-sparse-shift", 8, 2, "dense"),
    ("1.5d-sparse-shift", 8, 2, "sparse"),
    ("2.5d-dense-replicate", 8, 2, "dense"),
    ("2.5d-sparse-replicate", 8, 2, "dense"),
    ("2.5d-sparse-replicate", 8, 2, "sparse"),
]
FAMILY_IDS = [f"{a}/{comm}" for a, _, _, comm in FAMILY_COMMS]

# every (family, elision, variant) combo, on both comm modes where legal —
# includes the transposing orientations (e.g. FusedMMA under replication
# reuse), which must run on the session's resident transposed sibling
FUSED_COMBOS = [
    (name, p, c, comm, elision, variant)
    for (name, p, c, comm) in FAMILY_COMMS
    for elision in ALGORITHMS[name].elisions
    for variant in (FusedVariant.FUSED_A, FusedVariant.FUSED_B)
]
FUSED_IDS = [
    f"{n}/{comm}/{e.value}/{v.value}" for n, _, _, comm, e, v in FUSED_COMBOS
]


def _fused_call(sess, variant, A, B):
    if variant == FusedVariant.FUSED_A:
        return sess.fusedmm_a(A, B)
    return sess.fusedmm_b(A, B)


def _fused_wrapper(variant):
    return repro.fusedmm_a if variant == FusedVariant.FUSED_A else repro.fusedmm_b


class TestWrapperSessionEquivalence:
    @pytest.mark.parametrize("name,p,c,comm", FAMILY_COMMS, ids=FAMILY_IDS)
    def test_single_mode_kernels_bitwise(self, name, p, c, comm, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=p, c=c, algorithm=name, comm=comm)
        for _ in range(2):  # repeated calls stay bitwise-stable
            out_sd, _ = sess.sddmm(A, B)
            out_a, _ = sess.spmm_a(B)
            out_b, _ = sess.spmm_b(A)
        ref_sd, _ = repro.sddmm(S, A, B, p=p, c=c, algorithm=name, comm=comm)
        ref_a, _ = repro.spmm_a(S, B, p=p, c=c, algorithm=name, comm=comm)
        ref_b, _ = repro.spmm_b(S, A, p=p, c=c, algorithm=name, comm=comm)
        assert np.array_equal(out_sd.vals, ref_sd.vals)
        assert np.array_equal(out_a, ref_a)
        assert np.array_equal(out_b, ref_b)
        # and both agree with the serial baselines
        np.testing.assert_allclose(out_sd.vals, sddmm_serial(S, A, B).vals, rtol=1e-9)
        np.testing.assert_allclose(out_a, spmm_a_serial(S, B), rtol=1e-9)
        np.testing.assert_allclose(out_b, spmm_b_serial(S, A), rtol=1e-9)

    @pytest.mark.parametrize(
        "name,p,c,comm,elision,variant", FUSED_COMBOS, ids=FUSED_IDS
    )
    def test_fused_five_calls_bitwise(self, name, p, c, comm, elision, variant,
                                      small_problem, exec_backend):
        """The acceptance bar: 5 session calls == 5 one-shot calls, bitwise.

        Parameterized by ``--exec-backend``: under mpi the same assertions
        gate the process transport against the shared collective stack.
        """
        require_world_size(exec_backend, p)
        S, A, B = small_problem
        ref, _ = _fused_wrapper(variant)(
            S, A, B, p=p, c=c, algorithm=name, elision=elision, comm=comm,
            backend=exec_backend,
        )
        sess = repro.plan(
            S, A.shape[1], p=p, c=c, algorithm=name, elision=elision, comm=comm,
            backend=exec_backend,
        )
        for _ in range(5):
            out, _ = _fused_call(sess, variant, A, B)
            assert np.array_equal(out, ref)
        serial = fusedmm_a_serial if variant == FusedVariant.FUSED_A else fusedmm_b_serial
        np.testing.assert_allclose(out, serial(S, A, B), rtol=1e-9, atol=1e-12)

    def test_overlap_knob_is_inert(self, small_problem, exec_backend):
        """``overlap=`` is accepted and ignored: warm need-list calls under
        ``"on"`` and ``"off"`` are bitwise one run (parameterized by
        ``--exec-backend``, so the mpi lane checks it over processes)."""
        require_world_size(exec_backend, 8)
        S, A, B = small_problem
        outs = {}
        for ov in ("off", "on"):
            with repro.plan(
                S, A.shape[1], p=8, c=4, algorithm="1.5d-sparse-shift",
                elision="replication-reuse", comm="sparse", overlap=ov,
                backend=exec_backend,
            ) as sess:
                assert sess.overlap_mode == "off"
                outs[ov] = [sess.fusedmm_b(A, B)[0] for _ in range(3)]
        for x, y in zip(outs["off"], outs["on"]):
            assert np.array_equal(x, y)

    def test_collect_sddmm_intermediate(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(
            S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift",
            elision="replication-reuse",
        )
        # FusedMMA under replication reuse transposes: the intermediate
        # must come back in S's own orientation
        out, mid, _ = sess.fusedmm_a(A, B, collect_sddmm=True)
        assert mid.shape == S.shape
        np.testing.assert_allclose(
            mid.to_scipy().toarray(), sddmm_serial(S, A, B).to_scipy().toarray(),
            rtol=1e-9,
        )


    @pytest.mark.parametrize(
        "name,p,c,comm", FAMILY_COMMS[:4], ids=FAMILY_IDS[:4]
    )
    def test_pattern_only_sddmm(self, name, p, c, comm, small_problem):
        """``use_values=False`` on the resident (valued) S is the plain
        dots — bitwise what the same session computes on S's ones-valued
        twin, so a caller needs no second distribution for the pattern."""
        S, A, B = small_problem
        ones = S.with_values(np.ones(S.nnz))
        with repro.plan(S, A.shape[1], p=p, c=c, algorithm=name, comm=comm) as sess:
            dots, _ = sess.sddmm(A, B, use_values=False)
        with repro.plan(ones, A.shape[1], p=p, c=c, algorithm=name,
                        comm=comm) as sess:
            twin, _ = sess.sddmm(A, B)
        assert np.array_equal(dots.vals, twin.vals)
        np.testing.assert_allclose(
            dots.vals, sddmm_serial(ones, A, B).vals, rtol=1e-9
        )


def _count_method(monkeypatch, cls, method_name, counts):
    orig = getattr(cls, method_name)

    def counting(self, *a, **kw):
        counts[method_name] = counts.get(method_name, 0) + 1
        return orig(self, *a, **kw)

    monkeypatch.setattr(cls, method_name, counting)


class TestAmortization:
    def test_session_distributes_sparse_exactly_once(self, small_problem, monkeypatch):
        """5 fused calls on a session: one sparse distribution, one comm-plan
        build, outputs bitwise-equal to 5 one-shot calls."""
        from repro.algorithms.sparse_shift_15d import SparseShift15D

        S, A, B = small_problem
        counts = {}
        _count_method(monkeypatch, SparseShift15D, "distribute_sparse", counts)
        _count_method(monkeypatch, SparseShift15D, "bind_dense", counts)
        _count_method(monkeypatch, SparseShift15D, "build_comm_plans", counts)

        sess = repro.plan(
            S, A.shape[1], p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        )
        outs = [sess.fusedmm_b(A, B)[0] for _ in range(5)]
        assert counts["distribute_sparse"] == 1
        assert counts["build_comm_plans"] == 1
        # the unchanged dense operands bind once: each call's output is
        # transient, so the inputs stay resident for the next call
        assert counts["bind_dense"] == 1
        ref, _ = repro.fusedmm_b(
            S, A, B, p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        )
        for out in outs:
            assert np.array_equal(out, ref)

    def test_wrapper_calls_loop_distributes_once(self, small_problem, monkeypatch):
        """The PR-1/2 regression: ``calls=5`` must not re-distribute S per
        call in either the fused driver or the single-mode wrappers."""
        from repro.algorithms.dense_shift_15d import DenseShift15D

        S, A, B = small_problem
        counts = {}
        _count_method(monkeypatch, DenseShift15D, "distribute_sparse", counts)
        repro.fusedmm_a(
            S, A, B, p=4, c=2, algorithm="1.5d-dense-shift",
            elision="local-kernel-fusion", calls=5,
        )
        assert counts["distribute_sparse"] == 1
        counts.clear()
        repro.sddmm(S, A, B, p=4, c=2, algorithm="1.5d-dense-shift", calls=5)
        assert counts["distribute_sparse"] == 1

    def test_transposed_sibling_built_once(self, small_problem, monkeypatch):
        """Alternating FusedMMA/FusedMMB under a one-sided elision touches
        both orientations; each is distributed exactly once."""
        from repro.algorithms.dense_shift_15d import DenseShift15D

        S, A, B = small_problem
        counts = {}
        _count_method(monkeypatch, DenseShift15D, "distribute_sparse", counts)
        sess = repro.plan(
            S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift",
            elision="replication-reuse",
        )
        for _ in range(3):
            sess.fusedmm_a(A, B)  # transposing (native b)
            sess.fusedmm_b(A, B)  # native
        assert counts["distribute_sparse"] == 2


class TestReports:
    def test_reports_accumulate_and_reset(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        _, rep1 = sess.sddmm(A, B)
        words1 = rep1.comm_words
        assert words1 > 0
        # per rank: the first call's fiber replication and its propagation;
        # the later calls on the unchanged A reuse the replica
        cold = [
            (p.counters[Phase.REPLICATION].words_received,
             p.counters[Phase.PROPAGATION].words_received)
            for p in rep1.per_rank
        ]
        for _ in range(2):
            _, rep = sess.sddmm(A, B)
        words3 = max(repl + 3 * prop for repl, prop in cold)
        assert words1 < words3 < 3 * words1
        assert rep.comm_words == words3
        # the report is a live view of the session's accumulation window
        assert rep1.comm_words == words3
        sess.reset_profile()
        _, rep_fresh = sess.sddmm(A, B)
        assert rep_fresh.comm_words == max(prop for _, prop in cold)
        assert rep_fresh.phase_words(Phase.REPLICATION) == 0

    def test_report_carries_comm_mode_and_label(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(
            S, A.shape[1], p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        )
        _, rep = sess.fusedmm_b(A, B)
        assert rep.comm_mode == "sparse"
        assert rep.label == "1.5d-sparse-shift/replication-reuse/sparse-comm/x1"
        _, rep = sess.fusedmm_b(A, B)
        assert rep.label.endswith("/x2")

    def test_mixed_kernel_report(self, small_problem):
        """A serving-shaped sequence accumulates into one report."""
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        sess.sddmm(A, B)
        sess.spmm_a(B)
        _, rep = sess.fusedmm_a(A, B)
        assert rep.flops > 0 and rep.comm_words > 0


class TestValidation:
    def test_dense_shape_drift_rejected(self, small_problem, rng):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        sess.fusedmm_a(A, B)
        with pytest.raises(ReproError, match="shape"):
            sess.fusedmm_a(A, rng.standard_normal((S.ncols, A.shape[1] + 1)))
        with pytest.raises(ReproError, match="shape"):
            sess.spmm_a(rng.standard_normal((S.ncols + 1, A.shape[1])))
        with pytest.raises(ReproError, match="shape"):
            sess.spmm_b(rng.standard_normal((3, 4)))
        # the session still works after a rejected call
        out, _ = sess.spmm_a(B)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9)

    def test_unsupported_elision_rejected_at_plan(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(ReproError):
            repro.plan(
                S, A.shape[1], p=8, c=2, algorithm="2.5d-sparse-replicate",
                elision="replication-reuse",
            )

    def test_infeasible_c_rejected_at_plan(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(ReproError):
            repro.plan(S, A.shape[1], p=8, c=3, algorithm="1.5d-dense-shift")

    def test_invalid_overlap_rejected(self, small_problem):
        """``overlap=`` decides nothing, but a value outside
        ``"auto" | "on" | "off"`` is still refused."""
        S, A, B = small_problem
        with pytest.raises(ReproError, match="overlap"):
            repro.plan(S, A.shape[1], p=4, overlap="maybe")


class TestUpdateValues:
    @pytest.mark.parametrize("name,p,c,comm", FAMILY_COMMS, ids=FAMILY_IDS)
    def test_rebinds_values_without_replanning(self, name, p, c, comm,
                                               small_problem, monkeypatch):
        from repro.algorithms.registry import ALGORITHMS as REG

        S, A, B = small_problem
        counts = {}
        _count_method(monkeypatch, REG[name], "distribute_sparse", counts)
        sess = repro.plan(S, A.shape[1], p=p, c=c, algorithm=name, comm=comm)
        rng = np.random.default_rng(5)
        new_vals = rng.standard_normal(S.nnz)
        sess.update_values(new_vals)
        S_new = S.with_values(new_vals)
        out_a, _ = sess.spmm_a(B)
        np.testing.assert_allclose(out_a, spmm_a_serial(S_new, B), rtol=1e-9)
        out_sd, _ = sess.sddmm(A, B)
        np.testing.assert_allclose(out_sd.vals, sddmm_serial(S_new, A, B).vals, rtol=1e-9)
        assert counts["distribute_sparse"] == 1  # no repartitioning

    def test_propagates_to_transposed_sibling(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(
            S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift",
            elision="replication-reuse",
        )
        sess.fusedmm_a(A, B)  # builds the transposed sibling
        new_vals = np.linspace(0.5, 2.0, S.nnz)
        sess.update_values(new_vals)
        S_new = S.with_values(new_vals)
        out, _ = sess.fusedmm_a(A, B)
        np.testing.assert_allclose(out, fusedmm_a_serial(S_new, A, B), rtol=1e-9)

    def test_wrong_length_rejected(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        with pytest.raises(ReproError, match="values"):
            sess.update_values(np.ones(S.nnz + 1))


class TestLifecycle:
    def test_context_manager_releases_pools(self, small_problem):
        S, A, B = small_problem
        with repro.plan(
            S, A.shape[1], p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        ) as sess:
            out, _ = sess.fusedmm_b(A, B)
            assert sess._alg._pools  # pools were populated by the run
        assert not sess._alg._pools  # released on exit
        assert sess.closed
        with pytest.raises(ReproError, match="closed"):
            sess.fusedmm_b(A, B)
        with pytest.raises(ReproError, match="closed"):
            sess.update_values(S.vals)

    def test_closed_flips_on_close_and_on_with_exit(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        assert not sess.closed
        sess.close()
        assert sess.closed
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.spmm_a(B)
            assert not sess.closed
        assert sess.closed
        with pytest.raises(AttributeError):
            sess.closed = False  # read-only

    def test_close_is_idempotent(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-dense-shift")
        sess.close()
        sess.close()

    def test_repr_summarizes_resolution(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(
            S, A.shape[1], p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        )
        text = repr(sess)
        for needle in ("1.5d-sparse-shift", "p=8", "c=2", "replication-reuse",
                       "sparse", "phi="):
            assert needle in text
        sess.close()
        assert "closed" in repr(sess)

    def test_auto_knobs_resolve_at_plan_time(self, small_problem):
        S, A, B = small_problem
        sess = repro.plan(S, A.shape[1], p=8, algorithm="auto", comm="auto")
        assert sess.algorithm in ALGORITHMS
        assert sess.comm_mode.value in ("dense", "sparse")
        from repro.algorithms.registry import feasible_replication_factors

        assert sess.c in feasible_replication_factors(sess.algorithm, 8)
        out, _ = sess.fusedmm_a(A, B)
        np.testing.assert_allclose(out, fusedmm_a_serial(S, A, B), rtol=1e-9)

    def test_star_import_exposes_handle(self):
        ns = {}
        exec("from repro import *", ns)
        assert "plan" in ns and "Session" in ns and "fusedmm_a" in ns


class TestDenseBindSkipping:
    """Skip-rebind dirty tracking: unchanged dense operands are scattered
    once, not per call.  A kernel's output is transient — the side it wrote
    gets its bound input (or, for an SpMM's output side, its pre-call
    blocks) back — so no kernel forces a rebind; only a ``run_rank``
    procedure dirties both sides (counters: ``Session.dense_bind_counts``
    / ``dense_bind_skips``)."""

    def test_repeated_sddmm_binds_each_side_once(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            for _ in range(4):
                sess.sddmm(A, B)
            assert sess.dense_bind_counts == {"a": 1, "b": 1}
            assert sess.dense_bind_skips == {"a": 3, "b": 3}

    def test_spmm_dirties_its_output_side_only(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.spmm_a(B)
            sess.spmm_a(B)
            # B (input) scattered once; A is an output slot (re-zeroed per
            # call, never counted as an operand scatter)
            assert sess.dense_bind_counts == {"a": 0, "b": 1}
            assert sess.dense_bind_skips["b"] == 1

    def test_inplace_mutation_is_detected_not_skipped(self, small_problem):
        """The snapshot comparison must catch callers that mutate the same
        array object in place — identity alone would serve stale blocks."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            out1, _ = sess.sddmm(A, B)
            B[0, 0] += 1.0  # same object, new values
            out2, _ = sess.sddmm(A, B)
            assert sess.dense_bind_counts["b"] == 2
            np.testing.assert_allclose(out2.vals, sddmm_serial(S, A, B).vals,
                                       rtol=1e-9)
            assert not np.array_equal(out1.vals, out2.vals)

    def test_equal_values_different_object_still_skips(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.sddmm(A, B)
            sess.sddmm(A.copy(), B.copy())  # bitwise equal -> no rebind
            assert sess.dense_bind_counts == {"a": 1, "b": 1}

    def test_fused_output_side_stays_resident_next_call(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift",
                        elision="replication-reuse") as sess:
            want, _ = sess.fusedmm_b(A, B)  # native b: writes the B slot
            out, _ = sess.fusedmm_b(A, B)
            # call 1 put the bound B back: both sides bound once
            assert sess.dense_bind_counts == {"a": 1, "b": 1}
            assert sess.dense_bind_skips == {"a": 1, "b": 1}
            assert np.array_equal(out, want)

    def test_overwritten_cycling_side_retires_its_snapshot(
        self, small_problem, monkeypatch
    ):
        """The ``er_comm`` pattern — ``fusedmm_a(A_i, B)``, A fresh every
        call, B fixed, native side = the cycling one: the written side
        keeps its snapshot like any input, so it is compared for
        ``_BIND_MISS_LIMIT`` calls, then retires and is never compared
        again; the fixed side still skips every rebind."""
        S, A, B = small_problem
        rng = np.random.default_rng(5)
        limit = repro.Session._BIND_MISS_LIMIT
        with repro.plan(S, A.shape[1], p=4, c=2, algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", comm="sparse") as sess:
            compared = []  # did the cycling side's bind find a snapshot?
            bind_arg = sess._bind_arg

            def spy(transpose, side, X, overwritten=False):
                if (transpose, side) == (True, "b"):
                    compared.append(sess._dense_state[True]["b"] is not None)
                return bind_arg(transpose, side, X, overwritten)

            monkeypatch.setattr(sess, "_bind_arg", spy)
            for _ in range(5):
                A_i = rng.standard_normal(A.shape)
                out, _ = sess.fusedmm_a(A_i, B)
            np.testing.assert_allclose(out, fusedmm_a_serial(S, A_i, B), rtol=1e-9)
            assert compared == [False] + [True] * limit + [False] * (4 - limit)
            assert sess._dense_state[True]["b"] is None
            # transposed sibling: plan side "a" holds the fixed B, "b" the A_i
            assert sess.dense_bind_counts == {"a": 1, "b": 5}
            assert sess.dense_bind_skips == {"a": 4, "b": 0}

    def test_existing_snapshot_still_skips_an_overwritten_side(self, small_problem):
        """A side the call will overwrite is still compared against a
        snapshot an earlier call left: sddmm binds A, fusedmm_a (native a)
        finds it resident and skips the scatter."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.sddmm(A, B)
            sess.fusedmm_a(A, B)
            assert sess.dense_bind_counts == {"a": 1, "b": 1}
            assert sess.dense_bind_skips == {"a": 1, "b": 1}
            out, _ = sess.fusedmm_a(A, B)  # call 2 put A back: skipped again
            assert sess.dense_bind_counts == {"a": 1, "b": 1}
            assert sess.dense_bind_skips == {"a": 2, "b": 2}
            np.testing.assert_allclose(out, fusedmm_a_serial(S, A, B), rtol=1e-9)

    def test_run_rank_binds_as_a_kernel_call_does(self, small_problem):
        """``run_rank`` binds through the kernels' skip-rebind: a side a
        kernel left resident is not scattered again, an omitted side keeps
        its blocks, and the procedure dirties both sides."""
        S, A, B = small_problem
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(A.shape)
        x0 = rng.standard_normal(A.shape)

        def noop(ctx, plan_, local):
            return None

        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift",
                        elision="local-kernel-fusion") as sess:
            sess.sddmm(rhs, B)          # snapshots both sides
            sess.run_rank(noop, x0, B)  # rebinds only the moving side
            assert sess.dense_bind_counts == {"a": 2, "b": 1}
            assert sess.dense_bind_skips == {"a": 0, "b": 1}
            # an omitted side stays resident: nothing is scattered
            out, _ = sess.run_rank(noop, collect="a")
            np.testing.assert_array_equal(out, x0)
            assert sess.dense_bind_counts == {"a": 2, "b": 1}
            # a custom rank procedure may write anything: both sides dirty
            sess.run_rank(noop, x0, B)
            assert sess.dense_bind_counts == {"a": 3, "b": 2}

    def test_run_rank_validates_before_dispatch(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            with pytest.raises(ReproError, match="collect"):
                sess.run_rank(lambda *args: None, collect="c")
            with pytest.raises(ReproError, match="operand shapes"):
                sess.run_rank(lambda *args: None, A[:-1])
            assert sess.metrics() == []

    def test_run_rank_collects_full_width_blocks_at_their_width(
        self, small_problem
    ):
        """A family whose pieces span the full width sizes a dense collect
        from the rank blocks, so a procedure may leave them wider than the
        plan's ``r`` (GAT's concatenated heads)."""
        S, A, B = small_problem

        def widen(ctx, plan, local):
            local.B = np.concatenate([local.B, 2 * local.B], axis=1)

        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            out, _ = sess.run_rank(widen, A, B, collect="b")
        np.testing.assert_array_equal(out, np.concatenate([B, 2 * B], axis=1))

    @pytest.mark.parametrize("name,comm", [
        ("1.5d-sparse-shift", "dense"),
        ("1.5d-sparse-shift", "sparse"),
        ("1.5d-dense-shift", "dense"),
    ])
    @pytest.mark.parametrize("variant", [FusedVariant.FUSED_A, FusedVariant.FUSED_B])
    def test_als_fixed_factor_replicated_once_per_half_sweep(
        self, monkeypatch, name, comm, variant
    ):
        """Under replication reuse the fixed factor is what the fiber
        gathers: one ``replicate`` per rank per half-sweep feeds the
        right-hand side and all ``cg_iters + 1`` matvecs, bitwise-equal to
        gathering per matvec."""
        from repro.apps.als import DistributedALS
        from repro.types import Phase

        p, c, n, r, cg_iters = 8, 2, 60, 8, 3
        pattern = repro.erdos_renyi(n, n, 5, seed=4, values="ones")
        rng = np.random.default_rng(6)
        fixed, x0 = (rng.standard_normal((n, r)) for _ in range(2))
        als = DistributedALS(p=p, c=c, algorithm=name, cg_iters=cg_iters, comm=comm,
                             elision=repro.Elision.REPLICATION_REUSE)

        def half_sweep(per_matvec_gather: bool):
            with repro.plan(pattern, r, p=p, c=c, algorithm=name,
                            elision="replication-reuse", comm=comm) as sess:
                alg = sess.alg
                gathers, handed = [], []
                replicate, reuse = alg.replicate, alg.rank_fusedmm_reuse

                def counting_replicate(*args, **kw):
                    gathers.append(1)
                    return replicate(*args, **kw)

                def watching_reuse(*args, replicated=None, **kw):
                    handed.append(replicated is not None)
                    if per_matvec_gather:
                        replicated = None
                    return reuse(*args, replicated=replicated, **kw)

                monkeypatch.setattr(alg, "replicate", counting_replicate)
                monkeypatch.setattr(alg, "rank_fusedmm_reuse", watching_reuse)
                x = als._rank_cg(sess, variant, fixed, x0)
                words = sess.report().phase_words(Phase.REPLICATION)
            return x, len(gathers), handed, words

        x, gathers, handed, words = half_sweep(per_matvec_gather=False)
        assert gathers == p  # one fiber gather per rank per half-sweep
        assert len(handed) == p * (cg_iters + 1) and all(handed)
        ref, ref_gathers, _, ref_words = half_sweep(per_matvec_gather=True)
        assert ref_gathers == p * (cg_iters + 2)  # the hoisted one + per matvec
        assert np.array_equal(x, ref)
        # the only count that moves is the replication traffic, downward
        assert words * (cg_iters + 2) == ref_words

    def test_skipping_preserves_bitwise_outputs(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            first, _ = sess.sddmm(A, B)
            second, _ = sess.sddmm(A, B)  # fully skipped bind
            assert np.array_equal(first.vals, second.vals)

    def test_transposed_orientation_tracks_independently(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=2,
                        algorithm="1.5d-dense-shift",
                        elision="replication-reuse") as sess:
            # FUSED_A under replication reuse runs on the transposed
            # sibling; its binds must not disturb the forward tracking
            sess.fusedmm_a(A, B)
            sess.fusedmm_a(A, B)
            sess.sddmm(A, B)
            assert sess.dense_bind_counts["a"] >= 2  # both orientations


class TestFailedCallKeepsResidentBlocks:
    """A failed call leaves every rank holding the blocks it was
    dispatched with (the pool's failure hook puts them back), so the
    skip-rebind snapshots survive it."""

    KW = dict(p=4, c=2, algorithm="1.5d-dense-shift", comm="dense")

    def test_next_clean_call_skips_the_unchanged_side(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], **self.KW) as sess:
            want, _ = sess.spmm_a(B)
        plan = repro.FaultPlan.crash_at(site="computation", rank=1)
        with repro.plan(S, A.shape[1], faults=plan, **self.KW) as sess:
            with pytest.raises(RuntimeError, match="injected crash"):
                sess.spmm_a(B)
            counts, skips = dict(sess.dense_bind_counts), dict(sess.dense_bind_skips)
            out, _ = sess.spmm_a(B)
            np.testing.assert_array_equal(out, want)
            assert sess.dense_bind_counts == counts
            assert sess.dense_bind_skips["b"] == skips["b"] + 1

    def test_one_record_per_call_that_ran(self, small_problem):
        """A call rejected before binding (a shape error) leaves no
        metrics record; one that failed on the ranks leaves exactly one,
        ``"failed"``, and the next call gets its own."""
        S, A, B = small_problem
        plan = repro.FaultPlan.crash_at(site="computation", rank=1)
        with repro.plan(S, A.shape[1], faults=plan, **self.KW) as sess:
            with pytest.raises(ReproError, match="operand shapes"):
                sess.spmm_a(B[:-1])
            assert sess.metrics() == []
            with pytest.raises(RuntimeError, match="injected crash"):
                sess.spmm_a(B)
            sess.spmm_a(B)
            records = sess.metrics()
            assert [(r["call"], r["outcome"]) for r in records] == [
                (0, "failed"), (1, "ok")
            ]

    def test_a_failed_call_never_lets_a_changed_operand_skip(
        self, small_problem
    ):
        """Call 1 with ``B`` crashes for good; call 2 with ``B2`` must
        scatter ``B2``, not skip it against call 1's snapshot."""
        S, A, B = small_problem
        B2 = np.random.default_rng(8).standard_normal(B.shape)
        with repro.plan(S, A.shape[1], **self.KW) as sess:
            want, _ = sess.fusedmm_a(A, B2)
        plan = repro.FaultPlan.crash_at(site="computation", rank=1)
        with repro.plan(S, A.shape[1], faults=plan, **self.KW) as sess:
            with pytest.raises(RuntimeError, match="injected crash"):
                sess.fusedmm_a(A, B)
            out, _ = sess.fusedmm_a(A, B2)
            np.testing.assert_array_equal(out, want)

    def test_a_failed_spmm_puts_its_output_side_back(self, small_problem):
        """SpMMA crashes after its zero output blocks were dispatched: the
        A side gets its pre-call blocks back, so the next SDDMM on the same
        operands skips every bind and reads A, not zeros."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], **self.KW) as sess:
            want, _ = sess.sddmm(A, B)
        plan = repro.FaultPlan.crash_at(site="reduce-scatter-A", rank=1)
        with repro.plan(S, A.shape[1], faults=plan, **self.KW) as sess:
            sess.sddmm(A, B)
            with pytest.raises(RuntimeError, match="injected crash"):
                sess.spmm_a(B)
            counts = dict(sess.dense_bind_counts)
            out, _ = sess.sddmm(A, B)
            assert sess.dense_bind_counts == counts
            np.testing.assert_array_equal(out.vals, want.vals)


class TestThreadSafety:
    """Sessions are single-caller: a second driver thread gets a typed
    :class:`~repro.errors.SessionBusyError` immediately — never a silent
    interleave of bind/launch/collect, never a deadlock.  The serving
    front-end (``repro.serve.Server``) relies on this contract when it
    funnels every session through one dispatcher thread."""

    def test_second_driver_thread_gets_typed_busy_error(self, small_problem):
        import threading

        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.sddmm(A, B)  # warm the pool outside the race window
            done = threading.Event()
            errors = []

            def driver():
                try:
                    for _ in range(25):
                        sess.sddmm(A, B)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                finally:
                    done.set()

            t = threading.Thread(target=driver)
            busy = 0
            t.start()
            # poll from this thread while the driver owns the gate: the
            # driver holds it for nearly its whole loop, so collisions are
            # certain — and every one must surface as the typed error
            while not done.is_set():
                try:
                    sess.metrics()
                except repro.SessionBusyError:
                    busy += 1
            t.join()
            assert not errors  # the owning thread was never disturbed
            assert busy > 0
            # the session recovers: serialized callers work fine after
            out, _ = sess.sddmm(A, B)
            assert sess.metrics()[-1]["outcome"] == "ok"

    def test_gate_is_reentrant_for_internal_composition(self, small_problem):
        # fusedmm_a -> report composes on the owning thread (RLock), and
        # the busy error never fires for single-threaded callers
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            out, report = sess.fusedmm_a(A, B)
            assert out.shape == A.shape
            assert sess.metrics()[-1]["outcome"] == "ok"


class TestSkipRebindAfterFailure:
    def test_failure_invalidates_skip_rebind_snapshots(self, small_problem):
        """A custom rank procedure dirties both dense sides, failing or
        not: a bind may never be skipped against resident blocks a failed
        ``run_rank`` half-overwrote in place."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            want = sess.fusedmm_a(A, B)[0]
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            sess.fusedmm_a(A, B)  # snapshots both sides

            def bad(ctx, plan_, local, sparse_plan=None):
                local.A[:] = np.nan  # clobber resident blocks, then die
                local.B[:] = np.nan
                ctx.comm.barrier(tag=77)
                raise ValueError("post-clobber failure")

            with pytest.raises(RuntimeError):
                sess.run_rank(bad, label="clobber")
            # the failed run_rank dirtied both sides: rebinding the *same*
            # operands must NOT be skipped against the NaN-filled blocks
            out, _ = sess.fusedmm_a(A, B)
            assert np.isfinite(out).all()
            assert np.array_equal(want, out)

    def test_single_rank_failure_invalidates_snapshots_too(self, small_problem):
        """p=1 pools run the body inline, so the failure surfaces at
        dispatch time — the procedure must still dirty both sides."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=1, c=1,
                        algorithm="1.5d-dense-shift") as sess:
            want = sess.fusedmm_a(A, B)[0]
        with repro.plan(S, A.shape[1], p=1, c=1,
                        algorithm="1.5d-dense-shift") as sess:
            sess.fusedmm_a(A, B)

            def bad(ctx, plan_, local, sparse_plan=None):
                local.A[:] = np.nan
                local.B[:] = np.nan
                raise ValueError("inline failure")

            with pytest.raises(ValueError):
                sess.run_rank(bad, label="clobber")
            out, _ = sess.fusedmm_a(A, B)  # must rebind, not skip
            assert np.isfinite(out).all()
            assert np.array_equal(want, out)

    def test_changing_operand_retires_tracking(self, small_problem):
        """A side that misses the snapshot compare on every bind stops
        being tracked until a ``run_rank`` dirties it (no permanent upkeep for
        always-fresh operands) — and correctness is unaffected."""
        S, A, B = small_problem
        rng = np.random.default_rng(11)
        limit = repro.Session._BIND_MISS_LIMIT
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            for _ in range(limit + 2):
                sess.sddmm(A, rng.standard_normal(B.shape))
            # after `limit` misses the b-side snapshot is retired
            assert sess._dense_state[False]["b"] is None
            # ...while the repeating a-side still skips
            assert sess.dense_bind_counts["a"] == 1
            out, _ = sess.sddmm(A, B)
            from repro.baselines.serial import sddmm_serial

            np.testing.assert_allclose(out.vals, sddmm_serial(S, A, B).vals,
                                       rtol=1e-9)

    def test_abort_and_recovery(self, small_problem):
        """A rank failure while its siblings are blocked in a shift leaves
        the session's pool reusable and later calls correct."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=4,
                        algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", comm="sparse") as sess:
            want, _ = sess.fusedmm_b(A, B)

            def bad(ctx, plan_, local, sparse_plan=None):
                if ctx.comm.rank == 3:
                    raise ValueError("mid-shift failure")
                ctx.comm.shift(np.ones(4), displacement=1, tag=9)

            with pytest.raises(RuntimeError):
                sess.run_rank(bad, label="doomed")
            got, _ = sess.fusedmm_b(A, B)
            assert np.array_equal(want, got)
