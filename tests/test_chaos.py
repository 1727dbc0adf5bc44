"""Chaos suite: deterministic faults against full algorithm sessions.

The CI chaos lane runs this file on its own.  A fixed seed matrix drives
:meth:`FaultPlan.chaos` — crash, drop and straggler faults — across the
four algorithm families under ``deadline_ms`` + ``retries``; every case
must end in a successful retried/degraded result that is bitwise
identical to a clean run (or, for the deliberately unrecoverable cases,
a typed error carrying the blocked-state dump) — never a hang and never
a re-plan.  The thread-leak gate from the stress suite guards every
session here too.

Every recovery case is driven through both fused orientations
(``ENTRIES``): FusedMMA and FusedMMB reach the faulted channels through
different native procedures, and both must come back bitwise.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_SHIFT_S
from repro.comm_sparse import TAG_SPARSE_AG, TAG_SPARSE_RS
from repro.errors import CommError, SpmdTimeout
from repro.runtime.faults import FaultPlan, FaultSpec

P = 8
N = 96
R = 8

#: the four algorithm families of the paper, all on p=8 (c=2 grids)
FAMILIES = [
    "1.5d-dense-shift",
    "1.5d-sparse-shift",
    "2.5d-dense-replicate",
    "2.5d-sparse-replicate",
]

#: per-(family, action) chaos seeds: the first seed at or after the
#: deterministic base whose derived fault has the wanted action — a fixed
#: matrix (same seeds every run), yet guaranteed to cover crash x drop x
#: straggler on every family
_SEED_BASES = {family: 100 * i for i, family in enumerate(FAMILIES)}


#: the two fused orientations every recovery case runs
ENTRIES = ["fusedmm_a", "fusedmm_b"]


def _fused(sess, entry: str, A, B):
    return getattr(sess, entry)(A, B)


def _chaos_seed(family: str, action: str) -> int:
    seed = _SEED_BASES[family]
    while FaultPlan.chaos(seed, P).specs[0].action != action:
        seed += 1
    return seed


@pytest.fixture(scope="module")
def workload():
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((N, R))
    B = rng.standard_normal((N, R))
    return S, A, B


@pytest.fixture(scope="module")
def references(workload):
    """Clean output per family and entry (the bitwise oracle)."""
    S, A, B = workload
    refs = {}
    for family in FAMILIES:
        with repro.plan(S, R, p=P, c=2, algorithm=family, comm="dense") as sess:
            for entry in ENTRIES:
                refs[family, entry], _ = _fused(sess, entry, A, B)
    return refs


class TestChaosMatrix:
    """crash x drop x straggler across the four families."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("action", FaultPlan.CHAOS_ACTIONS)
    def test_chaos_case_recovers_bitwise(
        self, workload, references, family, action, entry
    ):
        S, A, B = workload
        seed = _chaos_seed(family, action)
        plan = repro.FaultPlan.chaos(seed, P)
        baseline = threading.active_count()
        with repro.plan(
            S, R, p=P, c=2, algorithm=family, comm="dense",
            deadline_ms=1200, retries=2, faults=plan,
        ) as sess:
            out, _ = _fused(sess, entry, A, B)
            np.testing.assert_array_equal(out, references[family, entry])
            rec = sess.metrics()[-1]
            assert rec["outcome"] in ("ok", "retried", "degraded")
            assert len(sess.metrics()) == 1  # one record per call
            # retry re-executes against the resident distribution; it
            # must never re-plan
            assert sess.plan_builds == 1
            # the session stays usable for a follow-up call (which may
            # consume a yet-unfired fault index and still recover)
            out2, _ = _fused(sess, entry, A, B)
            np.testing.assert_array_equal(out2, references[family, entry])
            assert sess.plan_builds == 1
        assert threading.active_count() == baseline  # thread-leak gate

    @pytest.mark.parametrize("family", ["1.5d-sparse-shift", "2.5d-sparse-replicate"])
    def test_pool_exhaustion_retries_clean(self, workload, references, family):
        """A simulated allocation failure in the panel BufferPool aborts
        the call; the retry acquires cleanly and matches bitwise."""
        S, A, B = workload
        plan = FaultPlan.exhaust_buffers(rank=0)  # first acquisition fails
        with repro.plan(
            S, R, p=P, c=2, algorithm=family, comm="dense",
            retries=1, faults=plan,
        ) as sess:
            out, _ = sess.fusedmm_a(A, B)
            np.testing.assert_array_equal(out, references[family, "fusedmm_a"])
            assert sess.metrics()[-1]["outcome"] == "retried"
            assert sess.retried_calls == 1
            assert plan.fired_log[0][1] == "exhaust"


class TestGracefulDegradation:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_sparse_comm_degrades_to_dense(self, workload, references, entry):
        """A sticky fault on the need-list exchange channel defeats every
        retry; the degraded dense re-run avoids the channel entirely and
        produces the bitwise-identical output."""
        S, A, B = workload
        sticky = FaultPlan([FaultSpec("drop", tag=TAG_SPARSE_AG, times=None)])
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-sparse-shift", comm="sparse",
            deadline_ms=700, retries=1, faults=sticky,
        ) as sess:
            out, _ = _fused(sess, entry, A, B)
            np.testing.assert_array_equal(out, references["1.5d-sparse-shift", entry])
            assert sess.metrics()[-1]["outcome"] == "degraded"
            assert sess.degraded_calls == 1
            assert sess.plan_builds == 1

    @pytest.mark.parametrize(
        "fault",
        [
            # the reduction is the only exchange of a fused SpMM round
            FaultSpec("drop", tag=TAG_SPARSE_RS),
            FaultSpec("crash", rank=5, site="reduce-A-packed"),
        ],
        ids=["drop", "abort"],
    )
    def test_fault_in_the_spmm_round_of_a_need_list_fused_call(self, workload, fault):
        """The need-list 2.5D FusedMM carries the SDDMM round's packed
        panel into its SpMM round.  A fault there unwinds the call with
        the panel held and the output panel in its sibling's slot; the
        retry and the next call on the same session acquire both slots
        again and return the clean bits — the failure dropped every stored
        panel, so nothing gathered before it is read after it."""
        S, A, B = workload
        kw = dict(p=P, c=2, algorithm="2.5d-sparse-replicate", comm="sparse")
        with repro.plan(S, R, **kw) as clean:
            ref, _ = clean.fusedmm_a(A, B)
            ref2, _ = clean.fusedmm_a(B, A)
        plan = FaultPlan([fault])
        with repro.plan(S, R, deadline_ms=700, retries=1, faults=plan, **kw) as sess:
            out, _ = sess.fusedmm_a(A, B)
            np.testing.assert_array_equal(out, ref)
            assert sess.metrics()[-1]["outcome"] == "retried"
            assert len(plan.fired_log) == 1
            out2, _ = sess.fusedmm_a(B, A)  # both operands rebound
            np.testing.assert_array_equal(out2, ref2)
            assert sess.metrics()[-1]["outcome"] == "ok"
            assert sess.plan_builds == 1

    @pytest.mark.parametrize(
        "times,retries,outcome",
        [(1, 1, "retried"), (None, 1, "timeout")],
    )
    @pytest.mark.parametrize("family", ["1.5d-sparse-shift", "2.5d-dense-replicate"])
    def test_lost_column_major_chunk_recovers_bitwise_or_typed(
        self, workload, family, times, retries, outcome
    ):
        """An SpMMB round circulates the chunk in its prepared
        column-major travel order; losing one on the wire is an ordinary
        transport fault.  The re-run reads the home rank's cached
        preparation (what a rank keeps of a visiting chunk — its carried
        coordinates — goes with the contexts the failure hook drops), so
        it is bitwise — or, when the channel stays dead, a typed timeout."""
        S, A, _ = workload
        with repro.plan(S, R, p=P, c=2, algorithm=family, comm="dense") as clean:
            ref, _ = clean.spmm_b(A)
        lost = FaultPlan([FaultSpec("drop", tag=TAG_SHIFT_S, times=times)])
        with repro.plan(
            S, R, p=P, c=2, algorithm=family, comm="dense",
            deadline_ms=700, retries=retries, faults=lost,
        ) as sess:
            if outcome == "timeout":
                with pytest.raises(SpmdTimeout) as err:
                    sess.spmm_b(A)
                assert err.value.dump
            else:
                out, _ = sess.spmm_b(A)
                np.testing.assert_array_equal(out, ref)
                assert len(lost.fired_log) == 1
            assert sess.metrics()[-1]["outcome"] == outcome
            assert sess.plan_builds == 1

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_successful_degrade_keeps_contexts_and_bind_snapshots(
        self, workload, references, entry
    ):
        """Contexts do not carry the comm mode, so the degraded re-run's
        contexts and skip-rebind snapshots serve the next clean call: no
        context rebuild, and the unchanged input side is not re-scattered."""
        S, A, B = workload
        once = FaultPlan([FaultSpec("drop", tag=TAG_SPARSE_AG, times=1)])
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-sparse-shift", comm="sparse",
            deadline_ms=700, retries=0, faults=once,
        ) as sess:
            out, _ = _fused(sess, entry, A, B)
            np.testing.assert_array_equal(out, references["1.5d-sparse-shift", entry])
            assert sess.metrics()[-1]["outcome"] == "degraded"
            builds = sess.context_builds
            skips = sum(sess.dense_bind_skips.values())
            out2, _ = _fused(sess, entry, A, B)
            np.testing.assert_array_equal(out2, references["1.5d-sparse-shift", entry])
            assert sess.metrics()[-1]["outcome"] == "ok"
            assert sess.context_builds == builds
            assert sum(sess.dense_bind_skips.values()) > skips
            assert sess.plan_builds == 1

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_unrecoverable_fault_surfaces_first_error(self, workload, entry):
        """When the conservative path hits the same sticky fault, the
        *first* error (with its dump) surfaces — not the degraded
        attempt's — and the outcome records the timeout."""
        S, A, B = workload
        # TAG_SHIFT_S carries the circulating chunks on the need-list and
        # the dense comm path alike: degradation cannot dodge it
        sticky = FaultPlan([FaultSpec("drop", tag=TAG_SHIFT_S, times=None)])
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-sparse-shift", comm="sparse",
            deadline_ms=500, retries=0, faults=sticky,
        ) as sess:
            with pytest.raises(SpmdTimeout) as err:
                _fused(sess, entry, A, B)
            assert err.value.dump  # blocked-state dump travels with it
            assert sess.metrics()[-1]["outcome"] == "timeout"
            assert sess.degraded_calls == 0

    def test_user_errors_never_degrade(self, workload):
        """Deterministic user errors are not runtime faults: no retry, no
        degradation, the original error surfaces on attempt one."""
        S, A, B = workload

        def bad_edge(t_rows, b_cols):
            raise ValueError("edge explosion")

        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
            retries=3,
        ) as sess:
            with pytest.raises(RuntimeError, match="edge explosion"):
                sess.sddmm(A, B, edge_op=bad_edge)
            assert sess.retried_calls == 0
            assert sess.degraded_calls == 0
            assert sess.metrics()[-1]["outcome"] == "failed"
            # the session remains usable after the fail-fast surface
            out, _ = sess.spmm_a(B)
            assert out.shape == (N, R)


class TestRetrySemantics:
    def test_retry_is_deterministic_across_runs(self, workload, references):
        """Same plan, same program: the fault fires at the same operation
        and the recovery produces the same bits, run after run."""
        S, A, B = workload

        def one_run():
            plan = FaultPlan.crash_at(site="computation", rank=3, index=1)
            with repro.plan(
                S, R, p=P, c=2, algorithm="2.5d-dense-replicate", comm="dense",
                retries=1, faults=plan,
            ) as sess:
                out, _ = sess.fusedmm_a(A, B)
                return out, tuple(plan.fired_log)

        (out_a, log_a), (out_b, log_b) = one_run(), one_run()
        np.testing.assert_array_equal(out_a, out_b)
        assert log_a == log_b == ((3, "crash", "phase=computation"),)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_exhausted_retries_surface_typed_error(self, workload, entry):
        """More consecutive faults than retries on the conservative path:
        the typed error surfaces (no silent success, no hang)."""
        S, A, B = workload
        plan = FaultPlan([FaultSpec("crash", rank=1, site="computation", times=3)])
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
            retries=1, faults=plan,
        ) as sess:
            with pytest.raises(RuntimeError, match="injected crash"):
                _fused(sess, entry, A, B)
            assert sess.metrics()[-1]["outcome"] == "failed"

    def test_serve_dispatch_primitive_retries(self, workload):
        """``spmm_a`` is what the serving fleet dispatches: a crash under
        ``retries=1`` is recovered within the call, the output matches the
        clean call bitwise, and the call's metrics record says
        ``retried``."""
        S, A, B = workload
        kw = dict(p=P, c=2, algorithm="1.5d-dense-shift", comm="dense")
        with repro.plan(S, R, **kw) as sess:
            want, _ = sess.spmm_a(B)
        plan = FaultPlan.crash_at(site="computation", rank=2)
        with repro.plan(S, R, retries=1, faults=plan, **kw) as sess:
            out, _ = sess.spmm_a(B)
            np.testing.assert_array_equal(out, want)
            [record] = sess.metrics()
            assert record["outcome"] == "retried"
            assert record["retries"] == 1
            assert sess.retried_calls == 1 and sess.plan_builds == 1

    def test_retried_call_leaves_the_next_calls_bitwise(self, workload):
        """Call k crashes and is re-executed; the next call binds a
        changed operand and a later one repeats k's operands, and each
        sees the right resident blocks."""
        S, A, B = workload
        B2 = np.random.default_rng(9).standard_normal(B.shape)
        kw = dict(p=P, c=2, algorithm="1.5d-dense-shift", comm="dense")
        with repro.plan(S, R, **kw) as sess:
            want = [sess.fusedmm_a(A, b)[0] for b in (B, B2, B)]
        plan = FaultPlan.crash_at(site="computation", rank=1)
        with repro.plan(S, R, retries=1, faults=plan, **kw) as sess:
            for b, ref in zip((B, B2, B), want):  # the first call crashes once
                np.testing.assert_array_equal(sess.fusedmm_a(A, b)[0], ref)
            assert [r["outcome"] for r in sess.metrics()] == [
                "retried", "ok", "ok"
            ]
            assert sess.plan_builds == 1

    def test_run_rank_stays_fail_fast(self, workload):
        """Custom rank procedures mutate rank state, so ``run_rank`` never
        re-executes — even a runtime-shaped fault under ``retries``."""
        S, A, B = workload
        runs = []

        def flaky(ctx, plan_, local, sparse_plan=None):
            runs.append(ctx.comm.rank)
            raise CommError("transport hiccup")

        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
            retries=3,
        ) as sess:
            with pytest.raises(RuntimeError, match="transport hiccup"):
                sess.run_rank(flaky, label="flaky")
            assert len(runs) <= P  # one attempt, not retries + 1
            assert sess.retried_calls == 0
            assert sess.metrics()[-1]["outcome"] == "failed"

    def test_metrics_trail_is_complete(self, workload):
        """One record per call — including the failed ones — with the
        outcome/retries fields the chaos lane audits."""
        S, A, B = workload
        plan = FaultPlan.crash_at(site="computation", rank=0)
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
            retries=1, faults=plan,
        ) as sess:
            sess.fusedmm_a(A, B)  # retried (crash fires once)
            sess.fusedmm_a(A, B)  # clean
            records = sess.metrics()
        assert [r["outcome"] for r in records] == ["retried", "ok"]
        assert [r["retries"] for r in records] == [1, 0]
        assert all("wall_ms" in r and "comm_words" in r for r in records)


class TestMetricsJsonl:
    """The JSONL mirror of the per-call metrics trail (the serving stats
    layer and external log shippers consume this format)."""

    FIELDS = ("call", "label", "outcome", "retries", "wall_ms",
              "comm_words", "comm_messages", "nranks")

    def test_round_trip_one_record_per_call(self, workload):
        import json

        S, A, B = workload
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
        ) as sess:
            sess.sddmm(A, B)
            sess.spmm_a(B)
            sess.fusedmm_a(A, B)
            lines = sess.metrics_jsonl().splitlines()
            records = [json.loads(line) for line in lines]
            assert records == sess.metrics()  # lossless round-trip
        assert len(records) == 3
        assert [r["outcome"] for r in records] == ["ok", "ok", "ok"]
        assert "sddmm" in records[0]["label"]
        assert "spmm_a" in records[1]["label"]
        for rec in records:
            for fld in self.FIELDS:
                assert fld in rec, f"record missing {fld}"

    def test_outcome_and_retries_under_injected_fault_retry(self, workload):
        import json

        S, A, B = workload
        plan = FaultPlan.crash_at(site="computation", rank=0)
        with repro.plan(
            S, R, p=P, c=2, algorithm="1.5d-dense-shift", comm="dense",
            retries=1, faults=plan,
        ) as sess:
            sess.fusedmm_a(A, B)  # crash fires once -> retried
            sess.fusedmm_a(A, B)  # clean
            records = [
                json.loads(line)
                for line in sess.metrics_jsonl().splitlines()
            ]
        assert [r["outcome"] for r in records] == ["retried", "ok"]
        assert [r["retries"] for r in records] == [1, 0]
