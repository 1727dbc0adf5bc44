"""Serving subsystem tests: batching equality, admission, deadlines, fleet.

The acceptance properties of the micro-batched front-end:

* batched outputs are **bitwise equal** to per-request unbatched calls,
  for both the ALS top-k and GAT edge-scoring workloads (per-column /
  per-edge independence of the underlying kernels);
* admission control rejects deterministically at ``max_queue`` with a
  typed :class:`~repro.errors.ServeOverload`, without enqueuing;
* a per-request deadline expiring mid-batch surfaces ``"timeout"`` for
  that request only — batch-mates settle normally;
* fleets drain cleanly: after ``close()`` no worker/dispatcher threads
  remain (the stress suite's thread-leak gate);
* per-tenant value rebinding on the shared planned structure.
"""

from __future__ import annotations

import importlib.util
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.als import AlsServeModel, recommend_topk
from repro.apps.gat import GatServeModel
from repro.errors import ReproError, ServeOverload, SpmdTimeout
from repro.runtime.faults import FaultPlan
from repro.serve import (
    AlsTopKRequest,
    GatEdgeScoreRequest,
    MicroBatcher,
    Server,
    ServeFuture,
)
from repro.serve.fleet import SessionFleet
from repro.serve.request import Envelope, Request, batch_deadline_ms

N_USERS, N_ITEMS, D = 48, 40, 6
N_NODES, R_IN = 40, 8
P = 2
WIDTH = 8


@pytest.fixture(scope="module")
def als_parts():
    rng = np.random.default_rng(7)
    user_factors = rng.standard_normal((N_USERS, D))
    item_factors = rng.standard_normal((N_ITEMS, D))
    seen = repro.erdos_renyi(N_USERS, N_ITEMS, 4, seed=11)
    return user_factors, item_factors, seen


@pytest.fixture(scope="module")
def gat_parts():
    rng = np.random.default_rng(8)
    adjacency = repro.erdos_renyi(N_NODES, N_NODES, 4, seed=12)
    features = rng.standard_normal((N_NODES, R_IN))
    return adjacency, features


def _als_model(als_parts, batch_width=WIDTH, **kw):
    user_factors, item_factors, seen = als_parts
    return AlsServeModel(
        user_factors, item_factors, seen=seen, p=P,
        batch_width=batch_width, **kw,
    )


def _gat_model(gat_parts, batch_width=WIDTH, **kw):
    adjacency, features = gat_parts
    return GatServeModel(
        adjacency, features, p=P, batch_width=batch_width, seed=3, **kw
    )


def _serve_all(model, requests, **server_kw):
    """Inline (deterministic) serving of a request list, in order."""
    server_kw.setdefault("max_queue", max(len(requests), 1))
    with Server(model, background=False, **server_kw) as srv:
        futures = [srv.submit(req) for req in requests]
        srv.drain()
        return [fut.result(timeout=0) for fut in futures]


class TestBatchedEqualsUnbatched:
    """The acceptance headline: riding in a panel never changes a value."""

    def test_als_bitwise(self, als_parts):
        users = [3, 17, 3, 40, 8, 21, 9, 0, 47, 17, 33]  # repeats allowed
        reqs = lambda: [  # noqa: E731 - fresh dataclasses per server
            AlsTopKRequest(model_id="als", user=u, k=5) for u in users
        ]
        batched = _serve_all(_als_model(als_parts), reqs())
        single = _serve_all(_als_model(als_parts, batch_width=1), reqs())
        assert all(c.ok for c in batched) and all(c.ok for c in single)
        assert max(c.batch_size for c in batched) > 1
        assert all(c.batch_size == 1 for c in single)
        for cb, cs in zip(batched, single):
            items_b, vals_b = cb.value
            items_s, vals_s = cs.value
            assert np.array_equal(items_b, items_s)
            assert np.array_equal(vals_b, vals_s)  # bitwise, no tolerance

    def test_als_matches_dense_reference(self, als_parts):
        user_factors, item_factors, seen = als_parts
        users = [1, 5, 42, 5]
        completions = _serve_all(
            _als_model(als_parts),
            [AlsTopKRequest(model_id="als", user=u, k=6) for u in users],
        )
        ref_items, ref_vals = recommend_topk(
            user_factors, item_factors, users, 6, seen=seen
        )
        for i, c in enumerate(completions):
            items, vals = c.value
            assert np.array_equal(items, ref_items[i])
            np.testing.assert_allclose(vals, ref_vals[i], rtol=1e-12)

    def test_gat_bitwise(self, gat_parts):
        nodes = [0, 7, 13, 2, 39, 11, 25, 18, 5]
        reqs = lambda: [  # noqa: E731
            GatEdgeScoreRequest(model_id="gat", node=v) for v in nodes
        ]
        batched = _serve_all(_gat_model(gat_parts), reqs())
        single = _serve_all(_gat_model(gat_parts, batch_width=1), reqs())
        assert all(c.ok for c in batched) and all(c.ok for c in single)
        assert max(c.batch_size for c in batched) > 1
        for cb, cs in zip(batched, single):
            cols_b, vals_b = cb.value
            cols_s, vals_s = cs.value
            assert np.array_equal(cols_b, cols_s)
            assert np.array_equal(vals_b, vals_s)

    def test_gat_duplicate_nodes_defer_across_batches(self, gat_parts):
        # two requests for one node cannot share a panel (one row each):
        # admit() defers the duplicate, and both still serve correctly
        completions = _serve_all(
            _gat_model(gat_parts),
            [GatEdgeScoreRequest(model_id="gat", node=4) for _ in range(3)],
        )
        assert [c.outcome for c in completions] == ["ok"] * 3
        assert all(c.batch_size == 1 for c in completions)
        for c in completions[1:]:
            assert np.array_equal(c.value[0], completions[0].value[0])
            assert np.array_equal(c.value[1], completions[0].value[1])


class TestAdmissionControl:
    def test_overload_rejects_deterministically(self, als_parts):
        model = _als_model(als_parts)
        with Server(model, background=False, max_queue=3) as srv:
            for trial in range(2):  # same reject point every time
                futures = [
                    srv.submit(AlsTopKRequest(model_id="als", user=u))
                    for u in range(3)
                ]
                with pytest.raises(ServeOverload):
                    srv.submit(AlsTopKRequest(model_id="als", user=3))
                assert srv.pending() == 3  # the reject did not enqueue
                srv.drain()
                assert all(f.result(timeout=0).ok for f in futures)
            stats = srv.stats()
            assert stats["outcomes"]["rejected"] == 2
            assert stats["served"] == 6  # rejects are not "served"

    def test_unknown_model_and_closed_server(self, als_parts):
        srv = Server(_als_model(als_parts), background=False, max_queue=4)
        with pytest.raises(ReproError, match="unknown model"):
            srv.submit(AlsTopKRequest(model_id="nope", user=0))
        srv.close()
        with pytest.raises(ReproError, match="closed"):
            srv.submit(AlsTopKRequest(model_id="als", user=0))

    def test_batcher_rejects_bad_capacity(self, als_parts):
        with pytest.raises(ReproError):
            MicroBatcher(_als_model(als_parts), window_ms=1.0, max_queue=0)


class TestDeadlines:
    def test_expired_member_times_out_without_poisoning_batch(self, als_parts):
        reqs = [
            AlsTopKRequest(model_id="als", user=1, k=5),
            # this member's end-to-end budget is over before the batch can
            # possibly settle; its mates carry no deadline, so the batch
            # itself runs without a watchdog
            AlsTopKRequest(model_id="als", user=2, k=5, deadline_ms=1e-6),
            AlsTopKRequest(model_id="als", user=3, k=5),
        ]
        completions = _serve_all(_als_model(als_parts), reqs)
        assert [c.outcome for c in completions] == ["ok", "timeout", "ok"]
        assert completions[1].value is None
        assert "deadline" in completions[1].error
        # the survivors are untouched: same batch, correct values
        ref = _serve_all(
            _als_model(als_parts, batch_width=1),
            [
                AlsTopKRequest(model_id="als", user=1, k=5),
                AlsTopKRequest(model_id="als", user=3, k=5),
            ],
        )
        for c, r in zip((completions[0], completions[2]), ref):
            assert np.array_equal(c.value[0], r.value[0])
            assert np.array_equal(c.value[1], r.value[1])

    def test_batch_deadline_is_max_remaining_budget(self):
        now = 100.0
        mk = lambda dl, age_s: Envelope(  # noqa: E731
            request=Request(model_id="m", deadline_ms=dl),
            future=ServeFuture(Request(model_id="m")),
            t_submit=now - age_s,
        )
        # any deadline-free member disarms the batch watchdog
        assert batch_deadline_ms([mk(5.0, 0.0), mk(None, 0.0)], now) is None
        # otherwise: the largest remaining budget
        batch = [mk(50.0, 0.01), mk(200.0, 0.1), mk(30.0, 0.0)]
        assert batch_deadline_ms(batch, now) == pytest.approx(100.0)
        # fully lapsed budgets floor at a positive horizon (the watchdog
        # rejects non-positive ones; members time out at settle instead)
        assert batch_deadline_ms([mk(1.0, 10.0)], now) == pytest.approx(1e-3)

    def test_default_deadline_is_stamped(self, als_parts):
        completions = _serve_all(
            _als_model(als_parts),
            [AlsTopKRequest(model_id="als", user=0)],
            default_deadline_ms=60_000.0,
        )
        assert completions[0].request.deadline_ms == 60_000.0
        assert completions[0].ok


class TestRetries:
    def test_completion_reports_the_retried_session_call(
        self, als_parts, monkeypatch
    ):
        """The fleet dispatches through ``spmm_a``; a batch whose
        session call crashed and was re-executed under the model's
        ``retries`` completes ``"retried"`` — with the clean values."""
        import repro.apps.als as als_app
        from repro.runtime.faults import FaultPlan

        reqs = lambda: [  # noqa: E731 - fresh dataclasses per server
            AlsTopKRequest(model_id="als", user=u, k=5) for u in range(WIDTH + 2)
        ]
        clean = _serve_all(_als_model(als_parts), reqs())
        # arm a crash-once fault on the session the model plans
        monkeypatch.setattr(
            als_app, "plan",
            lambda *a, **kw: repro.plan(
                *a, faults=FaultPlan.crash_at(site="computation", rank=0), **kw
            ),
        )
        completions = _serve_all(_als_model(als_parts, retries=1), reqs())
        # first batch: the crash fired once and the call was re-executed
        assert {(c.outcome, c.retries) for c in completions[:WIDTH]} == {
            ("retried", 1)
        }
        assert all(c.ok for c in completions)
        # second batch: clean
        assert {(c.outcome, c.retries) for c in completions[WIDTH:]} == {("ok", 0)}
        for got, want in zip(completions, clean):
            assert np.array_equal(got.value[0], want.value[0])
            assert np.array_equal(got.value[1], want.value[1])

    def test_failed_batch_leaves_the_next_batch_clean(self, als_parts, monkeypatch):
        """Without ``retries`` the crashed batch completes ``"failed"``;
        the next batch runs on the recovered session, ``"ok"`` and with
        the clean values."""
        import repro.apps.als as als_app

        reqs = lambda: [  # noqa: E731 - fresh dataclasses per server
            AlsTopKRequest(model_id="als", user=u, k=5) for u in range(WIDTH + 2)
        ]
        clean = _serve_all(_als_model(als_parts), reqs())
        monkeypatch.setattr(
            als_app, "plan",
            lambda *a, **kw: repro.plan(
                *a, faults=FaultPlan.crash_at(site="computation", rank=0), **kw
            ),
        )
        completions = _serve_all(_als_model(als_parts), reqs())
        assert {c.outcome for c in completions[:WIDTH]} == {"failed"}
        assert all("injected crash" in c.error for c in completions[:WIDTH])
        assert {c.outcome for c in completions[WIDTH:]} == {"ok"}
        for got, want in zip(completions[WIDTH:], clean[WIDTH:]):
            assert np.array_equal(got.value[0], want.value[0])
            assert np.array_equal(got.value[1], want.value[1])


def _one_batch(model, deadline_ms=None):
    """Serve one single-request batch on a bare fleet; return its
    completion and its session call's metrics record."""
    got = []
    fleet = SessionFleet(model, on_complete=got.append)
    try:
        req = AlsTopKRequest(model_id="als", user=1, k=5, deadline_ms=deadline_ms)
        env = Envelope(request=req, future=ServeFuture(req), t_submit=time.perf_counter())
        fleet.dispatch([env])
        records = fleet.session_metrics()
    finally:
        fleet.close()
    [completion] = got
    return completion, records


class TestOneOutcomeRule:
    """A batch's completions carry the outcome its session call recorded."""

    #: outcome -> (fault plan factory, retries, request deadline_ms)
    CASES = {
        "ok": (None, 0, None),
        "retried": (lambda: FaultPlan.crash_at(site="computation", rank=0), 1, None),
        "timeout": (lambda: FaultPlan.drop_message(rank=0, times=None), 0, 300.0),
        "failed": (
            lambda: FaultPlan.crash_at(site="computation", rank=0, times=None), 0, None
        ),
    }

    @pytest.mark.parametrize("outcome", list(CASES))
    def test_completion_outcome_is_the_session_record(
        self, als_parts, monkeypatch, outcome
    ):
        import repro.apps.als as als_app

        faults, retries, deadline_ms = self.CASES[outcome]
        if faults is not None:
            monkeypatch.setattr(
                als_app, "plan",
                lambda *a, **kw: repro.plan(*a, faults=faults(), **kw),
            )
        completion, [record] = _one_batch(
            _als_model(als_parts, retries=retries), deadline_ms
        )
        assert completion.outcome == record["outcome"] == outcome
        assert completion.retries == record["retries"]

    def test_launch_failure_goes_through_the_session_classifier(
        self, als_parts, monkeypatch
    ):
        """A chained timeout is a timeout, as ``Session.failure_outcome``
        says, even when it surfaces before a session call exists."""
        model = _als_model(als_parts)

        def encode(requests):
            raise RuntimeError("launch failed") from SpmdTimeout("expired")

        monkeypatch.setattr(model, "encode", encode)
        completion, records = _one_batch(model)
        assert completion.outcome == "timeout" and records == []


class TestTenants:
    def test_rebind_per_tenant_values(self, als_parts):
        user_factors, item_factors, seen = als_parts
        rng = np.random.default_rng(99)
        acme_factors = rng.standard_normal(item_factors.shape)
        model = _als_model(als_parts, tenants={"acme": acme_factors})
        reqs = [
            AlsTopKRequest(model_id="als", user=4, k=5),
            AlsTopKRequest(model_id="als", user=4, k=5, tenant_id="acme"),
            AlsTopKRequest(model_id="als", user=9, k=5),
            AlsTopKRequest(model_id="als", user=9, k=5, tenant_id="acme"),
        ]
        completions = _serve_all(model, reqs)
        assert all(c.ok for c in completions)
        # tenants never share a panel (different bound values)
        assert all(c.batch_size == 2 for c in completions)
        for c in completions:
            factors = acme_factors if c.request.tenant_id == "acme" else item_factors
            ref_items, ref_vals = recommend_topk(
                user_factors, factors, [c.request.user], 5, seen=seen
            )
            assert np.array_equal(c.value[0], ref_items[0])
            np.testing.assert_allclose(c.value[1], ref_vals[0], rtol=1e-12)
        # the two tenants genuinely disagree (the rebind did something)
        assert not np.array_equal(completions[0].value[1], completions[1].value[1])

    def test_unknown_tenant_fails_only_its_batch(self, als_parts):
        completions = _serve_all(
            _als_model(als_parts),
            [
                AlsTopKRequest(model_id="als", user=1, tenant_id="ghost"),
                AlsTopKRequest(model_id="als", user=2),
            ],
        )
        assert completions[0].outcome == "failed"
        assert "ghost" in completions[0].error
        assert completions[1].outcome == "ok"


class TestFleetLifecycle:
    def test_background_server_drains_without_leaking_threads(self, als_parts):
        baseline = threading.active_count()
        with Server(
            _als_model(als_parts), window_ms=0.5, max_queue=64, background=True,
        ) as srv:
            futures = [
                srv.submit(AlsTopKRequest(model_id="als", user=u % N_USERS, k=4))
                for u in range(24)
            ]
            srv.drain()
            completions = [f.result(timeout=60.0) for f in futures]
        assert all(c.ok for c in completions)
        assert threading.active_count() == baseline  # thread-leak gate

    @pytest.mark.parametrize("workload", ["als", "gat"])
    def test_lone_request_completes_without_drain(
        self, als_parts, gat_parts, workload
    ):
        """A background server completes a single request on its own: the
        batch that carries it settles when it runs, not when a later batch
        is dispatched or the server drains."""
        if workload == "als":
            model = _als_model(als_parts)
            req = AlsTopKRequest(model_id="als", user=3, k=4)
        else:
            model = _gat_model(gat_parts)
            req = GatEdgeScoreRequest(model_id="gat", node=3)
        with Server(model, window_ms=0.5, background=True) as srv:
            assert srv.submit(req).result(timeout=10.0).ok

    def test_inline_server_leaves_no_threads(self, gat_parts):
        baseline = threading.active_count()
        completions = _serve_all(
            _gat_model(gat_parts),
            [GatEdgeScoreRequest(model_id="gat", node=v) for v in range(6)],
        )
        assert all(c.ok for c in completions)
        assert threading.active_count() == baseline

    def test_close_is_idempotent_and_future_timeout_is_typed(self, als_parts):
        srv = Server(_als_model(als_parts), background=False, max_queue=4)
        fut = srv.submit(AlsTopKRequest(model_id="als", user=0))
        with pytest.raises(ReproError, match="did not settle"):
            fut.result(timeout=0.01)  # nothing flushes an inline server
        srv.close()
        srv.close()
        assert fut.result(timeout=0).ok  # close() flushed + settled it


class TestStats:
    def test_snapshot_accounts_for_every_request(self, als_parts):
        n = 20
        with Server(
            _als_model(als_parts), background=False, max_queue=n
        ) as srv:
            for u in range(n):
                srv.submit(AlsTopKRequest(model_id="als", user=u, k=3))
            srv.drain()
            snap = srv.stats()
        assert snap["served"] == n
        assert snap["outcomes"]["ok"] == n
        # the histogram counts *requests* per batch size; every request
        # appears once, and the implied batch count matches
        assert sum(snap["batch_size_hist"].values()) == n
        assert sum(
            count // int(size)
            for size, count in snap["batch_size_hist"].items()
        ) == snap["batches"]
        assert snap["latency_ms"]["p50"] <= snap["latency_ms"]["p99"]
        assert snap["throughput_rps"] > 0
        # session-level records folded in at drain: one per session call
        assert snap["session_calls"]["count"] == snap["batches"]
        assert snap["session_calls"]["outcomes"] == {"ok": snap["batches"]}

    def test_two_models_one_server(self, als_parts, gat_parts):
        with Server(
            [_als_model(als_parts), _gat_model(gat_parts)],
            background=False, max_queue=8,
        ) as srv:
            f_als = srv.submit(AlsTopKRequest(model_id="als", user=1, k=3))
            f_gat = srv.submit(GatEdgeScoreRequest(model_id="gat", node=2))
            srv.drain()
            assert f_als.result(timeout=0).ok
            assert f_gat.result(timeout=0).ok
            models = {r["model_id"] for r in srv._stats.session_records}
            assert models == {"als", "gat"}


def _load_bench_serve():
    """``benchmarks/bench_serve.py`` is a script outside the package."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_serve.py"
    spec = importlib.util.spec_from_file_location("bench_serve", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestServeBench:
    def test_batching_amortizes_the_session_call(self):
        """The headline `benchmarks/bench_serve.py` reports: at a panel
        width >= 8, micro-batching beats unbatched serving (every request
        pays a full session call) on amortized per-request time, on both
        workloads, and neither loop drops a request."""
        record = _load_bench_serve().bench_serve(
            n_users=128, n_items=96, d=8, p=2, batch_width=8,
            n_requests=32, rounds=2, open_loop_rate_rps=2000.0,
        )
        for name in ("als", "gat"):
            entry = record[name]
            batched, unbatched = entry["batched"], entry["unbatched"]
            assert (
                batched["amortized_ms_per_request"]
                < unbatched["amortized_ms_per_request"]
            ), name
            # panels really formed, or the comparison means nothing
            assert batched["batch_size_mean"] > 1.0, name
            for loop in ("batched", "unbatched", "open_loop"):
                outcomes = entry[loop]["outcomes"]
                assert not any(
                    outcomes[k] for k in ("failed", "timeout", "rejected")
                ), (name, loop, outcomes)
