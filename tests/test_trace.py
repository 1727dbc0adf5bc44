"""Tests for the tracing + metrics subsystem (`repro.runtime.trace`).

Covers the observability contract:

* the disabled path is a true no-op: with ``trace="off"`` no tracer is
  attached and no recording method is ever invoked (counter-asserted);
* span bookkeeping agrees with the phase counters: a tracked region's
  span duration equals the seconds the counter accumulated, exactly
  (both sides read the same ``perf_counter`` value), and nested tracked
  regions produce properly nested spans;
* Chrome trace-event export emits schema-valid JSON: per-rank thread
  metadata, complete/instant events with microsecond timestamps;
* a traced FusedMM run contains duration spans for all three paper
  phases, and the derived :class:`TimelineStats` occupancies are valid
  fractions;
* the ring buffer bounds memory (old events evicted, ``dropped`` counts);
* ``RunReport.to_dict``/``to_json`` round-trip through ``json.loads``,
  and the empty-report reductions (``flops`` etc.) return 0 instead of
  raising;
* ``Session.metrics()`` emits one JSON-lines-ready record per kernel
  call, for sync and async calls alike.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.errors import ReproError
from repro.runtime.profile import RankProfile, RunReport
from repro.runtime.trace import (
    RankTimeline,
    TimelineStats,
    Tracer,
    export_chrome_trace,
)
from repro.types import Phase


def _problem(n=256, r=16, seed=0):
    S = repro.erdos_renyi(n, n, nnz_per_row=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return S, rng.standard_normal((n, r)), rng.standard_normal((n, r))


class TestDisabledPath:
    def test_off_attaches_no_tracers(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, algorithm="1.5d-sparse-shift",
                        comm="sparse", trace="off") as sess:
            sess.fusedmm_a(A, B)
            assert sess.tracers() == []
            assert all(p.tracer is None for p in sess._profiles)

    def test_off_never_invokes_recording(self, monkeypatch):
        """No instrumentation site may record (or even construct) events
        when tracing is off — the counter proves the no-op, not just the
        absence of output."""
        calls = {"n": 0}

        def counting_append(self, event):
            calls["n"] += 1
            self.events.append(event)

        monkeypatch.setattr(Tracer, "_append", counting_append)
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, algorithm="1.5d-sparse-shift",
                        comm="sparse", trace="off") as sess:
            sess.fusedmm_a(A, B)
            sess.spmm_a(B)
        assert calls["n"] == 0

    def test_invalid_trace_mode_rejected(self):
        S, _, _ = _problem()
        with pytest.raises(ReproError, match="trace"):
            repro.plan(S, 16, p=4, trace="yes")

    def test_untraced_session_raises_on_trace_apis(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, trace="off") as sess:
            sess.spmm_a(B)
            with pytest.raises(ReproError, match="trace"):
                sess.timeline()
            with pytest.raises(ReproError, match="trace"):
                sess.export_trace()


class TestSpanCounterAgreement:
    def test_span_duration_equals_counter_seconds(self):
        """track() reads perf_counter once at region end and feeds both
        the counter and the span — the two views agree to the bit."""
        prof = RankProfile()
        prof.tracer = Tracer(rank=0)
        with prof.track(Phase.REPLICATION):
            sum(range(1000))
        spans = [ev for ev in prof.tracer.events if ev[0] == "span"]
        assert len(spans) == 1
        kind, name, cat, t0, t1 = spans[0]
        assert (name, cat) == (Phase.REPLICATION.value, "phase")
        assert t1 - t0 == prof.counters[Phase.REPLICATION].seconds

    def test_nested_tracking_produces_nested_spans(self):
        prof = RankProfile()
        prof.tracer = Tracer(rank=0)
        with prof.track(Phase.PROPAGATION):
            with prof.track(Phase.COMPUTATION):
                sum(range(1000))
        spans = [ev for ev in prof.tracer.events if ev[0] == "span"]
        # spans are recorded at their end: inner first, outer second
        assert [s[1] for s in spans] == [
            Phase.COMPUTATION.value,
            Phase.PROPAGATION.value,
        ]
        (_, _, _, i0, i1), (_, _, _, o0, o1) = spans
        assert o0 <= i0 <= i1 <= o1
        # and the inner seconds were attributed to the inner counter only
        inner = prof.counters[Phase.COMPUTATION].seconds
        outer = prof.counters[Phase.PROPAGATION].seconds
        assert inner == i1 - i0
        assert outer == o1 - o0

    def test_self_time_decomposition(self):
        """RankTimeline subtracts nested child time, so self times sum to
        the union extent of the phase spans."""
        tr = Tracer(rank=3)
        tr.span(Phase.PROPAGATION.value, "phase", 10.0, 11.0)  # child
        tr.span(Phase.COMPUTATION.value, "phase", 11.0, 12.0)  # child
        tr.span(Phase.REPLICATION.value, "phase", 10.0, 13.0)  # parent
        tl = RankTimeline.from_events(3, tr.events)
        assert tl.span_seconds == pytest.approx(3.0)
        assert tl.compute_seconds == pytest.approx(1.0)
        # replication self time excludes both children
        assert tl.exposed_comm_seconds == pytest.approx(1.0 + 1.0)
        assert tl.idle_seconds == pytest.approx(0.0)


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        tr = Tracer(rank=0, capacity=4)
        for i in range(10):
            tr.span(f"s{i}", "phase", float(i), float(i + 1))
        assert len(tr) == 4
        assert tr.dropped == 6
        # the surviving events are the *latest* ones
        assert [ev[1] for ev in tr.events] == ["s6", "s7", "s8", "s9"]
        tr.clear()
        assert len(tr) == 0 and tr.dropped == 0


class TestChromeExport:
    def test_export_requires_tracers(self):
        with pytest.raises(ReproError, match="trace='on'"):
            export_chrome_trace(RunReport(per_rank=[RankProfile()]))

    def test_schema(self, tmp_path):
        S, A, B = _problem()
        out = tmp_path / "trace.json"
        with repro.plan(S, 16, p=4, algorithm="1.5d-sparse-shift",
                        comm="sparse", trace="on") as sess:
            sess.fusedmm_a(A, B)
            doc = sess.export_trace(str(out))

        # the on-disk document is the returned one
        assert json.loads(out.read_text()) == doc
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "traced run exported no events"

        thread_names = [e for e in events if e.get("ph") == "M"]
        assert {e["tid"] for e in thread_names} == {0, 1, 2, 3}
        assert all(e["name"] == "thread_name" for e in thread_names)

        for e in events:
            assert e["pid"] == 0
            ph = e["ph"]
            assert ph in ("M", "X", "i")
            if ph == "M":
                continue
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert isinstance(e["cat"], str) and e["cat"]
            if ph == "X":
                assert e["dur"] >= 0
            else:  # instant
                assert e["s"] == "t"

    def test_traced_fusedmm_has_phase_spans(self):
        """Acceptance shape: a traced fused run shows all three paper
        phases as duration spans on every rank, and its receives as
        ``comm`` spans."""
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, algorithm="1.5d-sparse-shift",
                        comm="sparse", trace="on") as sess:
            sess.fusedmm_a(A, B)
            doc = sess.export_trace()
            stats = sess.timeline()

        durations = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        for rank in range(4):
            names = {e["name"] for e in durations
                     if e["tid"] == rank and e["cat"] == "phase"}
            assert {
                Phase.REPLICATION.value,
                Phase.PROPAGATION.value,
                Phase.COMPUTATION.value,
            } <= names, f"rank {rank} is missing phase spans: {names}"
        assert any(e["ph"] == "X" and e["cat"] == "comm"
                   for e in doc["traceEvents"])

        assert len(stats.per_rank) == 4
        for frac in (stats.idle_fraction, stats.compute_fraction,
                     stats.exposed_comm_fraction):
            assert 0.0 <= frac <= 1.0
        # the summary and dict views agree
        d = stats.to_dict()
        assert d["compute_fraction"] == stats.compute_fraction
        assert len(d["per_rank"]) == 4

    def test_timeline_stats_from_report(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, trace="on") as sess:
            _, report = sess.spmm_a(B)
            stats = TimelineStats.from_report(report)
        assert len(stats.per_rank) == 4


class TestReportStructuredExport:
    def test_to_json_round_trips(self):
        S, A, B = _problem()
        out, report = repro.fusedmm_a(S, A, B, p=4)
        doc = json.loads(report.to_json())
        assert doc == report.to_dict()
        assert doc["nranks"] == 4
        assert set(doc["phases"]) == {p.value for p in Phase}
        assert doc["comm_words"] == report.comm_words
        assert doc["flops"] == report.flops
        # per-rank tables round-trip too
        full = json.loads(report.to_json(per_rank=True))
        assert len(full["per_rank"]) == 4
        assert full["per_rank"][0]["phases"][Phase.COMPUTATION.value][
            "flops"
        ] == report.per_rank[0].counters[Phase.COMPUTATION].flops

    def test_empty_report_reductions_return_zero(self):
        empty = RunReport(per_rank=[], label="empty")
        assert empty.flops == 0
        assert empty.comm_words == 0
        assert empty.comm_messages == 0
        assert empty.max_over_ranks(Phase.COMPUTATION, "seconds") == 0.0
        assert json.loads(empty.to_json())["nranks"] == 0


class TestSessionMetrics:
    def test_one_record_per_call(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, algorithm="1.5d-sparse-shift",
                        comm="sparse") as sess:
            sess.fusedmm_a(A, B)
            sess.spmm_a(B)
            sess.fusedmm_a(A, B)
            recs = sess.metrics()
        assert len(recs) == 3
        assert [r["call"] for r in recs] == [0, 1, 2]
        for r in recs:
            assert r["nranks"] == 4
            assert r["wall_ms"] > 0.0
            assert r["comm_words"] > 0
            assert r["flops"] > 0
            assert r["compute_ms"] >= 0.0
        # labels name the kernels that ran
        assert "spmm_a" in recs[1]["label"]

    def test_metrics_jsonl_parses(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4) as sess:
            sess.spmm_a(B)
            sess.spmm_b(A)
            lines = sess.metrics_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(ln) for ln in lines]
        assert parsed == [
            {k: v for k, v in rec.items()} for rec in parsed
        ]  # valid JSON objects
        assert parsed[0]["call"] == 0 and parsed[1]["call"] == 1

    def test_reset_profile_clears_metrics_and_spans(self):
        S, A, B = _problem()
        with repro.plan(S, 16, p=4, trace="on") as sess:
            sess.spmm_a(B)
            assert len(sess.metrics()) == 1
            assert sum(len(tr) for tr in sess.tracers()) > 0
            sess.reset_profile()
            assert sess.metrics() == []
            assert sum(len(tr) for tr in sess.tracers()) == 0
            # deltas restart cleanly after the reset
            sess.spmm_a(B)
            recs = sess.metrics()
            assert len(recs) == 1 and recs[0]["comm_words"] > 0
