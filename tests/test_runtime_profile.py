"""Tests for per-rank cost accounting and run reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cost import CORI_KNL, GENERIC_CLUSTER, MachineParams
from repro.runtime.profile import PhaseCounters, RankProfile, RunReport
from repro.types import Phase


def make_profile(phase_words):
    p = RankProfile()
    for phase, (words, msgs) in phase_words.items():
        p.counters[phase].words_received = words
        p.counters[phase].messages_received = msgs
    return p


class TestRankProfile:
    def test_track_accumulates_time(self):
        p = RankProfile()
        with p.track(Phase.COMPUTATION):
            sum(range(1000))
        assert p.counters[Phase.COMPUTATION].seconds > 0

    def test_track_nesting_restores_phase(self):
        p = RankProfile()
        with p.track(Phase.COMPUTATION):
            with p.track(Phase.PROPAGATION):
                assert p.phase == Phase.PROPAGATION
            assert p.phase == Phase.COMPUTATION
        assert p.phase == Phase.OTHER

    def test_traffic_attributed_to_active_phase(self):
        p = RankProfile()
        with p.track(Phase.REPLICATION):
            p.on_recv(100)
        p.on_recv(7)  # outside any block -> OTHER
        assert p.counters[Phase.REPLICATION].words_received == 100
        assert p.counters[Phase.OTHER].words_received == 7

    def test_flops_attribution(self):
        p = RankProfile()
        with p.track(Phase.COMPUTATION):
            p.add_flops(500)
        assert p.counters[Phase.COMPUTATION].flops == 500
        assert p.total().flops == 500

    def test_total_merges_all_phases(self):
        p = RankProfile()
        p.counters[Phase.REPLICATION].words_received = 3
        p.counters[Phase.PROPAGATION].words_received = 4
        assert p.total().words_received == 7


class TestRunReport:
    def test_phase_words_takes_max_over_ranks(self):
        report = RunReport(
            per_rank=[
                make_profile({Phase.PROPAGATION: (10, 1)}),
                make_profile({Phase.PROPAGATION: (30, 2)}),
            ]
        )
        assert report.phase_words(Phase.PROPAGATION) == 30
        assert report.phase_messages(Phase.PROPAGATION) == 2

    def test_comm_words_sums_comm_phases(self):
        report = RunReport(
            per_rank=[
                make_profile({Phase.REPLICATION: (5, 1), Phase.PROPAGATION: (10, 2)})
            ]
        )
        assert report.comm_words == 15
        assert report.comm_messages == 3

    def test_modeled_comm_seconds(self):
        machine = MachineParams(alpha=1e-6, beta=1e-9, gamma=1e-11)
        report = RunReport(per_rank=[make_profile({Phase.PROPAGATION: (1000, 10)})])
        t = report.modeled_comm_seconds(machine)
        assert t == pytest.approx(10 * 1e-6 + 1000 * 1e-9)

    def test_modeled_compute_seconds(self):
        machine = MachineParams(alpha=0, beta=0, gamma=2e-11)
        p = RankProfile()
        p.add_flops(1_000_000)
        report = RunReport(per_rank=[p])
        assert report.modeled_compute_seconds(machine) == pytest.approx(2e-5)

    def test_modeled_total_is_comm_plus_compute(self):
        """Replication, propagation and computation add up: there is no
        overlap term."""
        machine = MachineParams(alpha=0.0, beta=1e-9, gamma=1e-9, name="unit")
        p = make_profile({Phase.REPLICATION: (100, 0), Phase.PROPAGATION: (500, 0)})
        p.counters[Phase.COMPUTATION].flops = 2000
        report = RunReport(per_rank=[p])
        assert report.modeled_total_seconds(machine) == pytest.approx(2600e-9)

    def test_summary_renders(self):
        report = RunReport(per_rank=[RankProfile()], label="demo")
        text = report.summary()
        assert "demo" in text
        for ph in Phase:
            assert ph.value in text


class TestMachineParams:
    def test_presets_are_sane(self):
        for machine in (CORI_KNL, GENERIC_CLUSTER):
            assert machine.alpha > machine.beta > 0
            assert machine.gamma > 0
            assert machine.words_per_second() == pytest.approx(1 / machine.beta)
            assert machine.flops_per_second() == pytest.approx(1 / machine.gamma)
