"""Tests for the experiment harness (small-scale smoke + invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.reporting import format_table, print_series
from repro.harness.strong_scaling import strong_scaling_experiment
from repro.harness.sweeps import best_algorithm_map, replication_factor_sweep
from repro.harness.weak_scaling import (
    FIG4_VARIANTS,
    run_variant,
    weak_scaling_experiment,
    weak_scaling_problem,
)
from repro.model.optimal import predicted_times
from repro.sparse.generate import erdos_renyi
from repro.types import Elision


class TestWeakScalingProblems:
    def test_setup1_growth(self):
        a = weak_scaling_problem(1, 1, base_log2=8, base_nnz_row=4)
        b = weak_scaling_problem(1, 4, base_log2=8, base_nnz_row=4)
        assert b.nrows == 4 * a.nrows
        # nnz per row constant
        assert b.nnz / b.nrows == pytest.approx(a.nnz / a.nrows, rel=0.1)

    def test_setup2_growth(self):
        a = weak_scaling_problem(2, 1, base_log2=8, base_nnz_row=4)
        b = weak_scaling_problem(2, 4, base_log2=8, base_nnz_row=4)
        assert b.nrows == 2 * a.nrows
        assert b.nnz / b.nrows == pytest.approx(2 * a.nnz / a.nrows, rel=0.15)

    def test_invalid_setup(self):
        with pytest.raises(ValueError):
            weak_scaling_problem(3, 4)


class TestRunVariant:
    def test_returns_best_c(self, rng):
        S = erdos_renyi(256, 256, 4, seed=0)
        A = rng.standard_normal((256, 16))
        B = rng.standard_normal((256, 16))
        res = run_variant("1.5d-dense-shift", Elision.REPLICATION_REUSE, S, A, B, 8)
        assert res.best_c in res.per_c
        assert res.modeled_seconds == pytest.approx(min(res.per_c.values()))
        assert res.words > 0 and res.messages > 0

    def test_phase_breakdown_sums_to_total_comm(self, rng):
        S = erdos_renyi(128, 128, 4, seed=0)
        A = rng.standard_normal((128, 8))
        B = rng.standard_normal((128, 8))
        res = run_variant("1.5d-dense-shift", Elision.NONE, S, A, B, 4, max_c=2)
        total_comm = res.replication_seconds + res.propagation_seconds
        assert res.modeled_seconds == pytest.approx(
            total_comm + res.computation_seconds, rel=1e-6
        )


class TestFeasibleC:
    """``run_variant`` runs exactly the c set ``model.optimal.feasible_c``
    prices, at the two kinds of point where no allowed c is ideal."""

    def test_degenerate_strips_keep_the_largest_allowed_c(self, rng):
        # p // c > r at every c <= max_c: the model keeps c = 2, not the
        # uncapped c = 4
        S = erdos_renyi(64, 64, 4, seed=0)
        A, B = rng.standard_normal((64, 1)), rng.standard_normal((64, 1))
        res = run_variant(
            "1.5d-sparse-shift", Elision.REPLICATION_REUSE, S, A, B, 4, max_c=2
        )
        assert list(res.per_c) == [2]

    def test_cap_below_every_feasible_c_skips_the_variant(self, rng):
        # 2.5D at p = 8 runs c in {2, 8}: none survives max_c = 1, the
        # variant is skipped the way predicted_times skips the row
        S = erdos_renyi(64, 64, 4, seed=0)
        A, B = rng.standard_normal((64, 8)), rng.standard_normal((64, 8))
        assert (
            run_variant("2.5d-sparse-replicate", Elision.NONE, S, A, B, 8, max_c=1)
            is None
        )
        assert "2.5d-sparse-replicate/none" not in predicted_times(
            64, 8, S.nnz, 8, max_c=1
        )


class TestExperiments:
    def test_weak_scaling_smoke(self):
        res = weak_scaling_experiment(
            1, [1, 4], r=8, base_log2=6, base_nnz_row=3,
            variants=FIG4_VARIANTS[:3], max_c=4,
        )
        assert len(res) == 6
        labels = {v.label for v in res}
        assert "1.5d-dense-shift/local-kernel-fusion" in labels

    def test_strong_scaling_smoke(self):
        mats = {"tiny": erdos_renyi(128, 128, 6, seed=1)}
        res = strong_scaling_experiment(
            mats, [4], r=8,
            variants=[("1.5d-dense-shift", Elision.REPLICATION_REUSE)],
            calls=1, include_petsc=True,
        )
        assert len(res) == 1
        assert res[0].petsc_seconds > 0
        assert res[0].best_variant().modeled_seconds > 0

    def test_best_algorithm_map_smoke(self):
        from repro.runtime.cost import MachineParams

        # bandwidth-dominated machine: the phi = 1/3 boundary is exact
        beta_only = MachineParams(alpha=0.0, beta=1e-9, gamma=1e-12)
        cells = best_algorithm_map(
            16, 256, r_values=[16], nnz_per_row_values=[1, 48],
            machine=beta_only, max_c=8,
        )
        assert len(cells) == 2
        # low density -> sparse shift; high density -> dense shift (predicted)
        assert "sparse" in cells[0].predicted
        assert "dense" in cells[1].predicted
        # observed agrees at the extremes
        assert "sparse" in cells[0].observed
        assert "dense" in cells[1].observed

    def test_replication_sweep_ordering(self):
        rows = replication_factor_sweep([16], r=16, base_log2=7, base_nnz_row=4)
        byv = {r.variant: r for r in rows}
        assert (
            byv["1.5d-dense-shift/replication-reuse"].predicted_c
            > byv["1.5d-dense-shift/none"].predicted_c
            > byv["1.5d-dense-shift/local-kernel-fusion"].predicted_c
        )
        # observed optimum should follow the same weak ordering
        assert (
            byv["1.5d-dense-shift/replication-reuse"].observed_c
            >= byv["1.5d-dense-shift/local-kernel-fusion"].observed_c
        )


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], [30, 0.001]])
        assert "a" in text and "30" in text

    def test_format_table_empty(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_print_series(self):
        text = print_series("demo", {"s1": [1.0, 2.0]}, [4, 8])
        assert "demo" in text and "s1" in text
