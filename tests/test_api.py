"""Tests for the top-level public API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.baselines.serial import (
    fusedmm_a_serial,
    fusedmm_b_serial,
    sddmm_serial,
    spmm_a_serial,
    spmm_b_serial,
)
from repro.errors import ReproError
from repro.types import Phase


class TestPublicKernels:
    def test_sddmm(self, small_problem):
        S, A, B = small_problem
        out, report = repro.sddmm(S, A, B, p=4, c=2)
        np.testing.assert_allclose(out.vals, sddmm_serial(S, A, B).vals, rtol=1e-9)
        assert report.comm_words > 0

    def test_spmm_a(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.spmm_a(S, B, p=4, c=2)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9)

    def test_spmm_b(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.spmm_b(S, A, p=4, c=2)
        np.testing.assert_allclose(out, spmm_b_serial(S, A), rtol=1e-9)

    def test_fusedmm_a_string_elision(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.fusedmm_a(
            S, A, B, p=4, c=2, algorithm="1.5d-dense-shift",
            elision="local-kernel-fusion",
        )
        np.testing.assert_allclose(out, fusedmm_a_serial(S, A, B), rtol=1e-9)

    def test_fusedmm_b(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.fusedmm_b(
            S, A, B, p=4, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse",
        )
        np.testing.assert_allclose(out, fusedmm_b_serial(S, A, B), rtol=1e-9)

    def test_accepts_scipy_input(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.spmm_a(S.to_scipy(), B, p=2)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9)


    @pytest.mark.parametrize("bad", [None, 3.0, "operand", [1.0, 2.0]])
    def test_non_array_operand_raises_typed_error(self, small_problem, bad):
        S, A, B = small_problem
        with pytest.raises(ReproError, match="operand shapes"):
            repro.spmm_a(S, bad, p=2)
        with pytest.raises(ReproError, match="operand shapes"):
            repro.fusedmm_a(S, bad, B, p=2)


class TestKnobSurface:
    """Knob growth is a reviewed diff: ``repro.plan`` is the one place
    the knobs are declared, and the one-shot wrappers forward them."""

    KNOBS = (
        "p", "c", "algorithm", "elision", "comm", "machine", "overlap",
        "trace", "deadline_ms", "retries", "faults", "backend", "kernels",
    )

    def test_knob_surface(self, small_problem):
        import inspect

        params = inspect.signature(repro.plan).parameters
        assert tuple(params) == ("S", "r") + self.KNOBS
        S, A, B = small_problem
        # every wrapper accepts every knob (here: at plan's own default)
        knobs = {name: params[name].default for name in self.KNOBS}
        knobs["algorithm"] = "1.5d-dense-shift"
        for one_shot, operands in (
            (repro.sddmm, (A, B)),
            (repro.spmm_a, (B,)),
            (repro.spmm_b, (A,)),
            (repro.fusedmm_a, (A, B)),
            (repro.fusedmm_b, (A, B)),
        ):
            _, report = one_shot(S, *operands, **knobs)
            assert report.comm_mode == "dense"
        with pytest.raises(TypeError, match="persistent"):
            repro.fusedmm_a(S, A, B, persistent=False)


class TestAutoSelection:
    def test_auto_algorithm_runs(self, small_problem):
        S, A, B = small_problem
        out, report = repro.fusedmm_a(S, A, B, p=4, algorithm="auto", elision="none")
        np.testing.assert_allclose(out, fusedmm_a_serial(S, A, B), rtol=1e-9)

    def test_auto_c_is_feasible(self, small_problem):
        S, A, B = small_problem
        out, _ = repro.fusedmm_b(
            S, A, B, p=8, c=None, algorithm="1.5d-dense-shift",
            elision="replication-reuse",
        )
        np.testing.assert_allclose(out, fusedmm_b_serial(S, A, B), rtol=1e-9)

    def test_infeasible_c_rejected(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(ReproError):
            repro.fusedmm_a(S, A, B, p=8, c=3, algorithm="1.5d-dense-shift")

    def test_unsupported_elision_rejected(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(ReproError):
            repro.fusedmm_a(
                S, A, B, p=8, c=2, algorithm="2.5d-sparse-replicate",
                elision="replication-reuse",
            )


class TestReports:
    def test_calls_scale_traffic(self, small_problem):
        """Every call pays its propagation; the fiber replication of the
        unchanged A is paid by the first call only (cross-call replica
        reuse)."""
        S, A, B = small_problem
        _, rep1 = repro.sddmm(S, A, B, p=4, c=2, calls=1)
        _, rep3 = repro.sddmm(S, A, B, p=4, c=2, calls=3)
        cold = [
            (p.counters[Phase.REPLICATION].words_received,
             p.counters[Phase.PROPAGATION].words_received)
            for p in rep1.per_rank
        ]
        assert all(repl > 0 for repl, _ in cold)
        assert rep3.comm_words == max(repl + 3 * prop for repl, prop in cold)
        assert rep1.comm_words < rep3.comm_words < 3 * rep1.comm_words

    def test_report_has_computation_time(self, small_problem):
        S, A, B = small_problem
        _, report = repro.fusedmm_a(S, A, B, p=4, elision="none")
        assert report.phase_seconds(Phase.COMPUTATION) > 0
        assert report.flops > 0

    def test_modeled_time_positive(self, small_problem):
        S, A, B = small_problem
        _, report = repro.fusedmm_a(S, A, B, p=4, elision="none")
        t = report.modeled_total_seconds(repro.CORI_KNL)
        assert t > 0
