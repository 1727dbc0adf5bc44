"""End-to-end integration tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.registry import ALGORITHMS
from repro.baselines.serial import fusedmm_b_serial, sddmm_serial, spmm_a_serial
from repro.sparse.generate import erdos_renyi, realworld_standin
from repro.types import Elision


class TestRepeatedCallPattern:
    """The paper's motivating usage: 'typical applications make a call to
    an SDDMM operation and feed the sparse output to an SpMM operation,
    repeating the pair several times with the same nonzero pattern (but
    possibly different values)'."""

    def test_same_pattern_changing_values(self, small_problem, rng):
        S, A, B = small_problem
        for it in range(3):
            vals = rng.standard_normal(S.nnz)
            S_it = S.with_values(vals)
            R, _ = repro.sddmm(S_it, A, B, p=4, c=2)
            out, _ = repro.spmm_a(R, B, p=4, c=2)
            ref = spmm_a_serial(sddmm_serial(S_it, A, B), B)
            np.testing.assert_allclose(out, ref, rtol=1e-9)

    def test_sddmm_output_feeds_spmm_exactly(self, small_problem):
        """FusedMM == feeding the collected SDDMM back into SpMM."""
        S, A, B = small_problem
        R, _ = repro.sddmm(S, A, B, p=4, c=2, algorithm="1.5d-sparse-shift")
        via_pipeline, _ = repro.spmm_b(R, A, p=4, c=2, algorithm="1.5d-sparse-shift")
        fused, _ = repro.fusedmm_b(
            S, A, B, p=4, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse",
        )
        np.testing.assert_allclose(via_pipeline, fused, rtol=1e-9)


class TestCrossAlgorithmConsistency:
    def test_all_families_agree_pairwise(self, small_problem):
        """Beyond matching the serial reference, all four families agree
        with each other to float tolerance on identical inputs."""
        S, A, B = small_problem
        outs = []
        for name in sorted(ALGORITHMS):
            out, _ = repro.fusedmm_b(
                S, A, B, p=8, c=2, algorithm=name, elision=Elision.NONE,
            )
            outs.append((name, out))
        base_name, base = outs[0]
        for name, out in outs[1:]:
            np.testing.assert_allclose(out, base, rtol=1e-9, atol=1e-12)


class TestRealWorldWorkflow:
    def test_standin_through_full_pipeline(self):
        """Table V stand-in -> auto algorithm -> FusedMM -> valid output."""
        S = realworld_standin("amazon-large", scale=9, seed=0)
        rng = np.random.default_rng(0)
        r = 32
        A = rng.standard_normal((S.nrows, r))
        B = rng.standard_normal((S.ncols, r))
        out, report = repro.fusedmm_b(
            S, A, B, p=8, algorithm="auto", elision="none"
        )
        np.testing.assert_allclose(out, fusedmm_b_serial(S, A, B), rtol=1e-8)
        assert report.comm_words > 0

    def test_io_roundtrip_through_distributed_kernel(self, tmp_path, rng):
        """MatrixMarket file -> distributed SpMM."""
        from repro.sparse.io import read_matrix_market, write_matrix_market

        S = erdos_renyi(60, 45, 4, seed=8)
        path = tmp_path / "g.mtx"
        write_matrix_market(path, S)
        S2 = read_matrix_market(path)
        B = rng.standard_normal((45, 8))
        out, _ = repro.spmm_a(S2, B, p=4)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9)


class TestScalingSanity:
    def test_more_ranks_less_compute_per_rank(self):
        """Per-rank FLOPs shrink ~linearly with p (load balance)."""
        S = erdos_renyi(512, 512, 8, seed=0)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((512, 16))
        B = rng.standard_normal((512, 16))
        flops = {}
        for p in (2, 8):
            _, report = repro.fusedmm_a(
                S, A, B, p=p, c=1, algorithm="1.5d-dense-shift", elision="none"
            )
            flops[p] = report.flops
        assert flops[8] < flops[2]
        # random permutation keeps imbalance moderate
        assert flops[8] > flops[2] / 8  # can't beat perfect balance

    def test_replication_trades_propagation_for_replication(self):
        """Raising c shrinks shift traffic and grows fiber traffic."""
        from repro.types import Phase

        S = erdos_renyi(512, 512, 8, seed=0)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((512, 16))
        B = rng.standard_normal((512, 16))
        words = {}
        for c in (1, 4):
            _, report = repro.fusedmm_b(
                S, A, B, p=8, c=c, algorithm="1.5d-dense-shift",
                elision="replication-reuse",
            )
            words[c] = (
                report.phase_words(Phase.REPLICATION),
                report.phase_words(Phase.PROPAGATION),
            )
        assert words[4][0] > words[1][0]  # more replication traffic
        assert words[4][1] < words[1][1]  # fewer/smaller shifts
