"""Tests for the PETSc-like 1D block-row baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.petsc_like import (
    petsc_distribute,
    petsc_like_fusedmm_surrogate,
    petsc_like_spmm,
    petsc_plan,
)
from repro.baselines.serial import spmm_a_serial
from repro.sparse.generate import erdos_renyi
from repro.sparse.partition import block_of
from repro.types import Phase


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_matches_serial(self, p, small_problem):
        S, A, B = small_problem
        out, _ = petsc_like_spmm(S, B, p)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9, atol=1e-12)

    def test_fusedmm_surrogate_is_two_calls(self, small_problem):
        S, A, B = small_problem
        out, report = petsc_like_fusedmm_surrogate(S, B, 4)
        np.testing.assert_allclose(out, spmm_a_serial(S, B), rtol=1e-9)
        _, single = petsc_like_spmm(S, B, 4)
        assert report.comm_words == 2 * single.comm_words

    def test_empty_matrix(self, rng):
        from repro.sparse.coo import CooMatrix

        e = np.empty(0, np.int64)
        S = CooMatrix(e, e, np.empty(0), (20, 20))
        out, _ = petsc_like_spmm(S, rng.standard_normal((20, 4)), 4)
        np.testing.assert_allclose(out, 0)


class TestCommunicationBehavior:
    def test_fetches_only_needed_rows(self):
        """A block-diagonal matrix needs no remote B rows at all."""
        n, p = 64, 4
        blk = n // p
        rng = np.random.default_rng(0)
        rows = np.concatenate([
            rng.integers(k * blk, (k + 1) * blk, 30) for k in range(p)
        ]).astype(np.int64)
        cols = np.concatenate([
            rng.integers(k * blk, (k + 1) * blk, 30) for k in range(p)
        ]).astype(np.int64)
        from repro.sparse.coo import CooMatrix

        S = CooMatrix(rows, cols, np.ones(len(rows)), (n, n))
        B = rng.standard_normal((n, 8))
        _, report = petsc_like_spmm(S, B, p)
        # only zero-length index requests travel
        assert report.phase_words(Phase.PROPAGATION) == 0

    @pytest.mark.parametrize("p", [4, 7, 8, 16])
    def test_fetch_counts_in_closed_form(self, p):
        """Each SpMM's fetch is a request and a reply to every other rank:
        a rank receives ``2·(p − 1)`` messages, empty ones included, and
        its words are the indices other ranks ask of it plus ``r`` per row
        it asked for (twice over for the two-call surrogate)."""
        n, r = 1000, 16
        S = erdos_renyi(n, n, 8, seed=3)
        B = np.random.default_rng(4).standard_normal((n, r))
        _, report = petsc_like_fusedmm_surrogate(S, B, p)
        plan = petsc_plan(n, n, r, p)
        rank_of_row = block_of(S.rows, plan.row_offsets)
        # asks[k, q]: distinct columns rank k's rows need from owner q
        asks = np.zeros((p, p), dtype=np.int64)
        for k in range(p):
            needed = np.unique(S.cols[rank_of_row == k])
            asks[k] = np.bincount(block_of(needed, plan.col_offsets), minlength=p)
        np.fill_diagonal(asks, 0)
        for k, prof in enumerate(report.per_rank):
            prop = prof.counters[Phase.PROPAGATION]
            assert prop.messages_received == 2 * 2 * (p - 1)
            assert prop.words_received == 2 * (asks[:, k].sum() + r * asks[k].sum())
            assert prop.words_sent == 2 * (asks[k].sum() + r * asks[:, k].sum())

    def test_communication_does_not_shrink_with_p(self):
        """The paper's criticism: no replication, so per-rank communication
        volume stays roughly flat as p grows (poor strong scaling)."""
        S = erdos_renyi(512, 512, 16, seed=1)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((512, 32))
        _, rep4 = petsc_like_spmm(S, B, 4)
        _, rep16 = petsc_like_spmm(S, B, 16)
        w4 = rep4.phase_words(Phase.PROPAGATION)
        w16 = rep16.phase_words(Phase.PROPAGATION)
        # a communication-avoiding algorithm would shrink ~2x (1/sqrt(p));
        # the 1D baseline shrinks far less
        assert w16 > 0.6 * w4

    def test_distribution_covers_all_rows(self, small_problem):
        S, A, B = small_problem
        plan = petsc_plan(S.nrows, S.ncols, B.shape[1], 4)
        locals_ = petsc_distribute(plan, S, B)
        assert sum(len(l.rows) for l in locals_) == S.nnz
        assert sum(l.n_local_rows for l in locals_) == S.nrows
