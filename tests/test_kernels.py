"""Tests for the local kernels: SDDMM, SpMM, fused."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.fused import fusedmm_local, fusedmm_reference
from repro.kernels.sddmm import (
    gat_edge_scores,
    make_gat_operands,
    sddmm_coo,
    sddmm_custom,
)
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_flops, spmm_scatter
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock
from repro.sparse.generate import erdos_renyi


@pytest.fixture
def problem(rng):
    m, n, r = 40, 35, 12
    S = erdos_renyi(m, n, 5, seed=11)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    blk = SparseBlock(S.rows, S.cols, S.vals, S.shape)
    ref_dots = np.einsum("ij,ij->i", A[S.rows], B[S.cols])
    return S, A, B, blk, ref_dots


class TestSddmm:
    def test_matches_dense_reference(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_coo(A, B, S.rows, S.cols)
        np.testing.assert_allclose(got, ref)

    def test_values_multiply(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals)
        np.testing.assert_allclose(got, S.vals * ref)

    def test_accumulate_into_out(self, problem):
        S, A, B, blk, ref = problem
        out = np.ones(S.nnz)
        sddmm_coo(A, B, S.rows, S.cols, out=out, accumulate=True)
        np.testing.assert_allclose(out, 1.0 + ref)

    def test_out_without_accumulate_overwrites(self, problem):
        S, A, B, blk, ref = problem
        out = np.full(S.nnz, 99.0)
        sddmm_coo(A, B, S.rows, S.cols, out=out, accumulate=False)
        np.testing.assert_allclose(out, ref)

    def test_col_range_partials_sum_to_total(self, problem):
        S, A, B, blk, ref = problem
        r = A.shape[1]
        acc = np.zeros(S.nnz)
        for k0 in range(0, r, 4):
            sddmm_coo(A, B, S.rows, S.cols, out=acc, accumulate=True, col_range=(k0, k0 + 4))
        np.testing.assert_allclose(acc, ref)

    def test_chunking_path(self, problem, monkeypatch):
        import repro.kernels.sddmm as mod

        S, A, B, blk, ref = problem
        whole = sddmm_coo(A, B, S.rows, S.cols)
        # budget for 7 nonzeros per chunk (two width-r float64 gathers)
        monkeypatch.setattr(mod, "_CHUNK_BYTES", 7 * 2 * A.shape[1] * 8)
        assert mod._chunk_nnz(A) == 7
        got = sddmm_coo(A, B, S.rows, S.cols)
        np.testing.assert_allclose(got, ref)
        # row-wise dots are independent: chunk size never changes a bit
        np.testing.assert_array_equal(got, whole)

    def test_chunk_sized_by_bytes(self):
        import repro.kernels.sddmm as mod

        wide, narrow = np.zeros((1, 64)), np.zeros((1, 8))
        assert 2 * mod._chunk_nnz(wide) * 64 * 8 == mod._CHUNK_BYTES
        assert mod._chunk_nnz(narrow) == 8 * mod._chunk_nnz(wide)
        assert mod._chunk_nnz(wide.astype(np.float32)) == 2 * mod._chunk_nnz(wide)
        assert mod._chunk_nnz(np.zeros((1, 0))) >= 1

    def test_flop_accounting(self, problem):
        S, A, B, blk, _ = problem
        prof = RankProfile()
        sddmm_coo(A, B, S.rows, S.cols, profile=prof)
        assert prof.total().flops == 2 * S.nnz * A.shape[1]

    def test_empty_nnz(self, rng):
        A = rng.standard_normal((4, 3))
        e = np.empty(0, np.int64)
        out = sddmm_coo(A, A, e, e)
        assert out.shape == (0,)

    @given(r=st.integers(1, 20), seed=st.integers(0, 1 << 16))
    @settings(max_examples=50, deadline=None)
    def test_property_sddmm_is_bilinear(self, r, seed):
        rng = np.random.default_rng(seed)
        m, n = 15, 12
        S = erdos_renyi(m, n, 3, seed=seed)
        A1 = rng.standard_normal((m, r))
        A2 = rng.standard_normal((m, r))
        B = rng.standard_normal((n, r))
        lhs = sddmm_coo(A1 + A2, B, S.rows, S.cols)
        rhs = sddmm_coo(A1, B, S.rows, S.cols) + sddmm_coo(A2, B, S.rows, S.cols)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestSddmmCustom:
    def test_custom_dot_equals_plain(self, problem):
        S, A, B, blk, ref = problem
        got = sddmm_custom(
            A, B, S.rows, S.cols, lambda a, b: np.einsum("ij,ij->i", a, b)
        )
        np.testing.assert_allclose(got, ref)

    def test_gat_edge_scores(self, rng):
        S = erdos_renyi(20, 20, 3, seed=0)
        uL = rng.standard_normal(20)
        uR = rng.standard_normal(20)
        got = gat_edge_scores(uL, uR, S.rows, S.cols, negative_slope=0.2)
        raw = uL[S.rows] + uR[S.cols]
        ref = np.where(raw >= 0, raw, 0.2 * raw)
        np.testing.assert_allclose(got, ref)

    def test_gat_operands_reduce_to_sddmm(self, rng):
        """The paper's claim: GAT scores are an SDDMM with width-2 operands."""
        S = erdos_renyi(25, 25, 4, seed=1)
        uL = rng.standard_normal(25)
        uR = rng.standard_normal(25)
        A2, B2 = make_gat_operands(uL, uR)
        via_sddmm = sddmm_coo(A2, B2, S.rows, S.cols)
        np.testing.assert_allclose(via_sddmm, uL[S.rows] + uR[S.cols])


class TestSpmm:
    def test_spmm_a(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out)
        np.testing.assert_allclose(out, S.to_scipy() @ B)

    def test_spmm_a_accumulates(self, problem):
        S, A, B, blk, _ = problem
        out = np.ones((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out)
        np.testing.assert_allclose(out, 1.0 + S.to_scipy() @ B)

    def test_spmm_b(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.ncols, A.shape[1]))
        spmm_b_block(blk, A, out)
        np.testing.assert_allclose(out, S.to_scipy().T @ A)

    def test_value_override(self, problem):
        S, A, B, blk, _ = problem
        alt = np.arange(S.nnz, dtype=float)
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_a_block(blk, B, out, values=alt)
        ref = S.with_values(alt).to_scipy() @ B
        np.testing.assert_allclose(out, ref)

    def test_spmm_scatter(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        spmm_scatter(S.rows, S.cols, S.vals, B, out)
        np.testing.assert_allclose(out, S.to_scipy() @ B)

    def test_spmm_scatter_empty(self, rng):
        out = np.zeros((3, 2))
        e = np.empty(0, np.int64)
        spmm_scatter(e, e, np.empty(0), rng.standard_normal((3, 2)), out)
        np.testing.assert_allclose(out, 0)

    def test_spmm_scatter_duplicate_rows_sum(self, rng):
        B = rng.standard_normal((4, 3))
        rows = np.array([1, 1, 1], dtype=np.int64)
        cols = np.array([0, 2, 3], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        out = np.zeros((2, 3))
        spmm_scatter(rows, cols, vals, B, out)
        np.testing.assert_allclose(out[1], B[0] + 2 * B[2] + 3 * B[3])
        np.testing.assert_allclose(out[0], 0)

    def test_flops(self):
        assert spmm_flops(100, 8) == 1600


def _dense_scatter_ref(rows, cols, vals, B, out):
    """Loop reference for ``spmm_scatter``: one nonzero at a time."""
    ref = out.astype(np.float64)
    for i, j, v in zip(rows, cols, vals):
        ref[i] += np.float64(v) * B[j].astype(np.float64)
    return ref


class TestSpmmScatter:
    """The transient touched-rows CSR product behind every circulating
    chunk SpMM."""

    @pytest.mark.parametrize(
        "case",
        ["one_row", "all_duplicate_rows", "duplicate_pairs", "unsorted", "reversed"],
    )
    @pytest.mark.parametrize("r", [1, 5])
    def test_against_dense_reference(self, rng, case, r):
        m, n, nnz = 9, 7, 40
        rows = rng.integers(0, m, nnz)
        cols = rng.integers(0, n, nnz)
        if case == "one_row":
            rows, cols = rows[:1], cols[:1]
        elif case == "all_duplicate_rows":
            rows = np.full(nnz, 4)
        elif case == "duplicate_pairs":
            rows, cols = np.tile(rows[:10], 4), np.tile(cols[:10], 4)
        elif case == "reversed":
            rows = np.sort(rows)[::-1]
        vals = rng.standard_normal(len(rows))
        B = rng.standard_normal((n, r))
        out = np.zeros((m, r))
        assert spmm_scatter(rows, cols, vals, B, out) is out
        np.testing.assert_allclose(
            out, _dense_scatter_ref(rows, cols, vals, B, np.zeros((m, r))),
            rtol=1e-13, atol=1e-13,
        )

    def test_accumulates_into_nonzero_out(self, rng):
        rows = np.array([3, 0, 3, 1]); cols = np.array([1, 1, 0, 2])
        vals = rng.standard_normal(4)
        B = rng.standard_normal((3, 4))
        start = rng.standard_normal((5, 4))
        out = start.copy()
        spmm_scatter(rows, cols, vals, B, out)
        np.testing.assert_allclose(
            out, _dense_scatter_ref(rows, cols, vals, B, start), rtol=1e-13
        )
        # untouched rows keep their bits
        np.testing.assert_array_equal(out[[2, 4]], start[[2, 4]])

    def test_non_contiguous_operand(self, rng):
        rows = rng.integers(0, 6, 30); cols = rng.integers(0, 8, 30)
        vals = rng.standard_normal(30)
        wide = rng.standard_normal((8, 12))
        B = wide[:, 3:9]  # column slice of a wider panel
        assert not B.flags["C_CONTIGUOUS"]
        a = spmm_scatter(rows, cols, vals, B, np.zeros((6, 6)))
        b = spmm_scatter(rows, cols, vals, B.copy(), np.zeros((6, 6)))
        np.testing.assert_array_equal(a, b)

    def test_float32_operands(self, rng):
        rows = rng.integers(0, 6, 30); cols = rng.integers(0, 8, 30)
        vals = rng.standard_normal(30).astype(np.float32)
        B = rng.standard_normal((8, 3)).astype(np.float32)
        out = np.zeros((6, 3), dtype=np.float32)
        spmm_scatter(rows, cols, vals, B, out)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, _dense_scatter_ref(rows, cols, vals, B, np.zeros((6, 3))),
            rtol=1e-5, atol=1e-5,
        )

    def test_flops_recorded(self, rng):
        prof = RankProfile()
        rows = np.array([0, 2]); cols = np.array([1, 1])
        spmm_scatter(rows, cols, np.ones(2), np.ones((2, 3)), np.zeros((3, 3)),
                     profile=prof)
        assert prof.total().flops == spmm_flops(2, 3)

    def test_temporaries_independent_of_panel_height(self, rng):
        """Work and memory are O(nnz * r): a 10^6-row ``out`` with 10^3
        nonzeros must not allocate anything panel-sized."""
        m, n, r, nnz = 1_000_000, 500, 4, 1_000
        rows = rng.integers(0, m, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        B = rng.standard_normal((n, r))
        out = np.zeros((m, r))
        spmm_scatter(rows, cols, vals, B, out)  # warm imports / caches
        tracemalloc.start()
        try:
            spmm_scatter(rows, cols, vals, B, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * nnz * r * 8  # a small multiple of nnz * r words
        assert peak < out.nbytes // 50


class TestFusedLocal:
    def test_matches_two_step_reference(self, problem):
        S, A, B, blk, _ = problem
        out = np.zeros((S.nrows, B.shape[1]))
        fusedmm_local(A, B, blk, out)
        ref = fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "a")
        np.testing.assert_allclose(out, ref)

    def test_returns_sddmm_when_asked(self, problem):
        S, A, B, blk, ref_dots = problem
        out = np.zeros((S.nrows, B.shape[1]))
        r_vals = fusedmm_local(A, B, blk, out, return_sddmm=True)
        np.testing.assert_allclose(r_vals, S.vals * ref_dots)

    def test_pattern_only(self, problem):
        S, A, B, blk, ref_dots = problem
        out = np.zeros((S.nrows, B.shape[1]))
        r_vals = fusedmm_local(A, B, blk, out, use_values=False, return_sddmm=True)
        np.testing.assert_allclose(r_vals, ref_dots)

    def test_is_the_unfused_kernel_pair(self, problem):
        """Both halves are the public kernels: bitwise the ``sddmm_coo`` +
        ``spmm_a_block`` pair, 4·nnz·r (+nnz) FLOPs, and the SpMM half
        shows on the tracer (it used to bypass ``spmm_a_block``, and with
        it ``profile.kernels`` and the ``spmm-a`` span)."""
        from repro.runtime.trace import Tracer

        S, A, B, blk, _ = problem
        r = B.shape[1]
        prof = RankProfile()
        prof.tracer = Tracer(rank=0)
        out = np.zeros((S.nrows, r))
        r_vals = fusedmm_local(A, B, blk, out, return_sddmm=True, profile=prof)
        ref_vals = sddmm_coo(A, B, blk.rows, blk.cols, s_vals=blk.vals)
        ref = spmm_a_block(blk, B, np.zeros((S.nrows, r)), values=ref_vals)
        assert np.array_equal(r_vals, ref_vals)
        assert np.array_equal(out, ref)
        assert prof.total().flops == 4 * blk.nnz * r + blk.nnz
        assert [name for _, name, *_ in prof.tracer.events] == ["sddmm", "spmm-a"]

    def test_empty_block(self, rng):
        e = np.empty(0, np.int64)
        blk = SparseBlock(e, e, np.empty(0), (3, 3))
        out = np.zeros((3, 2))
        assert fusedmm_local(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), blk, out) is None

    def test_fusedmm_reference_variant_b(self, problem):
        S, A, B, blk, ref_dots = problem
        got = fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "b")
        R = S.with_values(S.vals * ref_dots)
        np.testing.assert_allclose(got, R.to_scipy().T @ A)

    def test_fusedmm_reference_bad_variant(self, problem):
        S, A, B, blk, _ = problem
        with pytest.raises(ValueError):
            fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "c")


