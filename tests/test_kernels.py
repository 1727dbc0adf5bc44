"""Tests for the local kernels: SDDMM, SpMM, fused."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.backend_numpy import NUMPY
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
        import repro.kernels.backend_numpy as mod

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
        import repro.kernels.backend_numpy as mod

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
    """The transient CSR product behind every circulating chunk SpMM
    (full-height for an ``out`` of at most ``2 * nnz`` rows, touched
    rows above)."""

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

    def test_full_height_temporaries_bounded_by_nnz(self, rng, monkeypatch):
        """An ``out`` of exactly ``2 * nnz`` rows takes the full-height
        CSR: its one ``out``-shaped product and ``indptr`` stay a small
        multiple of ``nnz * r`` words."""
        n, r, nnz = 500, 8, 20_000
        m = 2 * nnz
        rows = np.sort(rng.integers(0, m, nnz))
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        B = rng.standard_normal((n, r))
        out = np.zeros((m, r))
        spmm_scatter(rows, cols, vals, B, out)  # warm imports / caches
        runs = _count_row_runs(monkeypatch)
        tracemalloc.start()
        try:
            spmm_scatter(rows, cols, vals, B, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs == []  # the full-height path built the CSR
        assert peak < 4 * nnz * r * 8

    @pytest.mark.parametrize(
        "case",
        ["sorted", "unsorted", "duplicate_rows", "duplicate_pairs", "empty_rows",
         "nnz1", "float32", "strided_B"],
    )
    def test_full_height_equals_touched_rows_bitwise(self, rng, case, monkeypatch):
        """The same chunk into an ``out`` at most ``2 * nnz`` rows tall
        (full-height CSR) and into a taller one (touched-rows CSR) gives
        byte-identical rows, and the taller one's extra rows keep their
        bits."""
        m, n, r, nnz = 16, 9, 5, 40
        rows = np.sort(rng.integers(0, m, nnz))
        cols = rng.integers(0, n, nnz)
        dtype = np.float32 if case == "float32" else np.float64
        if case == "unsorted":
            rows = rng.permutation(rows)
        elif case == "duplicate_rows":
            rows = np.sort(rng.integers(3, 6, nnz))
        elif case == "duplicate_pairs":
            rows, cols = np.tile(rows[:8], 5), np.tile(cols[:8], 5)
        elif case == "empty_rows":
            m = 2 * nnz  # most rows of the panel get no nonzero
            rows = np.sort(rng.choice([0, 7, 8, 31, 79], nnz))
        elif case == "nnz1":
            m, rows, cols = 2, np.array([1]), cols[:1]
        vals = rng.standard_normal(len(rows)).astype(dtype)
        if case == "strided_B":
            B = rng.standard_normal((n, 3 * r))[:, 1::3]
            assert not B.flags["C_CONTIGUOUS"]
        else:
            B = rng.standard_normal((n, r)).astype(dtype)
        start = rng.standard_normal((2 * len(rows) + 1 + m, r)).astype(dtype)
        runs = _count_row_runs(monkeypatch)
        short = spmm_scatter(rows, cols, vals, B, start[:m].copy())
        assert runs == []  # full height
        tall = spmm_scatter(rows, cols, vals, B, start.copy())
        assert runs == [1]  # touched rows
        assert short.dtype == tall.dtype == dtype
        assert short.tobytes() == tall[:m].tobytes()
        assert tall[m:].tobytes() == start[m:].tobytes()

    @pytest.mark.parametrize("height", [3, 40])  # full height, touched rows
    @pytest.mark.parametrize("bad", ["past_end", "negative"])
    def test_out_of_range_row_raises(self, height, bad):
        rows = np.array([0, 1, 1, height if bad == "past_end" else -1])
        cols = np.zeros(4, dtype=np.int64)
        out = np.zeros((height, 2))
        with pytest.raises(IndexError):
            spmm_scatter(rows, cols, np.ones(4), np.ones((1, 2)), out)
        assert not out.any()  # nothing was added before the check


def _count_row_runs(monkeypatch) -> list:
    """Record a call of ``spmm_scatter``'s touched-rows CSR builder per
    entry of the returned list."""
    import repro.kernels.spmm as spmm_module

    calls = []
    row_runs = spmm_module._row_runs

    def counting(rows):
        calls.append(1)
        return row_runs(rows)

    monkeypatch.setattr(spmm_module, "_row_runs", counting)
    return calls


CSR_CASES = [
    "random", "empty_rows", "nnz0", "nnz1", "one_row", "duplicate_cols", "width1",
    "strip_view", "fortran_B", "int32_indices", "float32", "float32_data",
]


def _csr_case(rng, case):
    """``(indptr, indices, data, B, shape)`` of one raw-CSR product case."""
    m, n, w = (1 if case == "one_row" else 9), 7, (1 if case == "width1" else 5)
    counts = rng.integers(1, 6, m)
    if case == "empty_rows":
        counts[[0, 3, m - 1]] = 0
    elif case in ("nnz0", "nnz1"):
        counts[:] = 0
        counts[4] = case == "nnz1"
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = rng.integers(0, n, indptr[-1])
    if case == "duplicate_cols":
        indices[:] = 2  # every row hits one column, repeatedly
    data = rng.standard_normal(indptr[-1])
    B = rng.standard_normal((n, w))
    if case == "strip_view":
        B = rng.standard_normal((n, 3 * w))[:, w:2 * w]
        assert not B.flags["C_CONTIGUOUS"]
    elif case == "fortran_B":
        B = np.asfortranarray(B)
    elif case == "int32_indices":
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    elif case == "float32":
        data, B = data.astype(np.float32), B.astype(np.float32)
    elif case == "float32_data":
        data = data.astype(np.float32)
    return indptr, indices, data, B, (m, n)


def _sddmm_fancy(A, B, rows, cols, out, chunk=1 << 30):
    """The fancy-index formulation ``np.take`` replaced (kept as oracle)."""
    for s in range(0, len(rows), chunk):
        e = s + chunk
        out[s:e] += np.einsum("ij,ij->i", A[rows[s:e]], B[cols[s:e]])
    return out


class TestCsrProduct:
    """The numpy backend's hooks against what they replaced, bit for bit:
    the raw ``csr_matvecs`` walk vs SciPy's public ``csr @ dense``, and
    ``np.take`` gathers vs fancy indexing.  ``scipy.sparse._sparsetools``
    is private: this class is the tripwire for it changing under us."""

    @pytest.mark.parametrize("case", CSR_CASES)
    def test_spmm_csr_add_is_scipy_matmul_then_add(self, rng, case):
        indptr, indices, data, B, shape = _csr_case(rng, case)
        prod = sp.csr_matrix((data, indices, indptr), shape=shape) @ B
        start = rng.standard_normal(prod.shape).astype(prod.dtype)
        ref = start.copy()
        ref += prod
        frozen = [a.copy() for a in (indptr, indices, data, B)]
        out = start.copy()
        NUMPY.spmm_csr_add(indptr, indices, data, B, out)
        assert out.dtype == prod.dtype and np.array_equal(out, ref)
        # the scattered form: the same product into chosen rows of a taller out
        rows = rng.permutation(2 * shape[0])[: shape[0]]
        tall = np.zeros((2 * shape[0], B.shape[1]), dtype=prod.dtype)
        NUMPY.spmm_csr_add(indptr, indices, data, B, tall, rows)
        assert np.array_equal(tall[rows], prod)
        assert not tall[np.setdiff1d(np.arange(len(tall)), rows)].any()
        for a, b in zip((indptr, indices, data, B), frozen):  # read-only
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("width", [1, 2, 8, 12])
    def test_take_sddmm_is_the_fancy_index_formulation(self, rng, width):
        m, n, nnz = 30, 25, 200
        rows, cols = rng.integers(0, m, nnz), rng.integers(0, n, nnz)
        A, B = rng.standard_normal((m, 12)), rng.standard_normal((n, 12))
        s_vals = rng.standard_normal(nnz)
        start = rng.standard_normal(nnz)
        for k0 in range(0, 12, width):
            strip = (k0, k0 + width)
            As, Bs = A[:, k0:k0 + width], B[:, k0:k0 + width]
            got = sddmm_coo(A, B, rows, cols, col_range=strip)
            assert np.array_equal(got, _sddmm_fancy(As, Bs, rows, cols, np.zeros(nnz)))
            acc = sddmm_coo(A, B, rows, cols, s_vals=s_vals, out=start.copy(),
                            accumulate=True, col_range=strip)
            ref = _sddmm_fancy(As, Bs, rows, cols, start.copy()) * s_vals
            assert np.array_equal(acc, ref)

    def test_take_sddmm_chunked(self, rng, monkeypatch):
        import repro.kernels.backend_numpy as mod

        rows, cols = rng.integers(0, 30, 200), rng.integers(0, 25, 200)
        A, B = rng.standard_normal((30, 2)), rng.standard_normal((25, 2))
        monkeypatch.setattr(mod, "_CHUNK_BYTES", 7 * 2 * 2 * 8)
        got = sddmm_coo(A, B, rows, cols)
        assert np.array_equal(got, _sddmm_fancy(A, B, rows, cols, np.zeros(200), 7))

    def test_take_edge_scores_and_gat_op(self, rng):
        from repro.kernels.sddmm import GatScoreOp

        rows, cols = rng.integers(0, 30, 200), rng.integers(0, 25, 200)
        uL, uR = rng.standard_normal(30), rng.standard_normal(25)
        e = uL[rows] + uR[cols]
        ref = np.where(e < 0, e * 0.2, e)
        assert np.array_equal(gat_edge_scores(uL, uR, rows, cols, 0.2), ref)
        A, B = rng.standard_normal((30, 4)), rng.standard_normal((25, 4))
        op = GatScoreOp(rng.standard_normal(4), rng.standard_normal(4), 0.2)
        got = sddmm_custom(A, B, rows, cols, op)
        assert np.array_equal(got, op(A[rows], B[cols]))
        opaque = sddmm_custom(A, B, rows, cols, lambda ga, gb: op(ga, gb))
        assert np.array_equal(opaque, got)


class TestNoCsrMatrixOnRankPath:
    """No ``scipy.sparse.csr_matrix`` object is built by a local kernel or
    anywhere in a distributed call; the serial oracles still build one."""

    @pytest.fixture
    def forbid_csr_matrix(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("scipy.sparse.csr_matrix built")

        return lambda: monkeypatch.setattr(sp.csr_matrix, "__init__", boom)

    def test_six_kernels_run(self, problem, forbid_csr_matrix):
        from repro.kernels.sddmm import GatScoreOp

        S, A, B, blk, ref = problem
        forbid_csr_matrix()
        r = A.shape[1]
        np.testing.assert_allclose(sddmm_coo(A, B, S.rows, S.cols), ref)
        sddmm_custom(A, B, S.rows, S.cols, GatScoreOp(A[0], B[0]))
        gat_edge_scores(A[:, 0], B[:, 0], S.rows, S.cols)
        spmm_a_block(blk, B, np.zeros((S.nrows, r)))
        spmm_b_block(blk, A, np.zeros((S.ncols, r)))
        spmm_scatter(S.rows, S.cols, S.vals, B, np.zeros((S.nrows, r)))
        fusedmm_local(A, B, blk, np.zeros((S.nrows, r)))

    @pytest.mark.parametrize(
        "algorithm,comm",
        [
            ("1.5d-dense-shift", "dense"),
            ("1.5d-sparse-shift", "dense"), ("1.5d-sparse-shift", "sparse"),
            ("2.5d-dense-replicate", "dense"),
            ("2.5d-sparse-replicate", "dense"), ("2.5d-sparse-replicate", "sparse"),
        ],
    )
    def test_distributed_fusedmm_runs(self, rng, forbid_csr_matrix, algorithm, comm):
        import repro
        from repro.baselines import serial

        S = erdos_renyi(48, 40, 5, seed=3)
        A, B = rng.standard_normal((48, 8)), rng.standard_normal((40, 8))
        ref = serial.fusedmm_a_serial(S, A, B)  # the oracle does build one
        forbid_csr_matrix()
        with repro.plan(S, 8, p=8, c=2, algorithm=algorithm, comm=comm) as sess:
            got, _ = sess.fusedmm_a(A, B)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_oracles_still_build_one(self, problem, forbid_csr_matrix):
        from repro.baselines import serial
        from repro.baselines.petsc_like import petsc_like_spmm

        S, A, B, blk, _ = problem
        forbid_csr_matrix()
        with pytest.raises(AssertionError, match="csr_matrix built"):
            serial.spmm_a_serial(S, B)
        with pytest.raises(AssertionError, match="csr_matrix built"):
            serial.spmm_b_serial(S, A)
        with pytest.raises(AssertionError, match="csr_matrix built"):
            fusedmm_reference(S.rows, S.cols, S.vals, A, B, S.shape, "a")
        with pytest.raises(Exception, match="csr_matrix built"):
            petsc_like_spmm(S, B, p=2)


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


