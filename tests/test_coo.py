"""Tests for COO containers and cached CSR structures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DistributionError
from repro.sparse.coo import CooMatrix, SparseBlock


def random_coo(rng, m, n, nnz):
    rows = rng.integers(0, m, nnz).astype(np.int64)
    cols = rng.integers(0, n, nnz).astype(np.int64)
    vals = rng.standard_normal(nnz)
    return rows, cols, vals


class TestSparseBlock:
    def test_csr_matches_scipy(self, rng):
        rows, cols, vals = random_coo(rng, 10, 8, 30)
        blk = SparseBlock(rows, cols, vals, (10, 8))
        import scipy.sparse as sp

        ref = sp.coo_matrix((vals, (rows, cols)), shape=(10, 8)).toarray()
        np.testing.assert_allclose(blk.csr().toarray(), ref)

    def test_csr_t_is_transpose(self, rng):
        rows, cols, vals = random_coo(rng, 10, 8, 30)
        blk = SparseBlock(rows, cols, vals, (10, 8))
        np.testing.assert_allclose(blk.csr_t().toarray(), blk.csr().toarray().T)

    def test_csr_with_override_values(self, rng):
        rows, cols, vals = random_coo(rng, 6, 6, 12)
        blk = SparseBlock(rows, cols, vals, (6, 6))
        new_vals = np.arange(len(vals), dtype=float)
        got = blk.csr(new_vals).toarray()
        ref = SparseBlock(rows, cols, new_vals, (6, 6)).csr().toarray()
        np.testing.assert_allclose(got, ref)

    def test_value_order_preserved_through_structure_cache(self, rng):
        """csr(values) must map values by COO position, not CSR position."""
        rows = np.array([2, 0, 1], dtype=np.int64)
        cols = np.array([0, 1, 2], dtype=np.int64)
        vals = np.array([10.0, 20.0, 30.0])
        blk = SparseBlock(rows, cols, vals, (3, 3))
        dense = blk.csr().toarray()
        assert dense[2, 0] == 10.0 and dense[0, 1] == 20.0 and dense[1, 2] == 30.0

    def test_empty_block(self):
        e = np.empty(0, np.int64)
        blk = SparseBlock(e, e, np.empty(0), (4, 5))
        assert blk.nnz == 0
        assert blk.csr().nnz == 0
        assert blk.csr_t().shape == (5, 4)

    def test_out_of_bounds_raises(self):
        with pytest.raises(DistributionError):
            SparseBlock(np.array([4]), np.array([0]), np.ones(1), (4, 5))
        with pytest.raises(DistributionError):
            SparseBlock(np.array([0]), np.array([-1]), np.ones(1), (4, 5))

    def test_length_mismatch_raises(self):
        with pytest.raises(DistributionError):
            SparseBlock(np.zeros(2, np.int64), np.zeros(1, np.int64), np.zeros(2), (3, 3))

    def test_transposed(self, rng):
        rows, cols, vals = random_coo(rng, 7, 9, 20)
        blk = SparseBlock(rows, cols, vals, (7, 9))
        t = blk.transposed()
        assert t.shape == (9, 7)
        np.testing.assert_allclose(t.csr().toarray(), blk.csr().toarray().T)

    def test_with_values_shares_structure(self, rng):
        rows, cols, vals = random_coo(rng, 5, 5, 10)
        blk = SparseBlock(rows, cols, vals, (5, 5))
        blk.csr()  # warm the cache
        other = blk.with_values(vals * 2)
        assert other._csr is blk._csr
        np.testing.assert_allclose(other.csr().toarray(), 2 * blk.csr().toarray())

    @given(
        m=st.integers(1, 20), n=st.integers(1, 20),
        nnz=st.integers(0, 100), seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_csr_roundtrip(self, m, n, nnz, seed):
        rng = np.random.default_rng(seed)
        rows, cols, vals = random_coo(rng, m, n, nnz)
        blk = SparseBlock(rows, cols, vals, (m, n))
        dense = np.zeros((m, n))
        np.add.at(dense, (rows, cols), vals)  # duplicates sum in CSR too
        np.testing.assert_allclose(blk.csr().toarray(), dense, atol=1e-12)


def lexsort_structure(blk, transpose):
    """The CSR structure as it was built before the single-key sort:
    ``lexsort((c, r))`` and an ``add.at`` row count."""
    r, c = (blk.cols, blk.rows) if transpose else (blk.rows, blk.cols)
    nr = blk.ncols if transpose else blk.nrows
    order = np.lexsort((c, r))
    indptr = np.zeros(nr + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, c[order].astype(np.int64), order.astype(np.int64)


class TestStructureIdentity:
    """The stable single-key ``argsort`` + ``bincount`` build yields the
    very arrays the two-key ``lexsort`` did — duplicates keep their COO
    order, so every CSR product sums in the same order."""

    CASES = {
        "duplicates": ([2, 0, 2, 2, 1, 0], [1, 3, 1, 0, 3, 3], (3, 4)),
        "empty": ([], [], (4, 5)),
        "empty-rows": ([0, 0, 5], [2, 1, 2], (6, 3)),
        "non-square": ([0, 6, 3, 3], [999, 0, 500, 499], (7, 1000)),
    }

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_arrays(self, case, transpose):
        rows, cols, shape = self.CASES[case]
        blk = SparseBlock(
            np.array(rows, np.int64), np.array(cols, np.int64),
            np.ones(len(rows)), shape,
        )
        built = blk._structure(transpose)
        for got, want in zip(built, lexsort_structure(blk, transpose)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @given(
        m=st.integers(1, 30), n=st.integers(1, 30),
        nnz=st.integers(0, 200), seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_same_arrays(self, m, n, nnz, seed):
        rows, cols, vals = random_coo(np.random.default_rng(seed), m, n, nnz)
        blk = SparseBlock(rows, cols, vals, (m, n))
        for transpose in (False, True):
            for got, want in zip(
                blk._structure(transpose), lexsort_structure(blk, transpose)
            ):
                assert np.array_equal(got, want)


class TestCooMatrix:
    def test_dedupe_keeps_first_occurrence(self):
        mat = CooMatrix(
            np.array([1, 1, 0]), np.array([2, 2, 0]), np.array([5.0, 7.0, 1.0]), (3, 3)
        )
        assert mat.nnz == 2
        dense = mat.to_scipy().toarray()
        assert dense[1, 2] == 5.0  # first kept

    def test_from_to_scipy_roundtrip(self, rng):
        import scipy.sparse as sp

        ref = sp.random(20, 15, density=0.2, random_state=42, format="csr")
        mat = CooMatrix.from_scipy(ref)
        np.testing.assert_allclose(mat.to_scipy().toarray(), ref.toarray())

    def test_bounds_validation(self):
        with pytest.raises(DistributionError):
            CooMatrix(np.array([3]), np.array([0]), np.ones(1), (3, 3))

    def test_transposed(self, rng):
        rows, cols, vals = random_coo(rng, 9, 4, 15)
        mat = CooMatrix(rows, cols, vals, (9, 4))
        np.testing.assert_allclose(
            mat.transposed().to_scipy().toarray(), mat.to_scipy().toarray().T
        )

    def test_permuted(self):
        mat = CooMatrix(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]), (2, 2))
        perm = np.array([1, 0])
        got = mat.permuted(perm, perm).to_scipy().toarray()
        np.testing.assert_allclose(got, [[2.0, 0.0], [0.0, 1.0]])

    def test_with_values(self):
        mat = CooMatrix(np.array([0]), np.array([1]), np.array([3.0]), (2, 2))
        got = mat.with_values(np.array([9.0]))
        assert got.vals[0] == 9.0
        assert got.shape == (2, 2)
