"""Correctness of all four distributed algorithm families.

Every unified kernel mode and every FusedMM strategy is compared against
the serial references over a matrix of (p, c) grids, including ragged
block sizes (dimensions not divisible by p) and rectangular S.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.dense_repl_25d import DenseReplicate25D
from repro.algorithms.dense_shift_15d import DenseShift15D
from repro.algorithms.sparse_repl_25d import SparseReplicate25D
from repro.algorithms.sparse_shift_15d import SparseShift15D
from repro.baselines.serial import (
    fusedmm_a_serial,
    fusedmm_b_serial,
    sddmm_serial,
    spmm_a_serial,
    spmm_b_serial,
)
from repro.errors import DistributionError
from repro.sparse.generate import erdos_renyi
from repro.types import Elision

from tests.helpers import dist_fused, dist_sddmm, dist_spmm_a, dist_spmm_b

GRIDS_15D = [(1, 1), (4, 1), (4, 2), (6, 3), (8, 4), (8, 8)]
GRIDS_25D = [(1, 1), (4, 1), (8, 2), (9, 1), (16, 4), (12, 3)]

CASES = (
    [(DenseShift15D, p, c) for (p, c) in GRIDS_15D]
    + [(SparseShift15D, p, c) for (p, c) in GRIDS_15D]
    + [(DenseReplicate25D, p, c) for (p, c) in GRIDS_25D]
    + [(SparseReplicate25D, p, c) for (p, c) in GRIDS_25D]
)


def _id(case):
    cls, p, c = case
    return f"{cls.name}-p{p}-c{c}"


@pytest.fixture(params=CASES, ids=_id)
def alg(request):
    cls, p, c = request.param
    return cls(p, c)


class TestUnifiedKernelModes:
    def test_sddmm(self, alg, small_problem):
        S, A, B = small_problem
        got = dist_sddmm(alg, S, A, B)
        np.testing.assert_allclose(got.vals, sddmm_serial(S, A, B).vals, rtol=1e-9)

    def test_spmm_a(self, alg, small_problem):
        S, A, B = small_problem
        got = dist_spmm_a(alg, S, B)
        np.testing.assert_allclose(got, spmm_a_serial(S, B), rtol=1e-9, atol=1e-12)

    def test_spmm_b(self, alg, small_problem):
        S, A, B = small_problem
        got = dist_spmm_b(alg, S, A)
        np.testing.assert_allclose(got, spmm_b_serial(S, A), rtol=1e-9, atol=1e-12)

    def test_fused_none_a(self, alg, small_problem):
        S, A, B = small_problem
        got = dist_fused(alg, S, A, B, "rank_fusedmm_none_a", "a")
        np.testing.assert_allclose(got, fusedmm_a_serial(S, A, B), rtol=1e-9, atol=1e-12)

    def test_fused_none_b(self, alg, small_problem):
        S, A, B = small_problem
        got = dist_fused(alg, S, A, B, "rank_fusedmm_none_b", "b")
        np.testing.assert_allclose(got, fusedmm_b_serial(S, A, B), rtol=1e-9, atol=1e-12)


class TestElisionStrategies:
    def test_replication_reuse_matches_fused_b(self, alg, small_problem):
        if Elision.REPLICATION_REUSE not in alg.elisions:
            pytest.skip("family does not support replication reuse")
        S, A, B = small_problem
        got = dist_fused(alg, S, A, B, "rank_fusedmm_reuse", "b")
        np.testing.assert_allclose(got, fusedmm_b_serial(S, A, B), rtol=1e-9, atol=1e-12)

    def test_local_kernel_fusion_matches_fused_a(self, alg, small_problem):
        if Elision.LOCAL_KERNEL_FUSION not in alg.elisions:
            pytest.skip("family does not support local kernel fusion")
        S, A, B = small_problem
        got = dist_fused(alg, S, A, B, "rank_fusedmm_lkf", "a")
        np.testing.assert_allclose(got, fusedmm_a_serial(S, A, B), rtol=1e-9, atol=1e-12)


class TestDistributionRoundTrip:
    """Table II conformance: distribute + collect is the identity."""

    def test_dense_roundtrip(self, alg, small_problem):
        S, A, B = small_problem
        plan = alg.plan(S.nrows, S.ncols, A.shape[1])
        locals_ = alg.distribute(plan, S, A, B)
        np.testing.assert_allclose(alg.collect_dense_a(plan, locals_), A)
        np.testing.assert_allclose(alg.collect_dense_b(plan, locals_), B)

    def test_sparse_values_roundtrip(self, alg, small_problem):
        """Every nonzero is assigned somewhere exactly once."""
        S, A, B = small_problem
        plan = alg.plan(S.nrows, S.ncols, A.shape[1])
        locals_ = alg.distribute(plan, S, A, B)
        if hasattr(locals_[0], "gidx") and isinstance(locals_[0].gidx, dict):
            all_gidx = np.concatenate(
                [g for loc in locals_ for g in loc.gidx.values()]
                or [np.empty(0, np.int64)]
            )
        else:
            seen = []
            for loc in locals_:
                g = loc.gidx
                if len(g):
                    # 2.5D sparse replicate: coords replicated along fiber;
                    # count each block once (at z == 0)
                    if hasattr(loc, "z") and hasattr(loc, "val_bounds"):
                        if loc.z != 0:
                            continue
                    seen.append(g)
            all_gidx = np.concatenate(seen) if seen else np.empty(0, np.int64)
        np.testing.assert_array_equal(np.sort(all_gidx), np.arange(S.nnz))

    def test_shape_mismatch_raises(self, alg, small_problem):
        S, A, B = small_problem
        plan = alg.plan(S.nrows + 1, S.ncols, A.shape[1])
        with pytest.raises(DistributionError):
            alg.distribute(plan, S, None, None)


class TestEdgeCases:
    @pytest.fixture(params=[(DenseShift15D, 4, 2), (SparseShift15D, 4, 2),
                            (DenseReplicate25D, 8, 2), (SparseReplicate25D, 8, 2)],
                    ids=lambda c: c[0].name)
    def alg4(self, request):
        cls, p, c = request.param
        return cls(p, c)

    def test_empty_sparse_matrix(self, alg4, rng):
        from repro.sparse.coo import CooMatrix

        e = np.empty(0, np.int64)
        S = CooMatrix(e, e, np.empty(0), (40, 40))
        A = rng.standard_normal((40, 8))
        got = dist_spmm_b(alg4, S, A)
        np.testing.assert_allclose(got, 0)

    def test_single_nonzero(self, alg4, rng):
        from repro.sparse.coo import CooMatrix

        S = CooMatrix(np.array([17]), np.array([23]), np.array([2.0]), (40, 40))
        A = rng.standard_normal((40, 8))
        B = rng.standard_normal((40, 8))
        got = dist_fused(alg4, S, A, B, "rank_fusedmm_none_a", "a")
        np.testing.assert_allclose(got, fusedmm_a_serial(S, A, B), atol=1e-12)

    def test_tiny_dimensions_smaller_than_grid(self, alg4, rng):
        """m, n smaller than p: many empty blocks."""
        S = erdos_renyi(3, 5, 2, seed=1)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((5, 4))
        got = dist_fused(alg4, S, A, B, "rank_fusedmm_none_b", "b")
        np.testing.assert_allclose(got, fusedmm_b_serial(S, A, B), atol=1e-12)

    def test_r_smaller_than_layer_count(self, rng):
        """r < p/c exercises empty r-strips in the sparse-shifting layout."""
        alg = SparseShift15D(8, 1)
        S = erdos_renyi(30, 30, 3, seed=2)
        A = rng.standard_normal((30, 3))
        B = rng.standard_normal((30, 3))
        got = dist_fused(alg, S, A, B, "rank_fusedmm_reuse", "b")
        np.testing.assert_allclose(got, fusedmm_b_serial(S, A, B), atol=1e-12)

    def test_dense_column_matrix(self, alg4, rng):
        """r = 1 (a sparse matrix-vector-ish extreme)."""
        S = erdos_renyi(25, 30, 4, seed=3)
        A = rng.standard_normal((25, 1))
        B = rng.standard_normal((30, 1))
        got = dist_spmm_a(alg4, S, B)
        np.testing.assert_allclose(got, spmm_a_serial(S, B), atol=1e-12)


class TestRepeatedCalls:
    """Kernels must be re-runnable on the same local state (apps do this)."""

    def test_sddmm_idempotent_on_locals(self, square_problem):
        from repro.types import Mode
        from tests.helpers import run_rank_method

        S, A, B = square_problem
        alg = DenseShift15D(4, 2)
        plan = alg.plan(S.nrows, S.ncols, A.shape[1])
        locals_ = alg.distribute(plan, S, A, B)
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SDDMM)
        first = alg.collect_sddmm(plan, locals_, S).vals.copy()
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SDDMM)
        second = alg.collect_sddmm(plan, locals_, S).vals
        np.testing.assert_allclose(first, second)
