"""White-box tests of the algorithms' index arithmetic.

The correctness of the phase loops rests on a handful of invariants
(block schedules, Cannon skews, fiber assembly order) checked directly
here so regressions localize to a formula rather than a full kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.dense_repl_25d import DenseReplicate25D
from repro.algorithms.dense_shift_15d import DenseShift15D
from repro.algorithms.sparse_repl_25d import SparseReplicate25D
from repro.algorithms.sparse_shift_15d import SparseShift15D
from repro.sparse.generate import erdos_renyi


class TestDenseShiftSchedule:
    def test_held_block_cycles_through_layer(self):
        alg = DenseShift15D(8, 2)
        plan = alg.plan(64, 64, 8)
        for u in range(4):
            for v in range(2):
                seen = {plan.held_block(u, v, t) for t in range(plan.n_layer)}
                # exactly the blocks of layer v, each seen once
                assert seen == {b * 2 + v for b in range(4)}

    def test_held_block_starts_at_home(self):
        alg = DenseShift15D(6, 3)
        plan = alg.plan(60, 60, 6)
        for rank in range(6):
            u, v = alg.grid.coords(rank)
            assert plan.held_block(u, v, 0) == u * 3 + v

    def test_coarse_blocks_align_with_fine_groups(self):
        alg = DenseShift15D(6, 3)
        plan = alg.plan(61, 47, 6)  # ragged on purpose
        for u in range(plan.n_layer):
            assert plan.row_coarse[u] == plan.row_fine[u * 3]
        assert plan.row_coarse[-1] == 61


class TestSparseShiftLayout:
    def test_strips_partition_r(self):
        alg = SparseShift15D(8, 2)
        plan = alg.plan(64, 64, 13)  # 13 does not divide evenly
        widths = [plan.strip_width(u) for u in range(plan.n_layer)]
        assert sum(widths) == 13
        assert max(widths) - min(widths) <= 1

    def test_cyclic_rows_partition_m(self):
        alg = SparseShift15D(8, 4)
        plan = alg.plan(101, 77, 16)
        rows = np.sort(np.concatenate(plan.rows_a_of_fiber))
        np.testing.assert_array_equal(rows, np.arange(101))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bound_panels_are_fresh_contiguous_copies(self, rng, order):
        """bind_dense hands each rank its (cyclic rows) x (r-strip) panel
        as a fresh C-contiguous array — never a view of the operand."""
        alg = SparseShift15D(8, 4)
        plan = alg.plan(37, 29, 10)
        locals_ = alg.distribute_sparse(plan, erdos_renyi(37, 29, 3, seed=4))
        A = np.asarray(rng.standard_normal((37, 10)), order=order)
        B = np.asarray(rng.standard_normal((29, 10)), order=order)
        alg.bind_dense(plan, locals_, A, B)
        for loc in locals_:
            cols = np.arange(*plan.strip_slice(loc.u).indices(10)[:2])
            for panel, full, rows in (
                (loc.A, A, plan.rows_a_of_fiber[loc.v]),
                (loc.B, B, plan.rows_b_of_fiber[loc.v]),
            ):
                assert panel.flags["C_CONTIGUOUS"] and panel.flags["OWNDATA"]
                assert not np.shares_memory(panel, full)
                np.testing.assert_array_equal(panel, full[np.ix_(rows, cols)])
        np.testing.assert_array_equal(alg.collect_dense_a(plan, locals_), A)
        np.testing.assert_array_equal(alg.collect_dense_b(plan, locals_), B)

    def test_layer_owns_consistent_columns(self):
        """Every nonzero lands in the layer owning its B rows."""
        alg = SparseShift15D(8, 2)
        plan = alg.plan(64, 64, 16)
        S = erdos_renyi(64, 64, 4, seed=0)
        locals_ = alg.distribute(plan, S, None, None)
        for loc in locals_:
            if len(loc.S_cols):
                assert (loc.loc_b[loc.S_cols] >= 0).all()


class TestCannonSkew25D:
    @pytest.mark.parametrize("p,c", [(4, 1), (8, 2), (16, 4), (18, 2)])
    def test_sigma_pairs_s_and_b_every_phase(self, p, c):
        """At every phase, every rank's S block column matches its B block."""
        alg = DenseReplicate25D(p, c)
        plan = alg.plan(64, 64, 16)
        q = plan.q
        for x in range(q):
            for y in range(q):
                sigmas = [plan.sigma(x, y, t) for t in range(q)]
                assert sorted(sigmas) == list(range(q))  # all coarse columns

    def test_skewed_distribution_covers_all_blocks(self):
        alg = DenseReplicate25D(8, 2)
        plan = alg.plan(64, 64, 16)
        S = erdos_renyi(64, 64, 4, seed=1)
        locals_ = alg.distribute(plan, S, None, None)
        total = sum(len(loc.S_rows) for loc in locals_)
        assert total == S.nnz

    def test_kappa_alignment_sparse_replicate(self):
        """A and B pieces carry the same chunk index at every phase."""
        alg = SparseReplicate25D(8, 2)
        plan = alg.plan(64, 64, 16)
        q = plan.q
        for x in range(q):
            for y in range(q):
                k0 = plan.kappa0(x, y)
                assert 0 <= k0 < q
        # chunk slices partition each layer strip
        for z in range(plan.c):
            sl = [plan.chunk_slice(z, k) for k in range(q)]
            covered = sorted((s.start, s.stop) for s in sl)
            lo = int(plan.strips[z])
            for start, stop in covered:
                assert start == lo
                lo = stop
            assert lo == int(plan.strips[z + 1])


class TestValueChunking25DSparse:
    def test_value_chunks_partition_block_nnz(self):
        alg = SparseReplicate25D(8, 2)
        plan = alg.plan(64, 64, 16)
        S = erdos_renyi(64, 64, 5, seed=2)
        locals_ = alg.distribute(plan, S, None, None)
        # fiber ranks sharing (x, y) hold identical coordinates and
        # complementary value chunks
        by_xy = {}
        for loc in locals_:
            by_xy.setdefault((loc.x, loc.y), []).append(loc)
        for (x, y), group in by_xy.items():
            group.sort(key=lambda l: l.z)
            first = group[0]
            for other in group[1:]:
                np.testing.assert_array_equal(first.S_rows, other.S_rows)
                np.testing.assert_array_equal(first.gidx, other.gidx)
            total = sum(len(loc.S_vals_chunk) for loc in group)
            assert total == len(first.S_rows)


class TestResidentBlock25DSparse:
    """The stationary S block of the 2.5D sparse-replicating family is a
    structure-caching :class:`SparseBlock`: the ``comm="dense"`` SpMM
    loops run q CSR products on one cached structure instead of
    re-sorting the same coordinates every phase."""

    M, N, R = 53, 47, 12  # ragged on purpose

    def _setup(self, p=8, c=2):
        from repro.sparse.coo import SparseBlock

        alg = SparseReplicate25D(p, c)
        S = erdos_renyi(self.M, self.N, 4, seed=9)
        plan = alg.plan(self.M, self.N, self.R)
        locals_ = alg.distribute_sparse(plan, S)
        for loc in locals_:
            assert isinstance(loc.S, SparseBlock)
            assert loc.S.shape == (
                plan.row_coarse[loc.x + 1] - plan.row_coarse[loc.x],
                plan.col_coarse[loc.y + 1] - plan.col_coarse[loc.y],
            )
            assert loc.S_rows is loc.S.rows and loc.S_cols is loc.S.cols
        return alg, S, plan, locals_

    def test_structure_shared_along_fiber(self):
        alg, S, plan, locals_ = self._setup()
        by_xy = {}
        for loc in locals_:
            by_xy.setdefault((loc.x, loc.y), []).append(loc)
        for group in by_xy.values():
            assert len(group) == plan.c
            assert all(loc.S is group[0].S for loc in group)

    @pytest.mark.parametrize(
        "p,c", [(4, 1), (8, 2), (18, 2), (9, 1), (12, 3), (16, 4)]
    )
    def test_dense_comm_spmm_matches_serial(self, rng, p, c):
        from repro.baselines.serial import spmm_a_serial, spmm_b_serial
        from repro.types import Mode
        from tests.helpers import run_rank_method

        alg, S, plan, locals_ = self._setup(p, c)
        A = rng.standard_normal((self.M, self.R))
        B = rng.standard_normal((self.N, self.R))

        alg.bind_dense(plan, locals_, None, B)
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_A)
        np.testing.assert_allclose(
            alg.collect_dense_a(plan, locals_), spmm_a_serial(S, B),
            rtol=1e-9, atol=1e-12,
        )
        alg.bind_dense(plan, locals_, A, None)
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_B)
        np.testing.assert_allclose(
            alg.collect_dense_b(plan, locals_), spmm_b_serial(S, A),
            rtol=1e-9, atol=1e-12,
        )

    def test_structure_built_once_and_values_follow_updates(self, rng):
        """The CSR structure survives across calls; the product always
        uses the gathered per-call values, never the block's stored ones."""
        from repro.baselines.serial import spmm_a_serial
        from repro.types import Mode
        from tests.helpers import run_rank_method

        alg, S, plan, locals_ = self._setup()
        B = rng.standard_normal((self.N, self.R))
        alg.bind_dense(plan, locals_, None, B)
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_A)
        cached = {id(loc.S): loc.S._csr for loc in locals_ if loc.S.nnz}
        assert cached and all(c is not None for c in cached.values())

        S2 = S.with_values(rng.standard_normal(S.nnz))
        alg.update_values(plan, locals_, S2.vals)
        alg.bind_dense(plan, locals_, None, B)
        run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_A)
        np.testing.assert_allclose(
            alg.collect_dense_a(plan, locals_), spmm_a_serial(S2, B),
            rtol=1e-9, atol=1e-12,
        )
        for loc in locals_:
            if loc.S.nnz:
                assert loc.S._csr is cached[id(loc.S)]  # no rebuild


class TestDenseIndex:
    """Each family states its Table II dense layout once (``piece_index``);
    ``dense_index`` / ``bind_dense`` / ``collect_dense_*`` are the base
    class's."""

    FAMILIES = [
        (DenseShift15D, 8, 2),
        (SparseShift15D, 8, 4),
        (DenseReplicate25D, 8, 2),
        (SparseReplicate25D, 8, 2),
    ]
    M, N, R = 37, 29, 10  # ragged on purpose

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("cls,p,c", FAMILIES)
    def test_bind_never_aliases_and_round_trips(self, rng, cls, p, c, order):
        alg = cls(p, c)
        plan = alg.plan(self.M, self.N, self.R)
        locals_ = alg.distribute_sparse(plan, erdos_renyi(self.M, self.N, 3, seed=4))
        A = np.asarray(rng.standard_normal((self.M, self.R)), order=order)
        B = np.asarray(rng.standard_normal((self.N, self.R)), order=order)
        alg.bind_dense(plan, locals_, A, B)
        for loc in locals_:
            for side, block, full in (("a", loc.A, A), ("b", loc.B, B)):
                assert block.flags["C_CONTIGUOUS"] and block.flags["OWNDATA"]
                assert not np.shares_memory(block, full)
                np.testing.assert_array_equal(
                    block, full[alg.dense_index(plan, loc, side)]
                )
        np.testing.assert_array_equal(alg.collect_dense_a(plan, locals_), A)
        np.testing.assert_array_equal(alg.collect_dense_b(plan, locals_), B)

    @pytest.mark.parametrize("cls,p,c", FAMILIES)
    def test_none_leaves_a_side_resident_for_every_family(self, rng, cls, p, c):
        """A ``None`` operand binds nothing: that side keeps its resident
        blocks (the placeholders, or an earlier bind's), by identity; a
        bound side round-trips, in blocks of ``piece_shape``."""
        alg = cls(p, c)
        plan = alg.plan(self.M, self.N, self.R)
        locals_ = alg.distribute_sparse(plan, erdos_renyi(self.M, self.N, 3, seed=4))
        placeholders = [loc.B for loc in locals_]
        A = rng.standard_normal((self.M, self.R))
        alg.bind_dense(plan, locals_, A, None)
        assert all(loc.B is blk for loc, blk in zip(locals_, placeholders))
        held = [loc.A for loc in locals_]
        B = rng.standard_normal((self.N, self.R))
        alg.bind_dense(plan, locals_, None, B)
        assert all(loc.A is blk for loc, blk in zip(locals_, held))
        for loc in locals_:
            for side in "ab":
                block = getattr(loc, side.upper())
                assert block.shape == alg.piece_shape(plan, loc, side)
        np.testing.assert_array_equal(alg.collect_dense_a(plan, locals_), A)
        np.testing.assert_array_equal(alg.collect_dense_b(plan, locals_), B)
