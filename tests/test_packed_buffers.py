"""Packed need-list buffers: correctness, coverage and memory regression.

The packed-buffer optimization must change *where rows live* (compact
``len(union) x sw`` panels addressed through cached remaps) but never
*what is computed*, and it must actually shrink the memory footprint:
no full-height panel may exist anywhere on the ``comm="sparse"`` path.

Covers, bottom-up:

* :class:`PackedIndex` (its ``positions`` refuse a row outside the
  union, which is how the 1.5D planner places every leg);
* :meth:`SparseBlock.remapped` (the cached coordinate-rewritten view);
* planner invariants — every packed panel row is covered exactly once,
  each reduction leg is its gather leg reversed, and a leg is flagged
  whole exactly when it spans the packed panel;
* property tests: packed runs are ``allclose`` to dense-mode runs across
  both families x {SDDMM, SpMMA, SpMMB, FusedMM} x random grids;
* the memory regression: per-rank peak buffer bytes in sparse mode is
  bounded by the union sizes and strictly below the dense-mode footprint
  at low phi;
* observability: ``RunReport.comm_mode`` / ``peak_buffer_bytes``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.registry import make_algorithm
from repro.comm_sparse import PackedIndex
from repro.errors import CommError
from repro.model.costs import fusedmm_buffer_words
from repro.model.optimal import choose_comm_mode
from repro.runtime.buffers import BufferPool
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import run_spmd
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.generate import erdos_renyi
from repro.sparse.partition import block_of
from repro.types import Mode
from tests.helpers import (
    SWEEP_NNZ_PER_ROW,
    SWEEP_SPARSE_REPLICATE,
    SWEEP_SPARSE_SHIFT,
    sweep_dense_vs_sparse,
)


def ix(*vals):
    return np.asarray(vals, dtype=np.int64)


# ----------------------------------------------------------------------
# PackedIndex
# ----------------------------------------------------------------------


class TestPackedIndex:
    def test_from_rows_sorts_and_dedupes(self):
        idx = PackedIndex.from_rows(ix(7, 2, 7, 4), domain=10)
        np.testing.assert_array_equal(idx.union, ix(2, 4, 7))
        assert idx.size == 3 and idx.domain == 10

    def test_positions_roundtrip(self):
        idx = PackedIndex.from_rows(ix(5, 1, 9), domain=12)
        np.testing.assert_array_equal(idx.positions(ix(9, 1, 5, 1)), ix(2, 0, 1, 0))

    def test_foreign_row_rejected(self):
        idx = PackedIndex.from_rows(ix(1, 3), domain=6)
        with pytest.raises(CommError, match="outside the packed union"):
            idx.positions(ix(1, 2))

    def test_out_of_domain_rejected(self):
        with pytest.raises(CommError):
            PackedIndex.from_rows(ix(4), domain=3)

    def test_panel_words(self):
        idx = PackedIndex.from_rows(ix(0, 2, 4), domain=8)
        assert idx.panel_words(16) == 3 * 16

    def test_from_union_is_from_rows_without_the_sort(self):
        for rows in (ix(7, 2, 7, 4), ix(), ix(0), ix(9)):
            ref = PackedIndex.from_rows(rows, domain=10)
            idx = PackedIndex.from_union(np.unique(rows), domain=10)
            np.testing.assert_array_equal(idx.union, ref.union)
            np.testing.assert_array_equal(idx.lookup, ref.lookup)

    @pytest.mark.parametrize("bad", [ix(4, 2), ix(2, 2), ix(1, 3, 3, 5)])
    def test_from_union_rejects_unsorted_or_duplicated(self, bad):
        with pytest.raises(CommError, match="sorted and duplicate-free"):
            PackedIndex.from_union(bad, domain=10)

    def test_from_union_out_of_domain_rejected(self):
        with pytest.raises(CommError, match="out of domain"):
            PackedIndex.from_union(ix(1, 12), domain=10)


# ----------------------------------------------------------------------
# SparseBlock.remapped
# ----------------------------------------------------------------------


class TestSparseBlockRemapped:
    def test_rewrites_coordinates(self):
        blk = SparseBlock(ix(0, 4, 4), ix(1, 3, 5), np.array([1.0, 2.0, 3.0]), (6, 6))
        rmap = PackedIndex.from_rows(blk.rows, 6).lookup
        cmap = PackedIndex.from_rows(blk.cols, 6).lookup
        view = blk.remapped("p", rmap, cmap, (2, 3))
        np.testing.assert_array_equal(view.rows, ix(0, 1, 1))
        np.testing.assert_array_equal(view.cols, ix(0, 1, 2))
        assert view.shape == (2, 3)

    def test_cached_per_key(self):
        blk = SparseBlock(ix(2), ix(3), np.array([1.0]), (4, 4))
        rmap = np.arange(4, dtype=np.int64)
        assert blk.remapped("k", rmap) is blk.remapped("k", rmap)
        assert blk.remapped("k", rmap) is not blk.remapped("k2", rmap)

    def test_key_rebinding_to_other_maps_raises(self):
        from repro.errors import DistributionError

        blk = SparseBlock(ix(2), ix(3), np.array([1.0]), (4, 4))
        blk.remapped("k", np.arange(4, dtype=np.int64))
        with pytest.raises(DistributionError, match="already bound"):
            blk.remapped("k", np.zeros(4, dtype=np.int64))

    def test_with_values_shares_remap_cache(self):
        blk = SparseBlock(ix(1), ix(1), np.array([1.0]), (3, 3))
        rmap = np.arange(3, dtype=np.int64)
        view = blk.remapped("k", rmap)
        assert blk.with_values(np.array([9.0])).remapped("k", rmap) is view

    def test_prebuild_populates_csr_caches(self):
        blk = SparseBlock(ix(0, 1), ix(1, 0), np.array([1.0, 2.0]), (2, 2))
        view = blk.remapped("k", None, None, None, prebuild=True)
        assert view._csr is not None and view._csr_t is not None

    def test_csr_values_follow_call_site(self):
        blk = SparseBlock(ix(1, 0), ix(0, 1), np.array([1.0, 2.0]), (2, 2))
        view = blk.remapped("k", None)
        got = view.csr(np.array([5.0, 7.0])).toarray()
        np.testing.assert_allclose(got, [[0.0, 7.0], [5.0, 0.0]])


# ----------------------------------------------------------------------
# planner packed invariants
# ----------------------------------------------------------------------


def assert_reversed(gather, reduce):
    """``reduce`` is ``gather`` with every leg's roles swapped: the same
    row arrays, widths, column windows and whole-panel flags."""
    assert len(reduce.peers) == len(gather.peers)
    for g, r in zip(gather.peers, reduce.peers):
        assert r.peer == g.peer
        assert r.send_rows is g.recv_rows and r.recv_rows is g.send_rows
        assert (r.send_width, r.recv_width) == (g.recv_width, g.send_width)
        assert (r.send_cols, r.recv_cols) == (g.recv_cols, g.send_cols)
        assert (r.send_whole, r.recv_whole) == (g.recv_whole, g.send_whole)


def assert_whole_iff_union_tall(cp):
    """A 1.5D gather leg receives sorted packed positions, so it is the
    whole panel in panel order exactly when it is as tall as the union."""
    for px in cp.gather.peers:
        assert px.recv_whole == (len(px.recv_rows) == cp.index.size)
        assert np.all(np.diff(px.recv_rows) > 0)
        if px.recv_whole:
            np.testing.assert_array_equal(px.recv_rows, np.arange(cp.index.size))
        assert not px.send_whole


class TestPlannerPackedCoverage15D:
    def setup_method(self):
        self.S = erdos_renyi(40, 52, 3, seed=11)
        self.alg = make_algorithm("1.5d-sparse-shift", 8, 4)
        self.plan = self.alg.plan(40, 52, 12)
        self.cplans = self.alg.build_comm_plans(self.plan, self.S)

    def test_every_packed_row_covered_exactly_once(self):
        """own rows + one peer leg per remaining row tile the packed panel,
        which is what makes the np.empty gather target legal."""
        for cp in self.cplans:
            pieces = [cp.own_packed] + [px.recv_rows for px in cp.gather.peers]
            covered = np.concatenate([np.asarray(p) for p in pieces if len(p)] or [ix()])
            assert len(covered) == len(np.unique(covered))
            np.testing.assert_array_equal(np.sort(covered), np.arange(cp.index.size))

    def test_reduce_legs_are_gather_legs_reversed(self):
        for cp in self.cplans:
            assert_reversed(cp.gather, cp.reduce)

    def test_leg_is_whole_iff_as_tall_as_the_union(self):
        for cp in self.cplans:
            assert_whole_iff_union_tall(cp)

    def test_own_rows_agree_with_layout(self):
        for rank, cp in enumerate(self.cplans):
            _, v = self.alg.grid.coords(rank)
            owned = self.plan.rows_a_of_fiber[v]
            np.testing.assert_array_equal(owned[cp.own_local], cp.index.union[cp.own_packed])


class TestPlannerWholeLeg15D:
    """c = 2: layer 0 touches only rows fiber coordinate 1 owns, so its
    one peer leg covers the whole union; layer 1 owns some of its rows,
    so its leg is partial."""

    m, n, r = 24, 32, 6

    def setup_method(self):
        self.alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        self.plan = self.alg.plan(self.m, self.n, self.r)
        rng = np.random.default_rng(3)
        cols = np.arange(self.n)
        layer = block_of(cols, self.plan.col_fine) % 2
        rows = np.where(
            layer == 0,
            rng.choice(self.plan.rows_a_of_fiber[1], self.n),
            rng.integers(0, self.m, self.n),
        )
        self.S = CooMatrix(rows, cols, rng.standard_normal(self.n), (self.m, self.n))
        self.cplans = self.alg.build_comm_plans(self.plan, self.S)

    def test_whole_and_partial_legs(self):
        for rank, cp in enumerate(self.cplans):
            _, v = self.alg.grid.coords(rank)
            (leg,) = cp.gather.peers
            assert leg.recv_whole == (v == 0)
            assert (len(cp.own_packed) == 0) == (v == 0)
            assert_whole_iff_union_tall(cp)
            assert_reversed(cp.gather, cp.reduce)
            assert cp.reduce.peers[0].send_whole == (v == 0)

    def test_whole_legs_match_dense_comm(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((self.m, self.r))
        B = rng.standard_normal((self.n, self.r))
        outs = {}
        for comm in ("dense", "sparse"):
            with repro.plan(
                self.S, self.r, p=4, c=2, algorithm="1.5d-sparse-shift", comm=comm
            ) as sess:
                outs[comm] = (sess.sddmm(A, B)[0].vals, sess.spmm_a(B)[0])
        for got, want in zip(outs["sparse"], outs["dense"]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestPlannerPacked25D:
    def setup_method(self):
        self.S = erdos_renyi(36, 30, 2, seed=13)
        self.alg = make_algorithm("2.5d-sparse-replicate", 8, 2)
        self.plan = self.alg.plan(36, 30, 10)
        self.cplans = self.alg.build_comm_plans(self.plan, self.S)

    def test_gather_legs_receive_the_whole_panel(self):
        """A rank's need list IS its packed panel, so every peer leg lands
        on the identity packed rows, flagged whole (only the column
        windows differ), and every reduction leg sends the whole panel."""
        for cp in self.cplans:
            for gather, reduce, index in (
                (cp.gather_a, cp.reduce_a, cp.index_a),
                (cp.gather_b, cp.reduce_b, cp.index_b),
            ):
                for px in gather.peers:
                    assert px.recv_whole and not px.send_whole
                    np.testing.assert_array_equal(px.recv_rows, np.arange(index.size))
                assert all(px.send_whole for px in reduce.peers)

    def test_reduce_legs_are_gather_legs_reversed(self):
        for cp in self.cplans:
            assert_reversed(cp.gather_a, cp.reduce_a)
            assert_reversed(cp.gather_b, cp.reduce_b)

    def test_block_packed_is_in_panel_coordinates(self):
        for cp in self.cplans:
            blk = cp.block_packed
            assert blk.shape == (cp.index_a.size, cp.index_b.size)
            if blk.nnz:
                assert blk.rows.max() < cp.index_a.size
                assert blk.cols.max() < cp.index_b.size

    def test_block_packed_shared_across_fiber(self):
        g = self.alg.grid
        for x in range(g.q):
            for y in range(g.q):
                assert (
                    self.cplans[g.rank_of(x, y, 0)].block_packed
                    is self.cplans[g.rank_of(x, y, 1)].block_packed
                )


# ----------------------------------------------------------------------
# equivalence: packed sparse comm == dense comm (property tests)
# ----------------------------------------------------------------------

GRIDS = {
    "1.5d-sparse-shift": [(4, 2), (8, 4), (6, 3)],
    "2.5d-sparse-replicate": [(8, 2), (16, 4), (18, 2), (4, 4), (8, 8)],
}


def run_mode(alg, S, A, B, mode, sparse):
    """Run one unified kernel (``mode`` a :class:`Mode`) or one rank
    procedure (``mode`` its method name, e.g. ``"rank_fusedmm_none_a"``)."""
    r = (A if A is not None else B).shape[1]
    plan = alg.plan(S.nrows, S.ncols, r)
    locals_ = alg.distribute(plan, S, A, B)
    cplans = alg.build_comm_plans(plan, S) if sparse else None

    def body(comm):
        ctx = alg.make_context(comm)
        kw = {"sparse_plan": cplans[comm.rank]} if cplans is not None else {}
        if isinstance(mode, Mode):
            alg.rank_kernel(ctx, plan, locals_[comm.rank], mode, **kw)
        else:
            getattr(alg, mode)(ctx, plan, locals_[comm.rank], **kw)

    _, report = run_spmd(alg.p, body)
    return plan, locals_, report


@st.composite
def packed_problems(draw):
    m = draw(st.integers(6, 48))
    n = draw(st.integers(6, 48))
    r = draw(st.integers(1, 12))
    nnz = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    S = CooMatrix(
        rng.integers(0, m, nnz).astype(np.int64),
        rng.integers(0, n, nnz).astype(np.int64),
        rng.standard_normal(nnz),
        (m, n),
    )
    return S, rng.standard_normal((m, r)), rng.standard_normal((n, r))


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(problem=packed_problems(), pick=st.integers(0, 4))
def test_packed_matches_dense_random(name, mode, problem, pick):
    S, A, B = problem
    p, c = GRIDS[name][pick % len(GRIDS[name])]
    plan_d, loc_d, _ = run_mode(make_algorithm(name, p, c), S, A, B, mode, sparse=False)
    alg_s = make_algorithm(name, p, c)
    plan_s, loc_s, _ = run_mode(alg_s, S, A, B, mode, sparse=True)
    alg_d = make_algorithm(name, p, c)
    if mode == Mode.SDDMM:
        got_d = alg_d.collect_sddmm(plan_d, loc_d, S).vals
        got_s = alg_s.collect_sddmm(plan_s, loc_s, S).vals
    elif mode == Mode.SPMM_A:
        got_d = alg_d.collect_dense_a(plan_d, loc_d)
        got_s = alg_s.collect_dense_a(plan_s, loc_s)
    else:
        got_d = alg_d.collect_dense_b(plan_d, loc_d)
        got_s = alg_s.collect_dense_b(plan_s, loc_s)
    np.testing.assert_allclose(got_s, got_d, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "name,elision,p,c",
    [
        ("1.5d-sparse-shift", "none", 8, 4),
        ("1.5d-sparse-shift", "replication-reuse", 8, 2),
        ("2.5d-sparse-replicate", "none", 8, 2),
    ],
)
@pytest.mark.parametrize("fused", [repro.fusedmm_a, repro.fusedmm_b])
def test_packed_fusedmm_matches_dense(name, elision, p, c, fused, rng):
    for seed in (3, 4):
        S = erdos_renyi(44, 44, 3, seed=seed)
        A = rng.standard_normal((44, 8))
        B = rng.standard_normal((44, 8))
        out_d, _ = fused(S, A, B, p=p, c=c, algorithm=name, elision=elision, comm="dense")
        out_s, _ = fused(S, A, B, p=p, c=c, algorithm=name, elision=elision, comm="sparse")
        np.testing.assert_allclose(out_s, out_d, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("name,elision,p,c", [
    ("1.5d-sparse-shift", "replication-reuse", 8, 4),
    ("2.5d-sparse-replicate", "none", 8, 2),
])
def test_packed_steady_state_repeated_calls(name, elision, p, c, rng):
    """calls > 1 reuses every pool slot: a pooled buffer escaping into
    state consumed on the NEXT call corrupts only calls 2..n, which a
    single-call test can never see."""
    S = erdos_renyi(48, 48, 3, seed=6)
    A = rng.standard_normal((48, 8))
    B = rng.standard_normal((48, 8))
    out_d, _ = repro.fusedmm_b(
        S, A, B, p=p, c=c, algorithm=name, elision=elision, comm="dense", calls=5
    )
    out_s, _ = repro.fusedmm_b(
        S, A, B, p=p, c=c, algorithm=name, elision=elision, comm="sparse", calls=5
    )
    np.testing.assert_allclose(out_s, out_d, rtol=1e-8, atol=1e-10)


# ----------------------------------------------------------------------
# memory regression: no full-height panel on the sparse path
# ----------------------------------------------------------------------


class TestPeakBufferRegression:
    def _measure(self, name, p, c, mode, nnz_per_row):
        m = n = 256
        r = 32
        S = erdos_renyi(m, n, nnz_per_row, seed=5)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((m, r))
        B = rng.standard_normal((n, r))
        alg = make_algorithm(name, p, c)
        _, _, rep_d = run_mode(alg, S, A, B, mode, sparse=False)
        alg_s = make_algorithm(name, p, c)
        plan = alg_s.plan(m, n, r)
        cplans = alg_s.build_comm_plans(plan, S)
        _, _, rep_s = run_mode(alg_s, S, A, B, mode, sparse=True)
        return alg_s, plan, cplans, rep_d, rep_s

    @pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
    def test_15d_sparse_peak_bounded_by_union(self, mode):
        """Sparse-mode peak panel bytes == union x sw per rank — i.e. no
        m-tall panel exists anywhere on the comm="sparse" path."""
        alg, plan, cplans, rep_d, rep_s = self._measure(
            "1.5d-sparse-shift", 8, 4, mode, nnz_per_row=2
        )
        for rank, prof in enumerate(rep_s.per_rank):
            u, v = alg.grid.coords(rank)
            sw = plan.strip_width(u)
            assert prof.peak_buffer_bytes == cplans[rank].index.size * sw * 8
            assert prof.peak_buffer_bytes < plan.m * sw * 8  # strictly sub-full-height
        # dense mode really does hold the full-height panel
        for rank, prof in enumerate(rep_d.per_rank):
            sw = plan.strip_width(alg.grid.coords(rank)[0])
            assert prof.peak_buffer_bytes >= plan.m * sw * 8

    @pytest.mark.parametrize(
        "mode",
        [
            Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B,
            "rank_fusedmm_none_a", "rank_fusedmm_none_b",
        ],
    )
    def test_25d_sparse_peak_bounded_by_unions(self, mode):
        """Above the third-slot budget (``SparsePlan25D.third_slot``;
        two nonzeros per row here) a rank holds exactly two strip panels —
        the A-side and the B-side one — whatever the kernel: an SDDMM
        gathers both, an SpMM gathers its input side and accumulates in
        the output side's slot, and a FusedMM keeps the SDDMM round's
        input-side panel for its SpMM round instead of leasing a third."""
        alg, plan, cplans, _, rep_s = self._measure(
            "2.5d-sparse-replicate", 8, 2, mode, nnz_per_row=2
        )
        for rank, prof in enumerate(rep_s.per_rank):
            cp = cplans[rank]
            panels = (cp.index_a.size + cp.index_b.size) * cp.strip_width * 8
            assert prof.peak_buffer_bytes == panels

    @pytest.mark.parametrize(
        "mode",
        [
            Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B,
            "rank_fusedmm_none_a", "rank_fusedmm_none_b",
        ],
    )
    def test_25d_sparse_peak_within_budget_is_three_panels(self, mode):
        """Inside the budget (one nonzero per row) an SpMM accumulates in
        a third slot as tall as the taller union, so a FusedMM holds
        exactly three strip panels, a single SpMM its input side's panel
        and the third, an SDDMM its two gathered panels — and never more
        than the dense path's pieces on the same call."""
        _, _, cplans, rep_d, rep_s = self._measure(
            "2.5d-sparse-replicate", 8, 2, mode, nnz_per_row=1
        )
        for prof_s, prof_d, cp in zip(rep_s.per_rank, rep_d.per_rank, cplans):
            assert cp.third_slot
            ua, ub = cp.index_a.size, cp.index_b.size
            rows = {
                Mode.SDDMM: ua + ub,
                Mode.SPMM_A: ub + max(ua, ub),
                Mode.SPMM_B: ua + max(ua, ub),
            }.get(mode, ua + ub + max(ua, ub))
            assert prof_s.peak_buffer_bytes == rows * cp.strip_width * 8
            assert prof_s.peak_buffer_bytes <= prof_d.peak_buffer_bytes

    @pytest.mark.parametrize("nnz_per_row", [1, 2])
    def test_15d_sparse_peak_halves_dense_at_low_phi(self, nnz_per_row):
        """The acceptance bar: >= 50% peak-buffer reduction at phi <= 0.05."""
        phi, rep_d, rep_s = sweep_dense_vs_sparse(nnz_per_row, *SWEEP_SPARSE_SHIFT)
        assert phi <= 0.05
        assert rep_s.peak_buffer_bytes <= 0.5 * rep_d.peak_buffer_bytes

    @pytest.mark.parametrize("nnz_per_row", SWEEP_NNZ_PER_ROW)
    def test_15d_sparse_peak_never_exceeds_dense(self, nnz_per_row):
        """The packed panel grows to the full-height one as phi -> 0.5
        (every row needed) and stops there."""
        _, rep_d, rep_s = sweep_dense_vs_sparse(nnz_per_row, *SWEEP_SPARSE_SHIFT)
        assert rep_s.peak_buffer_bytes <= rep_d.peak_buffer_bytes

    @pytest.mark.parametrize(
        "nnz_per_row",
        SWEEP_NNZ_PER_ROW[:2]
        + [
            pytest.param(k, marks=pytest.mark.xfail(strict=True, reason="ROADMAP 3(b)"))
            for k in SWEEP_NNZ_PER_ROW[2:]
        ],
    )
    def test_25d_sparse_peak_never_exceeds_dense(self, nnz_per_row):
        """Known defect, pinned strict so its fix must flip it.  The
        packed path holds two ``r/c``-wide panels of union height, the
        dense path three ``r/(cq)``-wide block-tall pieces: with q = 2
        the ratio is 4/3 of the coverage, so it passes while the unions
        stay under 3/4 of their blocks (phi <= 0.03 here) and tops out at
        4/3 once every row is needed.  What is left is staging the
        non-held side in ``r/(cq)`` chunks."""
        _, rep_d, rep_s = sweep_dense_vs_sparse(
            nnz_per_row, *SWEEP_SPARSE_REPLICATE
        )
        assert rep_s.peak_buffer_bytes <= rep_d.peak_buffer_bytes


# ----------------------------------------------------------------------
# buffer pool + observability
# ----------------------------------------------------------------------


class TestBufferPool:
    def test_reuses_slot_for_same_shape(self):
        pool = BufferPool()
        a = pool.zeros("x", (4, 3))
        b = pool.zeros("x", (4, 3))
        assert a is b

    def test_reallocates_on_shape_change_without_corrupting_old(self):
        pool = BufferPool()
        a = pool.empty("x", (2, 2))
        a[:] = 7.0
        b = pool.empty("x", (3, 2))
        assert a is not b
        np.testing.assert_allclose(a, 7.0)  # old buffer stays a valid array

    def test_take_like_copies_contents(self):
        pool = BufferPool()
        src = np.arange(6.0).reshape(2, 3)
        buf = pool.take_like("y", src)
        np.testing.assert_allclose(buf, src)
        assert buf is not src

    def test_reports_peak_to_profile(self):
        prof = RankProfile()
        pool = BufferPool(profile=prof)
        pool.zeros("a", (8, 8))
        pool.zeros("b", (4, 4))
        assert prof.peak_buffer_bytes == (64 + 16) * 8
        pool.zeros("a", (2, 2))  # shrinking never lowers the recorded peak
        assert prof.peak_buffer_bytes == (64 + 16) * 8


class TestObservability:
    def test_report_carries_comm_mode_and_peak(self, rng):
        S = erdos_renyi(64, 64, 2, seed=1)
        A = rng.standard_normal((64, 8))
        B = rng.standard_normal((64, 8))
        for comm in ("dense", "sparse"):
            _, rep = repro.sddmm(
                S, A, B, p=4, c=2, algorithm="1.5d-sparse-shift", comm=comm
            )
            assert rep.comm_mode == comm
            assert rep.peak_buffer_bytes > 0
            assert "comm mode" in rep.summary()
            assert "peak buffers" in rep.summary()

    def test_auto_mode_resolution_is_observable(self, rng):
        S = erdos_renyi(512, 512, 2, seed=2)
        A = rng.standard_normal((512, 64))
        B = rng.standard_normal((512, 64))
        _, rep = repro.spmm_a(S, B, p=8, c=4, algorithm="1.5d-sparse-shift", comm="auto")
        assert rep.comm_mode in ("dense", "sparse")


# ----------------------------------------------------------------------
# cost model memory term
# ----------------------------------------------------------------------


class TestMemoryTerm:
    def test_15d_packed_buffer_shrinks_at_low_phi(self):
        key = "1.5d-sparse-shift/replication-reuse"
        dense = fusedmm_buffer_words(key, 4096, 64, 8, 4, 0.03, sparse_comm=False)
        sparse = fusedmm_buffer_words(key, 4096, 64, 8, 4, 0.03, sparse_comm=True)
        assert sparse < 0.5 * dense

    def test_25d_packed_buffer_can_exceed_dense(self):
        """Strip-wide packed panels vs piece-sized ring buffers: at high
        coverage the sparse path costs MORE memory — the term the
        comm-mode policy needs."""
        key = "2.5d-sparse-replicate/none"
        dense = fusedmm_buffer_words(key, 1024, 16, 16, 4, 2.0, sparse_comm=False)
        sparse = fusedmm_buffer_words(key, 1024, 16, 16, 4, 2.0, sparse_comm=True)
        assert sparse > dense

    def test_choose_comm_mode_still_prefers_sparse_when_hypersparse(self):
        assert choose_comm_mode("1.5d-sparse-shift", 4096, 64, 2 * 4096, 8, 4) == "sparse"

    def test_memory_weight_can_steer_25d_to_dense(self):
        """The 2.5D sparse path's strip-wide panels cost memory the dense
        ring does not; raising the memory weight must be able to flip a
        traffic-favored sparse pick back to dense."""
        n, r, p, c = 256, 16, 16, 4
        nnz = 64 * n  # saturated: coverage ~ 1, 4x dense-path footprint
        args = ("2.5d-sparse-replicate", n, r, nnz, p, c)
        assert choose_comm_mode(*args, memory_weight=0.0) == "sparse"
        assert choose_comm_mode(*args, memory_weight=50.0) == "dense"
