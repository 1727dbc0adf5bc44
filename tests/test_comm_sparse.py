"""Tests for the sparse-aware communication subsystem.

Covers the three layers of :mod:`repro.comm_sparse` — plan accounting,
neighborhood collectives, need-list planners — plus the generic
``alltoallv`` primitive, the plan cache, and the contract that a
:class:`CommPlan`'s static word counts equal the traffic a
:class:`RankProfile` measures during real kernel runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_FIBER_AG
from repro.algorithms.registry import make_algorithm
from repro.comm_sparse import (
    CommPlan,
    PackedIndex,
    PeerExchange,
    clear_plan_cache,
    plan_cache_stats,
    plan_sparse_replicate_25d,
    plan_sparse_shift_15d,
)
from repro.comm_sparse.collectives import (
    sparse_allgatherv_packed,
    sparse_reduce_scatterv_packed,
)
from repro.errors import CommError
from repro.runtime.spmd import run_spmd
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi
from repro.sparse.partition import block_of, partition_coo_2d
from repro.types import Mode, Phase


def ix(*vals):
    return np.asarray(vals, dtype=np.int64)


# ----------------------------------------------------------------------
# plan accounting
# ----------------------------------------------------------------------


class TestCommPlan:
    def make_plan(self):
        peers = (
            PeerExchange(peer=1, send_rows=ix(0, 2), recv_rows=ix(1), send_width=4, recv_width=4),
            PeerExchange(peer=2, send_rows=ix(), recv_rows=ix(3, 4, 5), send_width=4, recv_width=2),
        )
        return CommPlan(key="test", size=3, rank=0, peers=peers)

    def test_word_counts(self):
        plan = self.make_plan()
        assert plan.send_words() == 2 * 4
        assert plan.recv_words() == 1 * 4 + 3 * 2
        assert plan.send_messages() == 1  # empty leg to peer 2 is skipped
        assert plan.recv_messages() == 2

    def test_reversed_swaps_roles(self):
        plan = self.make_plan()
        rev = plan.reversed()
        assert rev.send_words() == plan.recv_words()
        assert rev.recv_words() == plan.send_words()
        assert rev.send_messages() == plan.recv_messages()
        # double reversal is the identity on the accounting
        assert rev.reversed().recv_words() == plan.recv_words()

    def test_self_peer_rejected(self):
        bad = PeerExchange(peer=0, send_rows=ix(0), recv_rows=ix(0), send_width=1, recv_width=1)
        with pytest.raises(CommError):
            CommPlan(key="bad", size=2, rank=0, peers=(bad,))

    def test_out_of_range_peer_rejected(self):
        bad = PeerExchange(peer=5, send_rows=ix(), recv_rows=ix(), send_width=1, recv_width=1)
        with pytest.raises(CommError):
            CommPlan(key="bad", size=2, rank=0, peers=(bad,))


# ----------------------------------------------------------------------
# alltoallv primitive
# ----------------------------------------------------------------------


class TestAlltoallv:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_values(self, p):
        def body(comm):
            bufs = [np.array([comm.rank * 100 + k]) for k in range(p)]
            got = comm.alltoallv(bufs)
            return [int(g[0]) for g in got]

        results, _ = run_spmd(p, body)
        for r in range(p):
            assert results[r] == [src * 100 + r for src in range(p)]

    def test_traffic_is_sum_of_addressed_blocks(self):
        p = 4

        def body(comm):
            # rank s sends a block of (dest + 1) words to each dest
            bufs = [np.zeros(k + 1) for k in range(p)]
            with comm.profile.track(Phase.PROPAGATION):
                comm.alltoallv(bufs)

        _, report = run_spmd(p, body)
        for r, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.words_received == (p - 1) * (r + 1)
            assert ctr.messages_received == p - 1

    def test_wrong_buffer_count_raises(self):
        def body(comm):
            with pytest.raises(CommError):
                comm.alltoallv([np.zeros(1)])

        run_spmd(2, body)


# ----------------------------------------------------------------------
# neighborhood collectives on hand-built plans
# ----------------------------------------------------------------------


def star_plans(p, width):
    """Every rank needs row ``k`` of peer ``k``'s 2-row buffer."""
    plans = []
    for r in range(p):
        peers = tuple(
            PeerExchange(
                peer=k,
                send_rows=ix(r % 2),
                recv_rows=ix(k),
                send_width=width,
                recv_width=width,
            )
            for k in range(p)
            if k != r
        )
        plans.append(CommPlan(key="star", size=p, rank=r, peers=peers))
    return plans


def whole(p):
    """The identity packing: every one of ``p`` rows is in the union, so
    packed positions are the plan's own row ids."""
    return PackedIndex.from_rows(np.arange(p), p)


class TestSparseCollectives:
    """The packed collectives on hand-built star plans."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_allgatherv_places_needed_rows(self, p):
        width = 3
        plans = star_plans(p, width)

        def body(comm):
            r = comm.rank
            mine = np.stack([np.full(width, 10.0 * r), np.full(width, 10.0 * r + 1)])
            out = np.zeros((p, width))
            out[r] = mine[r % 2]
            sparse_allgatherv_packed(comm, plans[r], whole(p), mine, out)
            return out

        results, _ = run_spmd(p, body)
        for r in range(p):
            for k in range(p):
                np.testing.assert_allclose(results[r][k], np.full(width, 10.0 * k + (k % 2)))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_reduce_scatterv_sums_contributions(self, p):
        width = 2
        plans = star_plans(p, width)

        def body(comm):
            r = comm.rank
            # contrib[k] is this rank's partial for row k's owner; the
            # reversed star plan ships contrib[k] to owner k and sums the
            # incoming contributions onto this rank's own partial
            contrib = np.arange(p * width, dtype=float).reshape(p, width) + 100.0 * r
            out = np.zeros((2, width))
            out[r % 2] = contrib[r]
            sparse_reduce_scatterv_packed(
                comm, plans[r].reversed(), whole(p), contrib, out
            )
            return out[r % 2]

        results, _ = run_spmd(p, body)
        for r in range(p):
            row = np.arange(r * width, (r + 1) * width, dtype=float)
            total = sum(row + 100.0 * src for src in range(p))
            np.testing.assert_allclose(results[r], total)

    def test_plan_comm_mismatch_raises(self):
        plans = star_plans(3, 1)

        def body(comm):
            with pytest.raises(CommError):
                sparse_allgatherv_packed(
                    comm, plans[(comm.rank + 1) % 3], whole(3),
                    np.zeros((2, 1)), np.zeros((3, 1)),
                )

        run_spmd(3, body)

    def test_send_width_is_checked_before_the_rows_are_gathered(self):
        """A plan whose width disagrees with the send window is refused
        before any block is built: the leg's rows are out of range here,
        so gathering first would die of an IndexError instead."""
        px = PeerExchange(
            peer=1, send_rows=ix(7), recv_rows=ix(), send_width=3, recv_width=3
        )
        plan = CommPlan(key="narrow", size=2, rank=0, peers=(px,))

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(CommError, match="send width 2 != planned 3"):
                    sparse_allgatherv_packed(
                        comm, plan, whole(2), np.zeros((2, 2)), np.zeros((2, 2))
                    )

        run_spmd(2, body)

    def test_whole_panel_legs_move_by_slice_bitwise(self):
        """Legs flagged as the whole panel (sliced column-window moves)
        fill and reduce exactly as the same legs unflagged (fancy-indexed
        moves)."""
        h, w = 5, 3  # panel height; per-rank column window width
        idx = whole(h)

        def gather_plan(rank, flagged):
            peer = 1 - rank
            px = PeerExchange(
                peer=peer, send_rows=np.arange(h), recv_rows=np.arange(h),
                send_width=w, recv_width=w, recv_cols=(peer * w, (peer + 1) * w),
                recv_whole=flagged,
            )
            return CommPlan(key="g", size=2, rank=rank, peers=(px,))

        def body(comm, flagged):
            r = comm.rank
            gather = gather_plan(r, flagged)
            reduce = gather.reversed()
            assert reduce.peers[0].send_whole == flagged
            mine = np.random.default_rng(r).standard_normal((h, w))
            panel = np.empty((h, 2 * w))
            panel[:, r * w : (r + 1) * w] = mine
            sparse_allgatherv_packed(comm, gather, idx, mine, panel)
            base = mine.copy()
            sparse_reduce_scatterv_packed(comm, reduce, idx, panel * (r + 2), base)
            return panel, base

        sliced, _ = run_spmd(2, lambda comm: body(comm, True))
        fancy, _ = run_spmd(2, lambda comm: body(comm, False))
        for (p_s, b_s), (p_f, b_f) in zip(sliced, fancy):
            np.testing.assert_array_equal(p_s, p_f)
            np.testing.assert_array_equal(b_s, b_f)

    def test_empty_legs_send_no_messages(self):
        p = 3
        empty = [
            CommPlan(
                key="empty",
                size=p,
                rank=r,
                peers=tuple(
                    PeerExchange(peer=k, send_rows=ix(), recv_rows=ix(), send_width=5, recv_width=5)
                    for k in range(p)
                    if k != r
                ),
            )
            for r in range(p)
        ]

        def body(comm):
            with comm.profile.track(Phase.REPLICATION):
                sparse_allgatherv_packed(
                    comm, empty[comm.rank], whole(p),
                    np.zeros((1, 5)), np.zeros((3, 5)),
                )
            return comm.profile.total().messages_received

        results, _ = run_spmd(p, body)
        assert results == [0] * p


# ----------------------------------------------------------------------
# planners
# ----------------------------------------------------------------------


class TestPlanner15D:
    def setup_method(self):
        self.S = erdos_renyi(40, 52, 3, seed=11)
        self.alg = make_algorithm("1.5d-sparse-shift", 8, 4)
        self.plan = self.alg.plan(40, 52, 12)
        self.cplans = plan_sparse_shift_15d(self.plan, self.S)

    def test_need_lists_cover_layer_rows(self):
        """Every row a layer's nonzeros touch is either owned or received."""
        c = 4
        layer_v = block_of(self.S.cols, self.plan.col_fine) % c
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            needed = np.unique(self.S.rows[layer_v == v])
            owned = self.plan.rows_a_of_fiber[v]
            # a leg receives packed positions of the layer's union
            received = np.concatenate(
                [cp.index.union[px.recv_rows] for px in cp.gather.peers] or [ix()]
            )
            covered = np.union1d(owned, received)
            assert np.all(np.isin(needed, covered))

    def test_send_recv_legs_are_globally_consistent(self):
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            for px in cp.gather.peers:
                peer_rank = self.alg.grid.rank_of(u, px.peer)
                peer_leg = next(
                    q for q in self.cplans[peer_rank].gather.peers if q.peer == v
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)
                assert px.recv_width == peer_leg.send_width

    def test_reduce_is_gather_mirror(self):
        for cp in self.cplans:
            assert cp.reduce.recv_words() == cp.gather.send_words()
            assert cp.reduce.send_words() == cp.gather.recv_words()

    def test_moves_fewer_words_than_dense_ring(self):
        for rank, cp in enumerate(self.cplans):
            u, v = self.alg.grid.coords(rank)
            sw = self.plan.strip_width(u)
            dense = sum(
                len(self.plan.rows_a_of_fiber[w]) * sw for w in range(4) if w != v
            )
            assert cp.gather.recv_words() <= dense


class TestPlanner25D:
    def setup_method(self):
        self.S = erdos_renyi(36, 30, 2, seed=13)
        self.alg = make_algorithm("2.5d-sparse-replicate", 8, 2)
        self.plan = self.alg.plan(36, 30, 10)
        self.cplans = plan_sparse_replicate_25d(self.plan, self.S)

    def test_windows_tile_the_strip(self):
        for rank, cp in enumerate(self.cplans):
            x, y, z = self.alg.grid.coords(rank)
            windows = [cp.my_window] + [px.recv_cols for px in cp.gather_a.peers]
            windows.sort()
            assert windows[0][0] == 0
            assert windows[-1][1] == cp.strip_width
            for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
                assert a1 == b0

    def test_send_recv_legs_are_globally_consistent(self):
        q = self.alg.grid.q
        for rank, cp in enumerate(self.cplans):
            x, y, z = self.alg.grid.coords(rank)
            for px in cp.gather_a.peers:
                peer_rank = self.alg.grid.rank_of(x, px.peer, z)
                peer_leg = next(
                    pq for pq in self.cplans[peer_rank].gather_a.peers if pq.peer == y
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)
            for px in cp.gather_b.peers:
                peer_rank = self.alg.grid.rank_of(px.peer, y, z)
                peer_leg = next(
                    pq for pq in self.cplans[peer_rank].gather_b.peers if pq.peer == x
                )
                assert len(px.recv_rows) == len(peer_leg.send_rows)

    def test_fiber_replicas_share_need_lists(self):
        """Plans differ across z only in chunk windows, not in row sets."""
        g = self.alg.grid
        for x in range(g.q):
            for y in range(g.q):
                p0 = self.cplans[g.rank_of(x, y, 0)]
                p1 = self.cplans[g.rank_of(x, y, 1)]
                np.testing.assert_array_equal(p0.index_a.union, p1.index_a.union)
                for a, b in zip(p0.gather_a.peers, p1.gather_a.peers):
                    np.testing.assert_array_equal(a.send_rows, b.send_rows)
                    np.testing.assert_array_equal(a.recv_rows, b.recv_rows)

    def test_need_lists_are_each_blocks_unique_coordinates(self):
        """Counted (``bincount``), not sorted: the same arrays ``np.unique``
        gives, dtype included."""
        parts = partition_coo_2d(
            self.S.rows, self.S.cols, self.S.vals,
            self.plan.row_coarse, self.plan.col_coarse,
        )
        for rank, cp in enumerate(self.cplans):
            x, y, _ = self.alg.grid.coords(rank)
            br, bc, _, _ = parts.get((x, y), (ix(), ix(), None, None))
            for index, coords in ((cp.index_a, br), (cp.index_b, bc)):
                assert index.union.dtype == np.unique(coords).dtype
                np.testing.assert_array_equal(index.union, np.unique(coords))


class TestPlanCache:
    def test_build_is_amortized(self):
        clear_plan_cache()
        S = erdos_renyi(30, 30, 2, seed=3)
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        first = alg.build_comm_plans(plan, S)
        again = alg.build_comm_plans(plan, S)
        assert again is first  # cache hit returns the same plan objects
        stats = plan_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_structure_change_misses(self):
        clear_plan_cache()
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        a = alg.build_comm_plans(plan, erdos_renyi(30, 30, 2, seed=3))
        b = alg.build_comm_plans(plan, erdos_renyi(30, 30, 2, seed=4))
        assert a is not b

    def test_values_do_not_matter(self):
        clear_plan_cache()
        S = erdos_renyi(30, 30, 2, seed=3)
        S2 = S.with_values(np.arange(S.nnz, dtype=float))
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        plan = alg.plan(30, 30, 8)
        assert alg.build_comm_plans(plan, S2) is alg.build_comm_plans(plan, S)


# ----------------------------------------------------------------------
# plan word counts == measured RankProfile traffic
# ----------------------------------------------------------------------


def run_mode(alg, plan, S, A, B, mode, cplans):
    locals_ = alg.distribute(plan, S, A, B)

    def body(comm):
        ctx = alg.make_context(comm)
        alg.rank_kernel(ctx, plan, locals_[comm.rank], mode, sparse_plan=cplans[comm.rank])

    return run_spmd(alg.p, body)


class TestPlanMatchesMeasuredTraffic:
    @pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
    def test_15d_replication_traffic(self, mode):
        m, n, r = 44, 60, 12
        S = erdos_renyi(m, n, 3, seed=9)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        alg = make_algorithm("1.5d-sparse-shift", 8, 4)
        plan = alg.plan(m, n, r)
        cplans = alg.build_comm_plans(plan, S)
        _, report = run_mode(alg, plan, S, A, B, mode, cplans)
        for rank, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.REPLICATION]
            expect = cplans[rank].kernel_recv_words[mode.value]
            assert ctr.words_received == expect
            cplan = cplans[rank].reduce if mode == Mode.SPMM_A else cplans[rank].gather
            assert ctr.messages_received == cplan.recv_messages()

    @pytest.mark.parametrize("mode", [Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B])
    def test_25d_propagation_traffic(self, mode):
        m, n, r = 38, 46, 8
        S = erdos_renyi(m, n, 2, seed=21)
        rng = np.random.default_rng(1)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        alg = make_algorithm("2.5d-sparse-replicate", 18, 2)
        plan = alg.plan(m, n, r)
        cplans = alg.build_comm_plans(plan, S)
        _, report = run_mode(alg, plan, S, A, B, mode, cplans)
        for rank, prof in enumerate(report.per_rank):
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.words_received == cplans[rank].kernel_recv_words[mode.value]


# ----------------------------------------------------------------------
# need-list 2.5D FusedMM: each dense operand is gathered once per call
# ----------------------------------------------------------------------

FUSED_25D = "2.5d-sparse-replicate"


def _fused_25d_problem(seed=21, m=38, n=46, r=8):
    S = erdos_renyi(m, n, 2, seed=seed)
    rng = np.random.default_rng(seed)
    return S, rng.standard_normal((m, r)), rng.standard_normal((n, r))


class TestFused25DGathersOnce:
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_fused_traffic_is_two_gathers_and_one_reduce(self, side):
        """Per rank, a need-list FusedMM receives exactly the A gather, the
        B gather and the output side's reduction — the SpMM round does not
        fetch its input side again.  The standalone kernels move what
        their plans say on a fresh session.  On the fused call's session
        they skip the gather of the SpMM's input side, whose panel an
        earlier dispatch stored (``BufferPool.replica``); this problem is
        above the third-slot budget, so the SpMM's output panel took its
        own side's gather slot and dropped that side's panel."""
        S, A, B = _fused_25d_problem()
        p, c = 18, 2
        alg = make_algorithm(FUSED_25D, p, c)
        cplans = alg.build_comm_plans(alg.plan(*S.shape, A.shape[1]), S)
        kw = dict(p=p, c=c, algorithm=FUSED_25D, comm="sparse")

        def sddmm(sess):
            return sess.sddmm(A, B)[1]

        def spmm(sess):
            return (sess.spmm_a(B) if side == "a" else sess.spmm_b(A))[1]

        with repro.plan(S, A.shape[1], **kw) as sess:
            fused = sess.fusedmm_a if side == "a" else sess.fusedmm_b
            _, rep_fused = fused(A, B)
            warm = []
            for kernel in (sddmm, spmm):
                # a report is a live view of the window since reset_profile
                sess.reset_profile()
                warm.append(kernel(sess))
        cold = []
        for kernel in (sddmm, spmm):
            with repro.plan(S, A.shape[1], **kw) as fresh:
                cold.append(kernel(fresh))

        def propagation(rep, rank):
            return rep.per_rank[rank].counters[Phase.PROPAGATION]

        for rank, cp in enumerate(cplans):
            reduce = cp.reduce_a if side == "a" else cp.reduce_b
            legs = (cp.gather_a, cp.gather_b, reduce)
            ctr = propagation(rep_fused, rank)
            assert ctr.words_received == sum(leg.recv_words() for leg in legs)
            assert ctr.messages_received == sum(leg.recv_messages() for leg in legs)
            # the un-fused pair gathers the SpMM's input side twice
            words = cp.kernel_recv_words
            kernels = ("sddmm", f"spmm_{side}")
            for kernel, rep in zip(kernels, cold):
                assert propagation(rep, rank).words_received == words[kernel]
            # the fused call's output panel dropped its own side's panel,
            # so the next call gathers that side again; the other side's
            # panel serves both later calls
            kept = cp.gather_b if side == "a" else cp.gather_a
            for kernel, rep in zip(kernels, warm):
                assert (
                    propagation(rep, rank).words_received
                    == words[kernel] - kept.recv_words()
                )

    @pytest.mark.parametrize(
        "p,c", [(8, 2), (4, 1), (9, 1), (18, 2), (16, 1), (12, 3)]
    )
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_fused_is_bitwise_the_unelided_sequence(self, side, p, c):
        """Reusing the SDDMM round's panel changes no bit: the fused call
        equals ``rank_kernel(SDDMM)`` -> value all-gather ->
        ``rank_kernel(SPMM_*, values_full=...)``, which gathers the input
        side again, on the same locals.  q = 3 gives multi-peer legs whose
        send side is not the whole panel; c > 1 all-gathers the values
        over a fiber between the two rounds."""
        S, A, B = _fused_25d_problem(seed=5 + p)
        mode = Mode.SPMM_A if side == "a" else Mode.SPMM_B

        def run(fused):
            alg = make_algorithm(FUSED_25D, p, c)
            plan = alg.plan(*S.shape, A.shape[1])
            locals_ = alg.distribute(plan, S, A, B)
            cplans = alg.build_comm_plans(plan, S)

            def body(comm):
                ctx = alg.make_context(comm)
                local, sp = locals_[comm.rank], cplans[comm.rank]
                if fused:
                    getattr(alg, f"rank_fusedmm_none_{side}")(
                        ctx, plan, local, sparse_plan=sp
                    )
                    return
                alg.rank_kernel(ctx, plan, local, Mode.SDDMM, sparse_plan=sp)
                parts = ctx.fiber.allgather(local.R_chunk, tag=TAG_FIBER_AG)
                alg.rank_kernel(
                    ctx, plan, local, mode, values_full=np.concatenate(parts),
                    sparse_plan=sp,
                )

            run_spmd(p, body)
            collect = alg.collect_dense_a if side == "a" else alg.collect_dense_b
            return collect(plan, locals_), alg.collect_sddmm(plan, locals_, S).vals

        (out_f, vals_f), (out_u, vals_u) = run(True), run(False)
        np.testing.assert_array_equal(out_f, out_u)
        np.testing.assert_array_equal(vals_f, vals_u)

    def test_held_panel_does_not_outlive_its_call(self, rng):
        """New values and a rebound operand between two fused calls on one
        session: the second call equals a fresh session's, bit for bit —
        nothing gathered by the first call is read by the second."""
        S, A, B = _fused_25d_problem(seed=13)
        vals2 = rng.standard_normal(S.nnz)
        A2, B2 = rng.standard_normal(A.shape), rng.standard_normal(B.shape)
        kw = dict(p=8, c=2, algorithm=FUSED_25D, comm="sparse")
        with repro.plan(S, A.shape[1], **kw) as sess:
            sess.fusedmm_a(A, B)
            sess.update_values(vals2)
            got_a, _ = sess.fusedmm_a(A, B2)
            got_b, _ = sess.fusedmm_b(A2, B2)
        with repro.plan(S.with_values(vals2), A.shape[1], **kw) as fresh:
            want_a, _ = fresh.fusedmm_a(A, B2)
        with repro.plan(S.with_values(vals2), A.shape[1], **kw) as fresh:
            want_b, _ = fresh.fusedmm_b(A2, B2)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)

    def test_held_panel_is_call_local(self):
        """The panel travels as a local of the fused procedure: after the
        call neither the algorithm object nor the rank context holds an
        array (the pool keeps its two slots)."""
        S, A, B = _fused_25d_problem()
        alg = make_algorithm(FUSED_25D, 8, 2)
        plan = alg.plan(*S.shape, A.shape[1])
        locals_ = alg.distribute(plan, S, A, B)
        cplans = alg.build_comm_plans(plan, S)
        before = set(vars(alg))

        def body(comm):
            ctx = alg.make_context(comm)
            alg.rank_fusedmm_none_a(
                ctx, plan, locals_[comm.rank], sparse_plan=cplans[comm.rank]
            )
            assert not any(isinstance(v, np.ndarray) for v in vars(ctx).values())
            return sorted(ctx.pool._slots)

        slots, _ = run_spmd(8, body)
        assert set(vars(alg)) == before
        assert not any(isinstance(v, np.ndarray) for v in vars(alg).values())
        assert all(s == ["gather-a", "gather-b"] for s in slots)
