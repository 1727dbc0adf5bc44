"""Tests for the communication/compute overlap pipeline.

Covers the three layers of the feature:

* runtime primitives — nonblocking ``ishift``/``irecv``/``iallgather``
  handles, hidden-time accounting, and the ``BufferPool`` double-buffer
  lease / no-aliasing invariants;
* the software-pipelined phase loops of all four algorithm families —
  ``overlap="on"`` must be **bitwise identical** to ``overlap="off"``
  across kernels, elisions, communication modes and grids;
* the worker pool's second dispatch slot and the session's cross-call
  pipeline — including abort/recovery with an exchange in flight.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.registry import make_algorithm
from repro.errors import CommError, ReproError
from repro.model.costs import fusedmm_cost, fusedmm_time_overlap, overlap_gain_seconds
from repro.runtime.buffers import BufferLeaseError, BufferPool
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import WorkerPool, run_spmd
from repro.types import Elision, Mode, Phase

from tests.conftest import require_world_size
from helpers import dist_sddmm, dist_spmm_a, dist_spmm_b

#: (family, p, c, comm modes with a real path, elisions)
FAMILIES = [
    ("1.5d-dense-shift", 8, 2, ("dense",),
     (Elision.NONE, Elision.REPLICATION_REUSE, Elision.LOCAL_KERNEL_FUSION)),
    ("1.5d-dense-shift", 4, 4, ("dense",), (Elision.REPLICATION_REUSE,)),
    ("1.5d-sparse-shift", 8, 4, ("dense", "sparse"),
     (Elision.NONE, Elision.REPLICATION_REUSE)),
    ("1.5d-sparse-shift", 8, 2, ("sparse",), (Elision.REPLICATION_REUSE,)),
    ("2.5d-dense-replicate", 8, 2, ("dense",),
     (Elision.NONE, Elision.REPLICATION_REUSE)),
    ("2.5d-sparse-replicate", 8, 2, ("dense", "sparse"), (Elision.NONE,)),
    ("2.5d-sparse-replicate", 16, 4, ("sparse",), (Elision.NONE,)),
    # q = 1 (what `auto` picks on small sparse problems): no propagation
    ("2.5d-sparse-replicate", 4, 4, ("dense", "sparse"), (Elision.NONE,)),
    ("2.5d-sparse-replicate", 8, 8, ("dense", "sparse"), (Elision.NONE,)),
]


def _alg(name, p, c, overlap):
    alg = make_algorithm(name, p, c)
    alg.overlap = overlap
    return alg


# ----------------------------------------------------------------------
# bitwise equivalence: overlap on == overlap off
# ----------------------------------------------------------------------


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name,p,c,comms,elisions", FAMILIES)
    def test_fused_bitwise_across_modes(
        self, name, p, c, comms, elisions, small_problem
    ):
        S, A, B = small_problem
        for comm in comms:
            for elision in elisions:
                for fused in (repro.fusedmm_a, repro.fusedmm_b):
                    out_off, R_off, _ = fused(
                        S, A, B, p=p, c=c, algorithm=name, elision=elision,
                        comm=comm, overlap="off", collect_sddmm=True,
                    )
                    out_on, R_on, _ = fused(
                        S, A, B, p=p, c=c, algorithm=name, elision=elision,
                        comm=comm, overlap="on", collect_sddmm=True,
                    )
                    assert np.array_equal(out_off, out_on), (
                        name, comm, elision, fused.__name__,
                    )
                    assert np.array_equal(R_off.vals, R_on.vals)

    @pytest.mark.parametrize("name,p,c", [
        ("1.5d-dense-shift", 8, 2),
        ("1.5d-sparse-shift", 8, 4),
        ("2.5d-dense-replicate", 8, 2),
        ("2.5d-sparse-replicate", 8, 2),
        ("2.5d-sparse-replicate", 4, 4),
        ("2.5d-sparse-replicate", 8, 8),
    ])
    def test_single_kernels_bitwise(self, name, p, c, small_problem):
        S, A, B = small_problem
        for ov in (False, True):
            out = dist_sddmm(_alg(name, p, c, ov), S, A, B)
            if not ov:
                ref_sddmm = out
            else:
                assert np.array_equal(ref_sddmm.vals, out.vals)
        for ov in (False, True):
            out = dist_spmm_a(_alg(name, p, c, ov), S, B)
            if not ov:
                ref_a = out
            else:
                assert np.array_equal(ref_a, out)
        for ov in (False, True):
            out = dist_spmm_b(_alg(name, p, c, ov), S, A)
            if not ov:
                ref_b = out
            else:
                assert np.array_equal(ref_b, out)

    def test_sparse_comm_single_kernels_bitwise(self, small_problem):
        """Packed-plan kernels: async exchanges must place identically."""
        S, A, B = small_problem
        for name, p, c in (("1.5d-sparse-shift", 8, 4),
                           ("2.5d-sparse-replicate", 8, 2),
                           ("2.5d-sparse-replicate", 4, 4),
                           ("2.5d-sparse-replicate", 8, 8)):
            ref = {}
            for ov in (False, True):
                alg = _alg(name, p, c, ov)
                plan = alg.plan(S.nrows, S.ncols, A.shape[1])
                sparse_plans = alg.build_comm_plans(plan, S)
                for mode, args in ((Mode.SDDMM, (A, B)),
                                   (Mode.SPMM_A, (None, B)),
                                   (Mode.SPMM_B, (A, None))):
                    locals_ = alg.distribute(plan, S, *args)

                    def body(comm):
                        ctx = alg.make_context(comm)
                        alg.rank_kernel(
                            ctx, plan, locals_[comm.rank], mode,
                            sparse_plan=sparse_plans[comm.rank],
                        )

                    run_spmd(p, body)
                    if mode == Mode.SDDMM:
                        out = alg.collect_sddmm(plan, locals_, S).vals
                    elif mode == Mode.SPMM_A:
                        out = alg.collect_dense_a(plan, locals_)
                    else:
                        out = alg.collect_dense_b(plan, locals_)
                    if not ov:
                        ref[mode] = out
                    else:
                        assert np.array_equal(ref[mode], out), (name, mode)

    def test_session_overlap_knob_bitwise(self, small_problem, exec_backend):
        require_world_size(exec_backend, 8)
        S, A, B = small_problem
        outs = {}
        for ov in ("off", "on"):
            with repro.plan(
                S, A.shape[1], p=8, c=4, algorithm="1.5d-sparse-shift",
                elision="replication-reuse", comm="sparse", overlap=ov,
                backend=exec_backend,
            ) as sess:
                outs[ov] = [sess.fusedmm_b(A, B)[0] for _ in range(3)]
        for x, y in zip(outs["off"], outs["on"]):
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# nonblocking primitives
# ----------------------------------------------------------------------


class TestNonblockingPrimitives:
    def test_ishift_matches_shift(self):
        def body(comm):
            payload = np.full((4, 3), float(comm.rank))
            sync = comm.shift(payload, displacement=1, tag=7)
            pend = comm.ishift(payload, displacement=1, tag=8)
            return sync, pend.wait()

        results, _ = run_spmd(4, body)
        for sync, overlapped in results:
            assert np.array_equal(sync, overlapped)

    def test_iallgather_matches_allgather_and_word_counts(self):
        def body(comm):
            mine = np.arange(3, dtype=float) + 10 * comm.rank
            with comm.profile.track(Phase.REPLICATION):
                ring = comm.allgather(mine, tag=21)
            ring_words = comm.profile.counters[Phase.REPLICATION].words_received
            with comm.profile.track(Phase.PROPAGATION):
                direct = comm.iallgather(mine, tag=22).wait()
            direct_words = comm.profile.counters[Phase.PROPAGATION].words_received
            assert ring_words == direct_words
            for a, b in zip(ring, direct):
                assert np.array_equal(a, b)

        run_spmd(4, body)

    def test_handle_waited_twice_raises(self):
        def body(comm):
            pend = comm.ishift(np.ones(2), displacement=1)
            pend.wait()
            with pytest.raises(CommError):
                pend.wait()

        run_spmd(2, body)

    def test_single_rank_ishift_isolates(self):
        def body(comm):
            x = np.ones(3)
            got = comm.ishift(x, displacement=1).wait()
            assert np.array_equal(got, x) and got is not x

        run_spmd(1, body)

    def test_hidden_time_recorded_behind_compute(self):
        """A deferred wait attributes in-flight transfer time as hidden."""
        import time as _time

        def body(comm):
            with comm.profile.track(Phase.PROPAGATION):
                pend = comm.ishift(np.ones(8), displacement=1, tag=5)
            _time.sleep(0.02)  # "compute" while the message is in flight
            with comm.profile.track(Phase.PROPAGATION):
                pend.wait()

        _, report = run_spmd(2, body)
        assert report.hidden_comm_seconds > 0.0
        # hidden time never exceeds the post-to-wait window we created
        assert report.hidden_comm_seconds < 1.0


# ----------------------------------------------------------------------
# BufferPool double-buffer leases
# ----------------------------------------------------------------------


class TestBufferPoolLeases:
    def test_lease_reuses_first_slot_when_idle(self):
        pool = BufferPool()
        a = pool.lease("panel", (4, 4))
        b = pool.lease("panel", (4, 4))
        assert a is b  # steady-state footprint identical to plain empty()

    def test_lease_rotates_past_in_flight_slot(self):
        pool = BufferPool()
        a = pool.guard(pool.lease("panel", (4, 4)))
        b = pool.lease("panel", (4, 4))
        assert b is not a
        assert not np.shares_memory(a, b)

    def test_acquiring_guarded_slot_raises(self):
        pool = BufferPool()
        pool.guard(pool.lease("panel", (4, 4)))
        with pytest.raises(BufferLeaseError):
            pool.empty("panel@0", (4, 4))

    def test_both_slots_in_flight_raises(self):
        pool = BufferPool()
        pool.guard(pool.lease("panel", (4, 4)))
        pool.guard(pool.lease("panel", (4, 4)))
        with pytest.raises(BufferLeaseError):
            pool.lease("panel", (4, 4))

    def test_release_returns_slot_to_rotation(self):
        pool = BufferPool()
        a = pool.guard(pool.lease("panel", (4, 4)))
        pool.release(a)
        assert pool.lease("panel", (4, 4)) is a

    def test_release_is_idempotent_and_clear_resets(self):
        pool = BufferPool()
        a = pool.guard(pool.lease("panel", (2, 2)))
        pool.release(a)
        pool.release(a)
        pool.guard(pool.lease("panel", (2, 2)))
        pool.clear()
        pool.lease("panel", (2, 2))  # no stale guards survive clear()

    def test_lease_zeros_zeroes(self):
        pool = BufferPool()
        buf = pool.lease("acc", (3, 3))
        buf.fill(7.0)
        assert np.all(pool.lease_zeros("acc", (3, 3)) == 0.0)

    def test_guard_reports_peak_bytes_like_plain_slots(self):
        prof = RankProfile()
        pool = BufferPool(profile=prof)
        pool.lease("panel", (8, 8))
        assert prof.peak_buffer_bytes == 8 * 8 * 8


# ----------------------------------------------------------------------
# worker pool: async dispatch (one in-flight slot) + abort with an
# exchange in flight
# ----------------------------------------------------------------------


class TestPoolAsyncDispatch:
    def test_run_async_basic(self):
        with WorkerPool(4) as pool:
            fut = pool.run_async(lambda comm: comm.rank * 2)
            results, report = fut.wait()
            assert results == [0, 2, 4, 6]
            assert fut.done
            # idempotent wait
            assert fut.wait()[0] == results

    def test_dispatch_on_busy_pool_settles_the_unsettled_item(self):
        with WorkerPool(3) as pool:
            f1 = pool.run_async(lambda comm: comm.shift(comm.rank, 1), label="one")
            f2 = pool.run_async(lambda comm: comm.shift(comm.rank, -1), label="two")
            assert f1.done  # one slot: the second dispatch settled the first
            assert f2.wait()[0] == [(r + 1) % 3 for r in range(3)]
            assert f1.wait()[0] == [(r - 1) % 3 for r in range(3)]

    def test_abort_with_exchange_in_flight_recovers(self):
        """One rank dies while a sibling has a nonblocking exchange posted
        and is blocked in its wait; the pool must unwind and recover."""

        def bad(comm):
            if comm.rank == 0:
                raise ValueError("boom mid-pipeline")
            # posts the send, then blocks waiting for rank 0's message,
            # which never comes — only the abort can release this wait
            pend = comm.ishift(np.ones(16), displacement=1, tag=9)
            return pend.wait()

        with WorkerPool(4) as pool:
            fut = pool.run_async(bad, label="doomed")
            with pytest.raises(RuntimeError, match="rank 0 failed"):
                fut.wait()
            # recovered: the same resident ranks serve the next item
            results, _ = pool.run(lambda comm: comm.shift(comm.rank, 1))
            assert results == [(r - 1) % 4 for r in range(4)]

    def test_item_dispatched_behind_a_failure_runs_on_recovered_world(self):
        """``run_async`` with an unsettled failing item: the failure
        surfaces at the *first* future's ``wait()`` (not at the second
        dispatch), and the second item runs clean on the recovered
        world instead of unwinding through the aborted one."""

        def bad(comm):
            comm.barrier(tag=60)
            if comm.rank == 1:
                raise ValueError("first item dies")
            comm.recv(comm.rank, tag=61)  # blocks until abort

        def innocent(comm):
            return comm.shift(comm.rank, displacement=1)

        with WorkerPool(3) as pool:
            f1 = pool.run_async(bad, label="bad")
            f2 = pool.run_async(innocent, label="innocent")  # does not raise
            assert f2.wait()[0] == [(r - 1) % 3 for r in range(3)]
            with pytest.raises(RuntimeError, match="rank 1 failed") as err:
                f1.wait()
            assert isinstance(err.value.__cause__, ValueError)

    def test_single_rank_pool_runs_inline(self):
        with WorkerPool(1) as pool:
            fut = pool.run_async(lambda comm: 42)
            assert fut.done
            assert fut.wait()[0] == [42]


# ----------------------------------------------------------------------
# session: overlap knob resolution, cross-call pipeline, abort recovery
# ----------------------------------------------------------------------


class TestSessionOverlap:
    def test_auto_resolves_on_for_multirank(self, small_problem):
        """...where the ranks are spread: a packed session (fine grain,
        all rank threads on one core) has nothing to run behind a kernel."""
        knobs = dict(p=8, c=4, algorithm="1.5d-sparse-shift",
                     elision="replication-reuse")
        S = repro.erdos_renyi(4096, 4096, 8, seed=7)
        with repro.plan(S, 128, **knobs) as sess:  # grain 2**19 FLOPs
            assert sess.explain().placement == "spread"
            assert sess.overlap_mode == "on"
            assert "overlap='on'" in repr(sess)
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], **knobs) as sess:
            assert sess.explain().placement == "packed"
            assert sess.overlap_mode == "off"

    def test_auto_resolves_off_for_single_rank(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=1, c=1,
                        algorithm="1.5d-dense-shift") as sess:
            assert sess.overlap_mode == "off"

    def test_invalid_overlap_rejected(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(ReproError, match="overlap"):
            repro.plan(S, A.shape[1], p=4, overlap="maybe")

    def test_overlap_run_measures_hidden_comm(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=4,
                        algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", comm="sparse",
                        overlap="on") as sess:
            _, report = sess.fusedmm_b(A, B)
        assert report.hidden_comm_seconds > 0.0
        assert 0.0 < report.overlap_efficiency <= 1.0

    def test_sync_run_measures_no_hidden_comm(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=4,
                        algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", comm="sparse",
                        overlap="off") as sess:
            _, report = sess.fusedmm_b(A, B)
        assert report.hidden_comm_seconds == 0.0
        assert report.overlap_efficiency == 0.0

    def test_with_model_reports_both_bounds(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=4,
                        algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", overlap="on") as sess:
            _, report = sess.fusedmm_b(A, B)
        modeled = report.with_model(repro.CORI_KNL)
        # the optimistic bound never exceeds the synchronous total, and the
        # measured split is reported alongside, not instead
        assert modeled.overlap_bound_seconds <= modeled.synchronous_seconds
        assert modeled.modeled_hideable_seconds >= 0.0
        assert modeled.measured_hidden_seconds == report.hidden_comm_seconds
        assert modeled.measured_exposed_seconds == report.exposed_comm_seconds
        assert modeled.overlap_efficiency == report.overlap_efficiency

    def test_async_pipeline_bitwise_and_reports(self, small_problem):
        S, A, B = small_problem
        rng = np.random.default_rng(3)
        Bs = [rng.standard_normal(B.shape) for _ in range(4)]
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift",
                        elision="replication-reuse") as sess:
            sync_outs = [sess.fusedmm_a(A, b)[0] for b in Bs]
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift",
                        elision="replication-reuse") as sess:
            futures = [sess.fusedmm_a_async(A, b) for b in Bs]
            outs = [f.result() for f in futures]
        for want, (got, report) in zip(sync_outs, outs):
            assert np.array_equal(want, got)
            assert report.comm_mode == "dense"

    def test_async_result_is_idempotent_and_unclobbered(self, small_problem):
        """A later pipelined call must not clobber an unconsumed output."""
        S, A, B = small_problem
        rng = np.random.default_rng(4)
        B2 = rng.standard_normal(B.shape)
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            want1 = sess.fusedmm_a(A, B)[0]
            want2 = sess.fusedmm_a(A, B2)[0]
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            f1 = sess.fusedmm_a_async(A, B)
            f2 = sess.fusedmm_a_async(A, B2)  # stages while f1 runs
            out2 = f2.result()[0]
            out1 = f1.result()[0]  # finalized before f2 promoted; cached
            assert np.array_equal(want1, out1)
            assert np.array_equal(want2, out2)

    def test_failure_invalidates_skip_rebind_snapshots(self, small_problem):
        """A custom rank procedure dirties both dense sides, failing or
        not: a bind may never be skipped against resident blocks a failed
        ``run_rank`` half-overwrote in place."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            want = sess.fusedmm_a(A, B)[0]
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            f1 = sess.fusedmm_a_async(A, B)  # snapshots both sides

            def bad(ctx, plan_, local, sparse_plan=None):
                local.A[:] = np.nan  # clobber resident blocks, then die
                local.B[:] = np.nan
                ctx.comm.barrier(tag=77)
                raise ValueError("post-clobber failure")

            with pytest.raises(RuntimeError):
                sess.run_rank(bad, label="clobber")
            f1.result()  # finalized before the failing dispatch; still good
            # the failed run_rank dirtied both sides: rebinding the *same*
            # operands must NOT be skipped against the NaN-filled blocks
            out, _ = sess.fusedmm_a(A, B)
            assert np.isfinite(out).all()
            assert np.array_equal(want, out)

    def test_single_rank_failure_invalidates_snapshots_too(self, small_problem):
        """p=1 pools run the body inline, so the failure surfaces at
        dispatch time — the procedure must still dirty both sides."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=1, c=1,
                        algorithm="1.5d-dense-shift") as sess:
            want = sess.fusedmm_a(A, B)[0]
        with repro.plan(S, A.shape[1], p=1, c=1,
                        algorithm="1.5d-dense-shift") as sess:
            sess.fusedmm_a(A, B)

            def bad(ctx, plan_, local, sparse_plan=None):
                local.A[:] = np.nan
                local.B[:] = np.nan
                raise ValueError("inline failure")

            with pytest.raises(ValueError):
                sess.run_rank(bad, label="clobber")
            out, _ = sess.fusedmm_a(A, B)  # must rebind, not skip
            assert np.isfinite(out).all()
            assert np.array_equal(want, out)

    def test_changing_operand_retires_tracking(self, small_problem):
        """A side that misses the snapshot compare on every bind stops
        being tracked until a kernel dirties it (no permanent upkeep for
        always-fresh operands) — and correctness is unaffected."""
        S, A, B = small_problem
        rng = np.random.default_rng(11)
        limit = repro.Session._BIND_MISS_LIMIT
        with repro.plan(S, A.shape[1], p=4, c=2,
                        algorithm="1.5d-dense-shift") as sess:
            for _ in range(limit + 2):
                sess.sddmm(A, rng.standard_normal(B.shape))
            # after `limit` misses the b-side snapshot is retired
            assert sess._dense_state[False]["b"] is None
            # ...while the repeating a-side still skips
            assert sess.dense_bind_counts["a"] == 1
            out, _ = sess.sddmm(A, B)
            from repro.baselines.serial import sddmm_serial

            np.testing.assert_allclose(out.vals, sddmm_serial(S, A, B).vals,
                                       rtol=1e-9)

    def test_stale_lease_guards_cleared_at_next_dispatch(self, small_problem):
        """An abort can unwind a rank before it waits a posted exchange,
        leaving its panel guard set; the next dispatch must clear such
        leftovers or the session wedges in BufferLeaseError."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=2, algorithm="2.5d-sparse-replicate",
                        comm="sparse", overlap="on") as sess:
            want, _ = sess.fusedmm_a(A, B)

            def leaky(ctx, plan_, local, sparse_plan=None):
                # guard both rotating slots, as a dual gather interrupted
                # mid-wait would, then die without releasing
                ctx.pool.guard(ctx.pool.lease("gather-a", (4, 4)))
                ctx.pool.guard(ctx.pool.lease("gather-a", (4, 4)))
                ctx.pool.guard(ctx.pool.lease("gather-b", (4, 4)))
                raise ValueError("died with exchanges in flight")

            with pytest.raises(RuntimeError):
                sess.run_rank(leaky, label="leak")
            got, _ = sess.fusedmm_a(A, B)  # would raise BufferLeaseError
            assert np.array_equal(want, got)

    def test_overlap_session_abort_and_recovery(self, small_problem):
        """A rank failure with pipelined exchanges in flight must leave the
        session's pool reusable and later calls correct."""
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=8, c=4,
                        algorithm="1.5d-sparse-shift",
                        elision="replication-reuse", comm="sparse",
                        overlap="on") as sess:
            want, _ = sess.fusedmm_b(A, B)

            def bad(ctx, plan_, local, sparse_plan=None):
                if ctx.comm.rank == 3:
                    raise ValueError("mid-exchange failure")
                pend = ctx.comm.ishift(np.ones(4), displacement=1, tag=9)
                pend.wait()

            with pytest.raises(RuntimeError):
                sess.run_rank(bad, label="doomed")
            got, _ = sess.fusedmm_b(A, B)
            assert np.array_equal(want, got)


# ----------------------------------------------------------------------
# model: the overlapped-time term
# ----------------------------------------------------------------------


class TestOverlapModel:
    KEY = "1.5d-sparse-shift/replication-reuse"

    def test_overlap_time_never_exceeds_sync(self):
        n, r, p, c, phi = 4096, 64, 16, 4, 0.02
        sync = fusedmm_cost(self.KEY, n, r, p, c, phi).time(
            repro.CORI_KNL, flops=4.0 * phi * n * r * r / p
        )
        overlapped = fusedmm_time_overlap(self.KEY, n, r, p, c, phi, repro.CORI_KNL)
        assert overlapped <= sync
        assert overlapped == pytest.approx(
            sync - overlap_gain_seconds(self.KEY, n, r, p, c, phi, repro.CORI_KNL)
        )

    def test_gain_is_min_of_prop_and_compute(self):
        n, r, p, c, phi = 4096, 64, 16, 4, 0.02
        cost = fusedmm_cost(self.KEY, n, r, p, c, phi)
        m = repro.CORI_KNL
        t_prop = m.time(cost.propagation_words, cost.propagation_messages)
        t_comp = m.gamma * 4.0 * (phi * n * r) * r / p
        gain = overlap_gain_seconds(self.KEY, n, r, p, c, phi, m)
        assert gain == pytest.approx(min(t_prop, t_comp))

    def test_efficiency_discounts_linearly(self):
        n, r, p, c, phi = 4096, 64, 16, 4, 0.02
        full = overlap_gain_seconds(self.KEY, n, r, p, c, phi, repro.CORI_KNL)
        half = overlap_gain_seconds(
            self.KEY, n, r, p, c, phi, repro.CORI_KNL, efficiency=0.5
        )
        assert half == pytest.approx(0.5 * full)

    def test_sparse_comm_variant_supported(self):
        n, r, p, c, phi = 4096, 64, 16, 4, 0.02
        dense_t = fusedmm_time_overlap(self.KEY, n, r, p, c, phi, repro.CORI_KNL)
        sparse_t = fusedmm_time_overlap(
            self.KEY, n, r, p, c, phi, repro.CORI_KNL, sparse_comm=True
        )
        assert sparse_t <= dense_t  # need lists only remove traffic
