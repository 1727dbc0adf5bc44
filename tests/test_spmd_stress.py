"""Stress and concurrency tests for the SPMD runtime.

The distributed algorithms lean on subtle runtime guarantees — message
non-overtaking under load, independent subcommunicator traffic, ring
collectives at larger rank counts, worker-pool reuse across many work
items — exercised here beyond the sizes the algorithm tests use.  The CI
pool-stress step runs this file on its own and relies on the
``TestPoolStress`` thread-leak gates.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.runtime.comm import Communicator
from repro.runtime.spmd import WorkerPool, run_spmd


class TestScale:
    def test_many_ranks_allgather(self):
        p = 24

        def body(comm):
            parts = comm.allgather(np.full(3, float(comm.rank)))
            return sum(float(x[0]) for x in parts)

        results, _ = run_spmd(p, body)
        assert all(v == sum(range(p)) for v in results)

    def test_many_ranks_ring_of_shifts(self):
        """A value shifted p times around the ring returns home."""
        p = 16

        def body(comm):
            x = np.array([float(comm.rank)])
            for _ in range(p):
                x = comm.shift(x, displacement=1)
            return float(x[0])

        results, _ = run_spmd(p, body)
        assert results == [float(r) for r in range(p)]

    def test_large_payload_roundtrip(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(1 << 18, dtype=np.float64), tag=5)
                return 0.0
            return float(comm.recv(0, tag=5).sum())

        results, _ = run_spmd(2, body)
        n = 1 << 18
        assert results[1] == pytest.approx(n * (n - 1) / 2)


class TestConcurrentChannels:
    def test_interleaved_collectives_on_disjoint_subcomms(self):
        """Two layers running independent reductions must not interfere."""
        p = 8

        def body(comm):
            layer = comm.split(color=comm.rank % 2, key=comm.rank)
            total = 0.0
            for round_ in range(10):
                blocks = [np.array([float(comm.rank + k + round_)]) for k in range(layer.size)]
                total += float(layer.reduce_scatter(blocks)[0])
            return total

        results, _ = run_spmd(p, body)

        def expected(rank):
            members = [q for q in range(p) if q % 2 == rank % 2]
            my_pos = members.index(rank)
            total = 0.0
            for round_ in range(10):
                total += sum(q + my_pos + round_ for q in members)
            return total

        for rank in range(p):
            assert results[rank] == pytest.approx(expected(rank))

    def test_pipelined_sends_do_not_overtake(self):
        """Bulk back-to-back messages on one channel preserve order."""
        msgs = 200

        def body(comm):
            if comm.rank == 0:
                for k in range(msgs):
                    comm.send(1, np.array([float(k)]), tag=7)
                return True
            got = [float(comm.recv(0, tag=7)[0]) for _ in range(msgs)]
            return got == [float(k) for k in range(msgs)]

        results, _ = run_spmd(2, body)
        assert results[1] is True

    def test_bidirectional_exchange_floods(self):
        """All-pairs exchange with buffered sends never deadlocks."""
        p = 6

        def body(comm):
            for q in range(p):
                if q != comm.rank:
                    comm.send(q, comm.rank * 100 + q, tag=9)
            got = {}
            for q in range(p):
                if q != comm.rank:
                    got[q] = comm.recv(q, tag=9)
            return all(v == q * 100 + comm.rank for q, v in got.items())

        results, _ = run_spmd(p, body)
        assert all(results)


class TestPoolStress:
    """The resident pool under load: many items, failures, no leaks."""

    def test_many_items_on_one_pool(self):
        """Hundreds of collective items reuse the same resident ranks."""
        p = 8
        with WorkerPool(p) as pool:
            for k in range(200):
                results, _ = pool.run(
                    lambda comm, k=k: comm.allreduce_scalar(float(comm.rank + k))
                )
                expected = sum(range(p)) + p * k
                assert results == [pytest.approx(expected)] * p

    def test_alternating_failures_and_successes(self):
        """Recovery after every failure, 20 times in a row."""
        p = 4
        with WorkerPool(p) as pool:
            for k in range(20):

                def bad(comm, k=k):
                    if comm.rank == k % p:
                        raise ValueError(f"iteration {k}")
                    return comm.allreduce_scalar(1.0)

                with pytest.raises(RuntimeError, match=f"iteration {k}"):
                    pool.run(bad)
                results, _ = pool.run(lambda comm: comm.allreduce_scalar(1.0))
                assert results == [float(p)] * p

    def test_interleaved_pools_are_independent(self):
        pools = [WorkerPool(4, name=f"stress-{i}") for i in range(3)]
        try:
            for _ in range(10):
                for i, pool in enumerate(pools):
                    results, _ = pool.run(
                        lambda comm, i=i: comm.allreduce_scalar(float(i))
                    )
                    assert results == [4.0 * i] * 4
        finally:
            for pool in pools:
                pool.close()

    def test_session_thread_count_returns_to_baseline(self):
        """The CI thread-leak gate: a pooled session holds exactly p warm
        threads while open and releases every one on close()."""
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(0)
        S = erdos_renyi(96, 96, 5, seed=0)
        A = rng.standard_normal((96, 8))
        B = rng.standard_normal((96, 8))
        baseline = threading.active_count()
        sess = repro.plan(
            S, 8, p=8, c=2, algorithm="1.5d-dense-shift",
            elision="local-kernel-fusion",
        )
        for _ in range(5):
            sess.fusedmm_a(A, B)
        assert threading.active_count() == baseline + 8
        sess.close()
        assert threading.active_count() == baseline

    def test_many_sessions_no_cumulative_leak(self):
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(1)
        S = erdos_renyi(64, 64, 4, seed=1)
        A = rng.standard_normal((64, 8))
        B = rng.standard_normal((64, 8))
        baseline = threading.active_count()
        for _ in range(10):
            with repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift") as sess:
                sess.sddmm(A, B)
        assert threading.active_count() == baseline

    def test_one_shot_wrappers_close_what_they_open(self):
        """The one-shot functions are ``with plan(...)`` blocks: the
        throwaway session's pool is joined on return — also when the
        kernel raises (an injected crash, through the forwarded
        ``faults=`` knob)."""
        from repro.runtime.faults import FaultPlan
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(3)
        S = erdos_renyi(64, 64, 4, seed=3)
        A = rng.standard_normal((64, 8))
        B = rng.standard_normal((64, 8))
        baseline = threading.active_count()
        repro.sddmm(S, A, B, p=4, c=2)
        repro.spmm_a(S, B, p=4, c=2)
        repro.spmm_b(S, A, p=4, c=2, calls=2)
        repro.fusedmm_a(S, A, B, p=4, c=2)
        repro.fusedmm_b(S, A, B, p=4, c=2, elision="replication-reuse")
        assert threading.active_count() == baseline
        for one_shot in (repro.sddmm, repro.fusedmm_a):
            with pytest.raises(RuntimeError, match="injected crash"):
                one_shot(
                    S, A, B, p=4, c=2,
                    faults=FaultPlan.crash_at(site="computation", rank=1),
                )
            assert threading.active_count() == baseline

    def test_sparse_session_thread_count_returns_to_baseline(self):
        """Need-list case of the thread-leak gate: packed exchanges must
        not strand a single thread."""
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(2)
        S = erdos_renyi(96, 96, 5, seed=2)
        A = rng.standard_normal((96, 8))
        B = rng.standard_normal((96, 8))
        baseline = threading.active_count()
        sess = repro.plan(
            S, 8, p=8, c=4, algorithm="1.5d-sparse-shift",
            elision="replication-reuse", comm="sparse",
        )
        for _ in range(5):
            out, report = sess.fusedmm_b(A, B)
        assert threading.active_count() == baseline + 8
        sess.close()
        assert threading.active_count() == baseline
        assert out.shape == (96, 8)
        assert report.comm_words > 0


class TestFaultStress:
    """Injected faults against the need-list machinery under load: a
    crash while sibling ranks sit in a packed exchange's receives, and a
    straggler stalling one leg of the 2.5D dual gather.  Each case
    re-runs the thread-leak gate — a fault must never strand a rank
    thread."""

    def test_crash_while_siblings_wait_packed_exchange(self):
        """Crash one rank mid-call on a sparse-comm session: its siblings
        are blocked in the packed exchange's receives and must unwind via
        the abort, recover, and produce bitwise-clean results on the
        retry."""
        from repro.runtime.faults import FaultPlan
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(5)
        S = erdos_renyi(96, 96, 5, seed=5)
        A = rng.standard_normal((96, 8))
        B = rng.standard_normal((96, 8))
        with repro.plan(
            S, 8, p=8, c=2, algorithm="1.5d-sparse-shift", comm="sparse",
        ) as clean:
            ref, _ = clean.fusedmm_a(A, B)

        baseline = threading.active_count()
        plan = FaultPlan.crash_at(site="computation", rank=5, index=1)
        sess = repro.plan(
            S, 8, p=8, c=2, algorithm="1.5d-sparse-shift", comm="sparse",
            retries=1, faults=plan,
        )
        out, _ = sess.fusedmm_a(A, B)
        np.testing.assert_array_equal(out, ref)
        assert sess.metrics()[-1]["outcome"] == "retried"
        sess.close()
        assert threading.active_count() == baseline  # thread-leak gate

    def test_straggler_during_dual_gather(self):
        """Stall one rank inside the 2.5D dual gather (the fused A+B
        packed gather region): siblings wait it out, the result is
        bitwise unchanged, and no thread leaks."""
        from repro.runtime.faults import FaultPlan
        from repro.sparse.generate import erdos_renyi

        rng = np.random.default_rng(6)
        S = erdos_renyi(96, 96, 5, seed=6)
        A = rng.standard_normal((96, 8))
        B = rng.standard_normal((96, 8))
        with repro.plan(
            S, 8, p=8, c=2, algorithm="2.5d-sparse-replicate", comm="sparse",
        ) as clean:
            ref, _ = clean.fusedmm_a(A, B)

        baseline = threading.active_count()
        plan = FaultPlan.straggler(0.1, site="gather-AB-packed", rank=2)
        sess = repro.plan(
            S, 8, p=8, c=2, algorithm="2.5d-sparse-replicate", comm="sparse",
            faults=plan,
        )
        out, _ = sess.fusedmm_a(A, B)
        np.testing.assert_array_equal(out, ref)
        assert sess.metrics()[-1]["outcome"] == "ok"
        assert plan.fired_log == [(2, "straggler", "region=gather-AB-packed")]
        sess.close()
        assert threading.active_count() == baseline  # thread-leak gate


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        """Thread scheduling must not perturb any numeric result."""

        def run_once():
            from repro.sparse.generate import erdos_renyi
            from repro.algorithms.dense_shift_15d import DenseShift15D
            from repro.types import Mode

            S = erdos_renyi(96, 96, 5, seed=0)
            rng = np.random.default_rng(1)
            A = rng.standard_normal((96, 8))
            B = rng.standard_normal((96, 8))
            alg = DenseShift15D(8, 2)
            plan = alg.plan(96, 96, 8)
            locals_ = alg.distribute(plan, S, None, B)

            def body(comm):
                ctx = alg.make_context(comm)
                alg.rank_kernel(ctx, plan, locals_[comm.rank], Mode.SPMM_A)

            run_spmd(8, body)
            return alg.collect_dense_a(plan, locals_)

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(a, b)
