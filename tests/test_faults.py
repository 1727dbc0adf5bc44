"""Unit tests for the fault-injection plane and the deadline watchdog.

Covers the deterministic trigger machinery (:class:`FaultPlan` arming,
indices, sticky faults, chaos derivation), each fault class at the
transport / phase / region / buffer-pool hook sites, the ``deadline_ms``
watchdog (a blocked receive converts into :class:`SpmdTimeout` carrying a
per-rank blocked-state dump, in bounded time), the parameterized
``WorkerPool.close(timeout)`` diagnostics, and the failed-item error
chaining.  The end-to-end chaos matrix over the algorithm families lives
in ``test_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    FaultInjected,
    InjectedCrash,
    InjectedExhaustion,
    ReproError,
    SpmdTimeout,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import WorkerPool, run_spmd
from repro.types import Phase


class TestFaultSpec:
    def test_unknown_action_rejected(self):
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultSpec("explode")

    def test_negative_index_rejected(self):
        with pytest.raises(ReproError, match="index"):
            FaultSpec("drop", index=-1)

    def test_zero_times_rejected(self):
        with pytest.raises(ReproError, match="times"):
            FaultSpec("drop", times=0)

    def test_message_matching(self):
        spec = FaultSpec("drop", rank=1, tag=10)
        assert spec.matches_message(1, 10)
        assert not spec.matches_message(0, 10)
        assert not spec.matches_message(1, 11)
        assert not spec.matches_site(1, "phase", "computation")

    def test_site_matching(self):
        spec = FaultSpec("crash", site="computation")
        assert spec.matches_site(0, "phase", "computation")
        assert spec.matches_site(3, "region", "computation")
        assert not spec.matches_site(0, "phase", "replication")
        # crash/straggler never match buffer acquisitions ...
        assert not spec.matches_site(0, "buffer", "computation")
        # ... and exhaust matches only them
        exhaust = FaultSpec("exhaust", site="panel")
        assert exhaust.matches_site(0, "buffer", "panel")
        assert not exhaust.matches_site(0, "phase", "panel")


class TestFaultPlanArming:
    def test_fires_once_by_default(self):
        plan = FaultPlan([FaultSpec("drop", tag=5)])
        assert plan.on_send(0, 5) is not None
        assert plan.on_send(0, 5) is None  # times=1: second send is clean

    def test_index_skips_matching_events(self):
        plan = FaultPlan([FaultSpec("drop", tag=5, index=2)])
        assert plan.on_send(0, 5) is None
        assert plan.on_send(0, 5) is None
        assert plan.on_send(0, 5) is not None

    def test_sticky_fault_fires_forever(self):
        plan = FaultPlan([FaultSpec("drop", tag=5, times=None)])
        for _ in range(10):
            assert plan.on_send(0, 5) is not None

    def test_match_counters_are_per_rank(self):
        """index counts each rank's own events, so 'rank r's index-th
        send' means the same operation no matter how ranks interleave."""
        plan = FaultPlan([FaultSpec("drop", index=1, times=None)])
        assert plan.on_send(0, 5) is None  # rank 0, event 0
        assert plan.on_send(1, 5) is None  # rank 1, event 0
        assert plan.on_send(1, 5) is not None  # rank 1, event 1
        assert plan.on_send(0, 5) is not None  # rank 0, event 1

    def test_fired_log_records_chronology(self):
        plan = FaultPlan([FaultSpec("straggler", site="computation")])
        plan.on_site(2, "phase", "computation")
        assert plan.fired_log == [(2, "straggler", "phase=computation")]

    def test_chaos_is_deterministic(self):
        a, b = FaultPlan.chaos(7, 8), FaultPlan.chaos(7, 8)
        assert a.specs == b.specs
        assert a.specs != FaultPlan.chaos(8, 8).specs

    def test_chaos_covers_all_actions(self):
        seen = {FaultPlan.chaos(s, 8).specs[0].action for s in range(64)}
        assert seen == set(FaultPlan.CHAOS_ACTIONS)

    def test_extended_merges_specs(self):
        merged = FaultPlan.drop_message(tag=5).extended(FaultPlan.crash_at())
        assert [s.action for s in merged.specs] == ["drop", "crash"]


class TestMessageFaults:
    def test_drop_with_deadline_times_out_typed(self):
        plan = FaultPlan.drop_message(tag=7, rank=0)
        t0 = time.perf_counter()

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.array([1.0]), tag=7)
                return None
            return comm.recv(0, tag=7)

        with pytest.raises(SpmdTimeout) as err:
            run_spmd(2, body, deadline_ms=300, faults=plan)
        assert time.perf_counter() - t0 < 5.0
        assert err.value.dump, "timeout must carry the blocked-state dump"
        entry = err.value.dump[0]
        assert entry["rank"] == 1
        assert entry["tag"] == 7
        assert entry["waiting_for_comm_rank"] == 0

    def test_delay_stalls_then_delivers(self):
        plan = FaultPlan.delay_message(0.15, tag=7)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.array([42.0]), tag=7)
                return None
            t0 = time.perf_counter()
            value = float(comm.recv(0, tag=7)[0])
            return value, time.perf_counter() - t0

        results, _ = run_spmd(2, body, faults=plan)
        value, waited = results[1]
        assert value == 42.0
        assert waited >= 0.1
        assert plan.fired_log == [(0, "delay", "tag=7")]

    def test_dup_delivers_twice(self):
        plan = FaultPlan.duplicate_message(tag=7)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.array([3.0]), tag=7)
                return None
            first = comm.recv(0, tag=7)
            second = comm.recv(0, tag=7)  # the duplicate
            return float(first[0]), float(second[0])

        results, _ = run_spmd(2, body, faults=plan)
        assert results[1] == (3.0, 3.0)

    def test_duplicate_payloads_do_not_alias(self):
        """The duplicated delivery is isolated like any other send: the
        receiver of the first copy cannot corrupt the second."""
        plan = FaultPlan.duplicate_message(tag=7)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.array([3.0]), tag=7)
                return None
            first = comm.recv(0, tag=7)
            first[0] = -99.0
            return float(comm.recv(0, tag=7)[0])

        results, _ = run_spmd(2, body, faults=plan)
        assert results[1] == 3.0


class TestSiteFaults:
    def test_crash_at_phase(self):
        plan = FaultPlan.crash_at(site="computation", rank=1)

        def body(comm):
            with comm.profile.track(Phase.COMPUTATION):
                pass
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed.*injected crash"):
            run_spmd(4, body, faults=plan)

    def test_crash_error_chains_injected_cause(self):
        plan = FaultPlan.crash_at(site="computation", rank=0)

        def body(comm):
            with comm.profile.track(Phase.COMPUTATION):
                pass

        with pytest.raises(RuntimeError) as err:
            run_spmd(2, body, faults=plan)
        assert isinstance(err.value.__cause__, InjectedCrash)
        assert isinstance(err.value.__cause__, FaultInjected)

    def test_crash_at_named_region(self):
        """Region-site crashes fire with tracing off (the hook is in
        region() itself, ahead of the tracer guard)."""
        from repro.algorithms.base import region

        plan = FaultPlan.crash_at(site="gather-A", rank=2)

        def body(comm):
            with region(comm, "gather-A"):
                pass

        with pytest.raises(RuntimeError, match="rank 2 failed.*gather-A"):
            run_spmd(4, body, faults=plan)

    def test_straggler_delays_but_completes(self):
        plan = FaultPlan.straggler(0.15, site="computation", rank=0)

        def body(comm):
            with comm.profile.track(Phase.COMPUTATION):
                pass
            return comm.allreduce_scalar(1.0)

        t0 = time.perf_counter()
        results, _ = run_spmd(4, body, faults=plan)
        assert results == [4.0] * 4
        assert time.perf_counter() - t0 >= 0.1
        assert plan.fired_log == [(0, "straggler", "phase=computation")]

    def test_exhaust_buffer_pool(self):
        from repro.runtime.buffers import BufferPool

        plan = FaultPlan.exhaust_buffers(label="panel")
        profile = RankProfile()
        profile.site = plan.rank_view(0)
        pool = BufferPool(profile=profile)
        with pytest.raises(InjectedExhaustion, match="panel"):
            pool.empty("panel", (4, 4))
        # times=1: the retry acquisition succeeds
        assert pool.empty("panel", (4, 4)).shape == (4, 4)


class TestDeadlineWatchdog:
    def test_mismatched_collective_times_out(self):
        """The acceptance scenario: a deliberately mismatched collective
        (one rank never sends) fails typed and in bounded time."""

        def body(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=99)  # rank 1 never sends
            return None

        t0 = time.perf_counter()
        with pytest.raises(SpmdTimeout) as err:
            run_spmd(2, body, deadline_ms=250)
        assert time.perf_counter() - t0 < 5.0
        [entry] = err.value.dump
        assert entry["rank"] == 0
        assert entry["waiting_for_comm_rank"] == 1
        assert entry["tag"] == 99
        assert entry["waited_s"] >= 0.2
        assert "blocked ranks at expiry" in str(err.value)

    def test_dump_names_open_phase(self):
        def body(comm):
            if comm.rank == 0:
                with comm.profile.track(Phase.PROPAGATION):
                    return comm.recv(1, tag=99)
            return None

        with pytest.raises(SpmdTimeout) as err:
            run_spmd(2, body, deadline_ms=250)
        [entry] = err.value.dump
        assert entry["phase"] == Phase.PROPAGATION.value

    def test_no_deadline_is_the_default(self):
        pool = WorkerPool(2)
        try:
            assert pool.deadline_ms is None
            assert pool.world.deadline is None
        finally:
            pool.close()

    def test_deadline_cleared_after_success(self):
        """The armed horizon must not leak into later, slower items."""
        with WorkerPool(2, deadline_ms=None) as pool:
            results, _ = pool.run(
                lambda comm: comm.allreduce_scalar(1.0), deadline_ms=5_000
            )
            assert results == [2.0, 2.0]
            assert pool.world.deadline is None

    def test_per_call_deadline_overrides_pool_default(self):
        with WorkerPool(2, deadline_ms=50) as pool:

            def slowish(comm):
                if comm.rank == 0:
                    time.sleep(0.15)
                    comm.send(1, np.array([1.0]), tag=3)
                    return 0.0
                return float(comm.recv(0, tag=3)[0])

            # the pool default (50 ms) would expire; the per-call horizon
            # must win
            results, _ = pool.run(slowish, deadline_ms=10_000)
            assert results[1] == 1.0


def _run_behind(pool, body) -> threading.Thread:
    """Run ``body`` on ``pool`` from a second driver thread, so this one
    can close the pool while the item is still running."""
    driver = threading.Thread(target=pool.run, args=(body,), daemon=True)
    driver.start()
    return driver


class TestCloseTimeout:
    def test_close_timeout_names_blocked_rank(self):
        pool = WorkerPool(2, name="stuckpool")

        def body(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=42)  # never satisfied, no deadline
            return None

        driver = _run_behind(pool, body)
        deadline = time.monotonic() + 5.0
        while 0 not in pool.world.blocked and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            with pytest.raises(ReproError) as err:
                pool.close(timeout=0.2)
            msg = str(err.value)
            assert "rank 0" in msg
            assert "tag 42" in msg
            assert "from comm rank 1" in msg
        finally:
            # unwedge the stuck rank so the pool can actually join
            pool.world.abort()
            pool.close()
            driver.join()

    def test_close_retry_after_unblock_succeeds(self):
        """A failed close leaves the pool joinable: the documented
        retry path works once the rank unblocks."""
        release = threading.Event()
        pool = WorkerPool(2)

        def body(comm):
            if comm.rank == 0:
                release.wait()
            return None

        driver = _run_behind(pool, body)
        with pytest.raises(ReproError, match="failed to join"):
            pool.close(timeout=0.1)
        assert not pool.closed
        release.set()
        pool.close()
        driver.join()
        assert pool.closed


class TestErrorChaining:
    def test_head_failure_chains_original(self):
        with WorkerPool(4) as pool:

            def bad(comm):
                if comm.rank == 3:
                    raise ValueError("boom")
                comm.allreduce_scalar(1.0)

            with pytest.raises(RuntimeError, match="rank 3 failed.*boom") as err:
                pool.run(bad)
            assert isinstance(err.value.__cause__, ValueError)
            assert err.value.__cause__.args == ("boom",)
