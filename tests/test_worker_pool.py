"""Lifecycle tests for the resident SPMD worker pool and its session.

The pool's guarantees, each asserted here:

* an exception in one rank aborts the siblings and is re-raised in the
  driver, and the pool stays **reusable** afterwards;
* ``close()`` joins every rank thread (no leaks) and is idempotent;
* dispatch after close raises;
* ``run(..., retries=, on_failure=)`` re-runs a retryable failure after
  the hook, and surfaces the first error once the re-runs are spent;
* a warm session produces **bitwise** the same kernel outputs as a
  fresh session per call across families x comm modes, while building
  its contexts exactly once per orientation.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.errors import CommError, ReproError
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import WorkerPool, run_spmd
from repro.types import Phase

from repro.sparse.generate import erdos_renyi


def make_problem(m, n, r, nnz_per_row, seed=0):
    gen = np.random.default_rng(seed)
    S = erdos_renyi(m, n, nnz_per_row, seed=seed)
    return S, gen.standard_normal((m, r)), gen.standard_normal((n, r))


class TestPoolBasics:
    def test_results_in_rank_order(self):
        with WorkerPool(6) as pool:
            results, _ = pool.run(lambda comm: comm.rank * 10)
            assert results == [r * 10 for r in range(6)]

    def test_items_reuse_resident_world(self):
        """Subcommunicators split by one item stay valid for the next."""
        p = 8
        pool = WorkerPool(p)
        ctxs = [None] * p

        def build(comm):
            ctxs[comm.rank] = comm.split(color=comm.rank % 2, key=comm.rank)

        pool.run(build)

        def use(comm):
            layer = ctxs[comm.rank]
            return layer.allreduce_scalar(float(comm.rank))

        results, _ = pool.run(use)
        evens, odds = sum(range(0, p, 2)), sum(range(1, p, 2))
        assert results == [evens if r % 2 == 0 else odds for r in range(p)]
        pool.close()

    def test_matches_run_spmd_bitwise(self):
        def body(comm):
            parts = comm.allgather(np.arange(4) + comm.rank)
            return np.concatenate(parts)

        one_shot, _ = run_spmd(4, body)
        with WorkerPool(4) as pool:
            pooled, _ = pool.run(body)
        for a, b in zip(one_shot, pooled):
            np.testing.assert_array_equal(a, b)

    def test_profiles_rebound_per_item(self):
        """Each item accounts into the profiles passed for that item."""
        pool = WorkerPool(2)

        def body(comm):
            comm.allgather(np.zeros(8))

        first = [RankProfile() for _ in range(2)]
        second = [RankProfile() for _ in range(2)]
        pool.run(body, profiles=first)
        pool.run(body, profiles=second)
        pool.close()
        for prof in (*first, *second):
            assert prof.counters[Phase.OTHER].words_received == 8

    def test_single_rank_runs_inline(self):
        base = threading.active_count()
        with WorkerPool(1) as pool:
            assert threading.active_count() == base
            results, _ = pool.run(lambda comm: comm.allreduce_scalar(3.0))
            assert results == [3.0]


class TestPoolFailure:
    def test_error_aborts_siblings_and_pool_stays_usable(self):
        p = 6
        pool = WorkerPool(p)

        def bad(comm):
            if comm.rank == 3:
                raise ValueError("boom")
            # siblings block on a collective and must unwind via abort
            return comm.allreduce_scalar(1.0)

        with pytest.raises(RuntimeError, match="rank 3 failed.*boom"):
            pool.run(bad)
        # the pool recovered: same ranks, clean world, correct results
        for _ in range(2):
            results, _ = pool.run(lambda comm: comm.allreduce_scalar(1.0))
            assert results == [float(p)] * p
        pool.close()

    def test_lowest_failing_rank_reported(self):
        pool = WorkerPool(4)

        def bad(comm):
            raise RuntimeError(f"r{comm.rank}")

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            pool.run(bad)
        pool.close()

    def test_failure_does_not_leak_messages_into_next_item(self):
        """Undelivered sends from an aborted item must not be received
        by a later item on the same channel."""
        pool = WorkerPool(2)

        def bad(comm):
            if comm.rank == 0:
                comm.send(1, np.array([666.0]), tag=9)
                raise ValueError("after send")
            return None  # rank 1 never receives

        with pytest.raises(RuntimeError):
            pool.run(bad)

        def good(comm):
            if comm.rank == 0:
                comm.send(1, np.array([1.0]), tag=9)
                return 0.0
            return float(comm.recv(0, tag=9)[0])

        results, _ = pool.run(good)
        assert results[1] == 1.0
        pool.close()


@pytest.mark.parametrize("p", [4, 1], ids=["threads", "inline"])
class TestPoolRetry:
    """The pool's re-execution contract: ``run(..., retries=,
    on_failure=)`` re-runs the same item after a retryable failure, with
    the hook run on the driver once the world has recovered."""

    def _flaky(self, pool, errors, hook_log):
        """An item whose ``k``-th attempt raises ``errors[k]`` on rank 0
        (siblings wait on a collective) and succeeds past the list."""
        attempts = []

        def body(comm):
            if comm.rank == 0:
                attempts.append(len(attempts))
                if attempts[-1] < len(errors):
                    raise errors[attempts[-1]]
            return comm.allreduce_scalar(1.0)

        def on_failure():
            world = pool.world
            hook_log.append(
                (world.abort_event.is_set(), any(mb._queues for mb in world.mailboxes))
            )

        return body, on_failure, attempts

    def test_retryable_failure_fired_once_settles_ok(self, p):
        hooks = []
        with WorkerPool(p) as pool:
            body, hook, attempts = self._flaky(pool, [CommError("hiccup")], hooks)
            results, _ = pool.run(body, retries=2, on_failure=hook)
            assert results == [float(p)] * p
            assert len(attempts) == 2
            # the hook ran once, on a recovered world: no abort flag, no
            # message of the failed attempt left undelivered
            assert hooks == [(False, False)]

    def test_non_retryable_error_surfaces_on_first_attempt(self, p):
        hooks = []
        with WorkerPool(p) as pool:
            body, hook, attempts = self._flaky(pool, [ValueError("boom")], hooks)
            with pytest.raises((RuntimeError, ValueError), match="boom") as err:
                pool.run(body, retries=3, on_failure=hook)
            assert (err.type is ValueError) == (p == 1)  # inline: raw error
            assert len(attempts) == 1 and len(hooks) == 1
            # ...also after a retryable one: it is not the *first* error
            body, hook, attempts = self._flaky(
                pool, [CommError("hiccup"), ValueError("boom")], hooks
            )
            with pytest.raises((RuntimeError, ValueError), match="boom"):
                pool.run(body, retries=3, on_failure=hook)
            assert len(attempts) == 2
            # the pool stays usable
            assert pool.run(lambda comm: comm.allreduce_scalar(1.0))[0] == [p] * p

    def test_exhausted_retries_surface_the_first_error(self, p):
        hooks = []
        errors = [CommError(f"attempt {k}") for k in range(5)]
        with WorkerPool(p) as pool:
            body, hook, attempts = self._flaky(pool, errors, hooks)
            with pytest.raises((RuntimeError, CommError), match="attempt 0"):
                pool.run(body, retries=2, on_failure=hook)
            assert len(attempts) == 3 and len(hooks) == 3

    def test_clean_run_never_calls_the_hook(self, p):
        """The hook's calls are the re-runs a caller counts: a run that
        succeeds first time calls it zero times."""
        hooks = []
        with WorkerPool(p) as pool:
            body, hook, attempts = self._flaky(pool, [], hooks)
            results, _ = pool.run(body, retries=2, on_failure=hook)
            assert results == [float(p)] * p
            assert len(attempts) == 1 and hooks == []


def test_reruns_under_thread_churn():
    """Eight ranks on two cores, a tiny switch interval, a different rank
    failing once per item: every item re-runs exactly once and settles
    with the right results (the deadline bounds a hang)."""
    import sys

    p, interval = 8, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(p, deadline_ms=10_000) as pool:
            for k in range(20):
                failed = []

                def body(comm, k=k, failed=failed):
                    if comm.rank == k % p and not failed:
                        failed.append(k)
                        raise CommError("hiccup")
                    return comm.allreduce_scalar(float(comm.rank))

                hooks = []
                results, _ = pool.run(
                    body, retries=1, on_failure=lambda: hooks.append(k)
                )
                assert results == [float(sum(range(p)))] * p
                assert hooks == [k]
    finally:
        sys.setswitchinterval(interval)


def test_mpi_pool_runs_the_hook_and_rejects_reruns():
    """``MpiWorkerPool.run`` takes the same two parameters: it calls
    ``on_failure`` before a rank error propagates and refuses re-runs
    (its processes cannot agree to retry).  Exercised without mpi4py on a
    one-rank pool whose transport and communicator are stand-ins."""
    from types import SimpleNamespace

    from repro.runtime.backend_mpi import MpiWorkerPool

    pool = MpiWorkerPool.__new__(MpiWorkerPool)
    with pytest.raises(ReproError, match="retries=0"):
        pool.run(lambda comm: None, retries=1)

    pool.nranks, pool.local_rank, pool.deadline_ms = 1, 0, None
    pool._closed, pool._armed = False, None
    pool.world = SimpleNamespace(active_profiles={}, deadline=None)
    pool._local_comm = SimpleNamespace(profile=None)

    def failing(comm):
        raise ValueError("rank error")

    hooks = []
    with pytest.raises(ValueError, match="rank error"):
        pool.run(failing, on_failure=lambda: hooks.append(1))
    assert hooks == [1]


def test_retry_lives_at_the_pool_seam():
    """One definition of what is retryable, in ``runtime/spmd.py``, and no
    retry loop above the pool: ``session.py`` holds neither a tuple of the
    runtime-fault classes nor a loop over ``retries``."""
    import ast
    import inspect

    import repro.runtime.spmd as spmd
    import repro.session as session

    fault_classes = {"SpmdTimeout", "CommError", "FaultInjected", "SpmdAbort"}

    def fault_tuples(module):
        tree = ast.parse(inspect.getsource(module))
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Tuple)
            and len(fault_classes & {getattr(e, "id", None) for e in node.elts}) > 1
        ]

    assert len(fault_tuples(spmd)) == 1
    assert fault_tuples(session) == []
    tree = ast.parse(inspect.getsource(session))
    heads = [n.iter for n in ast.walk(tree) if isinstance(n, ast.For)]
    heads += [n.test for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert not any("retries" in ast.unparse(head) for head in heads)
    assert not hasattr(session.Session, "_RETRYABLE_ERRORS")


class TestPoolDispatch:
    def test_run_basic(self):
        with WorkerPool(4) as pool:
            results, report = pool.run(lambda comm: comm.rank * 2, label="basic")
            assert results == [0, 2, 4, 6]
            assert report.label == "basic"

    def test_concurrent_callers_are_serialized(self):
        """Two driver threads calling ``run`` on one pool: each item runs
        whole on the resident ranks, one after the other, and each caller
        gets its own results."""
        got = {}

        def drive(pool, shift):
            for _ in range(20):
                results, _ = pool.run(lambda comm: comm.shift(comm.rank, shift))
                got.setdefault(shift, set()).add(tuple(results))

        with WorkerPool(3, deadline_ms=10_000) as pool:
            drivers = [
                threading.Thread(target=drive, args=(pool, s)) for s in (1, -1)
            ]
            for t in drivers:
                t.start()
            for t in drivers:
                t.join()
        assert got == {
            1: {tuple((r - 1) % 3 for r in range(3))},
            -1: {tuple((r + 1) % 3 for r in range(3))},
        }

    def test_abort_with_a_sibling_blocked_in_a_shift_recovers(self):
        """One rank dies while a sibling is blocked in a shift's receive;
        the pool must unwind and recover."""

        def bad(comm):
            if comm.rank == 0:
                raise ValueError("boom mid-shift")
            # rank 1 sends, then blocks receiving rank 0's message, which
            # never comes — only the abort can release this wait
            return comm.shift(np.ones(16), displacement=1, tag=9)

        with WorkerPool(4) as pool:
            with pytest.raises(RuntimeError, match="rank 0 failed"):
                pool.run(bad, label="doomed")
            # recovered: the same resident ranks serve the next item
            results, _ = pool.run(lambda comm: comm.shift(comm.rank, 1))
            assert results == [(r - 1) % 4 for r in range(4)]

    def test_single_rank_pool_runs_inline(self):
        with WorkerPool(1) as pool:
            driver = threading.get_ident()
            results, _ = pool.run(lambda comm: threading.get_ident())
            assert results == [driver]


class TestPoolClose:
    def test_close_joins_all_threads(self):
        base = threading.active_count()
        pool = WorkerPool(8)
        assert threading.active_count() == base + 8
        pool.run(lambda comm: comm.barrier())
        pool.close()
        assert threading.active_count() == base

    def test_double_close_is_idempotent(self):
        pool = WorkerPool(3)
        pool.close()
        pool.close()

    def test_dispatch_after_close_raises(self):
        pool = WorkerPool(3)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.run(lambda comm: None)


@pytest.mark.parametrize(
    "name,p,c,comm",
    [
        ("1.5d-dense-shift", 8, 2, "dense"),
        ("1.5d-sparse-shift", 8, 4, "dense"),
        ("1.5d-sparse-shift", 8, 4, "sparse"),
        ("2.5d-dense-replicate", 8, 2, "dense"),
        ("2.5d-sparse-replicate", 8, 2, "sparse"),
    ],
    ids=lambda v: str(v),
)
class TestPoolSessionEquivalence:
    """A warm session vs a fresh session per call: bitwise equal
    (resident contexts never change results)."""

    ELISION = {
        "1.5d-dense-shift": "local-kernel-fusion",
        "1.5d-sparse-shift": "replication-reuse",
        "2.5d-dense-replicate": "none",
        "2.5d-sparse-replicate": "none",
    }

    def test_fused_calls_bitwise(self, name, p, c, comm):
        S, A, B = make_problem(96, 80, 16, 5, seed=11)
        elision = self.ELISION[name]
        kw = dict(p=p, c=c, algorithm=name, elision=elision, comm=comm)
        with repro.plan(S, 16, **kw) as warm:
            for _ in range(3):
                for kernel in ("fusedmm_b", "fusedmm_a"):
                    out_w, _ = getattr(warm, kernel)(A, B)
                    with repro.plan(S, 16, **kw) as cold:
                        out_c, _ = getattr(cold, kernel)(A, B)
                    np.testing.assert_array_equal(out_w, out_c)

    def test_contexts_built_once_per_orientation(self, name, p, c, comm):
        S, A, B = make_problem(96, 80, 16, 5, seed=11)
        elision = self.ELISION[name]
        with repro.plan(
            S, 16, p=p, c=c, algorithm=name, elision=elision, comm=comm
        ) as sess:
            for _ in range(4):
                sess.fusedmm_a(A, B)
                sess.fusedmm_b(A, B)
            # one make_context per rank per resident orientation, no
            # matter how many kernel calls ran
            assert all(count == p for count in sess.context_builds.values())
            assert 1 <= len(sess.context_builds) <= 2


class TestSessionPoolLifecycle:
    def test_exception_in_kernel_leaves_session_usable(self):
        """A raising edge_op aborts the dispatch; the session (and its
        pool) recover and later calls still produce correct results."""
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        ref, _ = repro.sddmm(S, A, B, p=4, c=2)
        with repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift") as sess:
            out, _ = sess.sddmm(A, B)
            np.testing.assert_array_equal(out.vals, ref.vals)

            def bad_edge(t_rows, b_cols):
                raise ValueError("edge explosion")

            with pytest.raises(RuntimeError, match="edge explosion"):
                sess.sddmm(A, B, edge_op=bad_edge)
            out, _ = sess.sddmm(A, B)
            np.testing.assert_array_equal(out.vals, ref.vals)

    def test_close_joins_pool_threads_and_is_idempotent(self):
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        sess = repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift")
        sess.sddmm(A, B)
        assert threading.active_count() == base + 4
        sess.close()
        sess.close()
        assert threading.active_count() == base
        with pytest.raises(ReproError, match="closed"):
            sess.sddmm(A, B)

    def test_abandoned_session_is_collectable(self):
        """Workers must not pin the last work item: its rank_fn closure
        references the session, and a live thread frame is a GC root —
        an abandoned (never-closed) session must still be collected and
        its __del__ must join the pool threads."""
        import gc
        import weakref

        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        sess = repro.plan(S, 8, p=4, c=2, algorithm="1.5d-dense-shift")
        sess.sddmm(A, B)
        ref = weakref.ref(sess)
        del sess
        gc.collect()
        assert ref() is None, "worker threads kept the abandoned session alive"
        assert threading.active_count() == base

    def test_one_shot_wrappers_leak_no_threads(self):
        S, A, B = make_problem(64, 64, 8, 4, seed=5)
        base = threading.active_count()
        repro.fusedmm_a(S, A, B, p=4, c=2, algorithm="1.5d-dense-shift")
        repro.sddmm(S, A, B, p=4, c=2)
        assert threading.active_count() == base
