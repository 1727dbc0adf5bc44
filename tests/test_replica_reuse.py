"""Cross-call replica reuse: a fiber-replicated input whose source block is
unchanged since an earlier call is not gathered again.

The rule (ARCHITECTURE.md, "Cross-call replica reuse"): a replication step
returns the panel an *earlier dispatch* built when its source is the very
same resident block object and nothing has re-acquired the panel's pool
slot since.  Covered here:

* warm calls on every family x comm x overlap move exactly the cold words
  minus the replication words, in fewer messages, bitwise equal to the
  cold call, with one ``replica_hits`` per rank in ``Session.metrics()``;
* a single ``elision="none"`` call still pays both of its replications;
* the misses: an operand mutated in place, the two orientations sharing
  one slot, an SpMMA between two SDDMMs, ``update_values``;
* ranks whose blocks are empty hit while the others miss, without a hang;
* failure recovery drops every rank's memo, and ``peak_buffer_bytes``
  counts a hit like an acquisition;
* the :class:`~repro.runtime.buffers.BufferPool` rule itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_FIBER_AG, TAG_SHIFT_S
from repro.runtime.buffers import BufferPool
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.profile import RankProfile
from repro.session import Session
from repro.sparse.coo import CooMatrix
from repro.types import Phase

P, C = 8, 2
N, R = 96, 8

KERNELS = {
    "sddmm": lambda sess, A, B: sess.sddmm(A, B)[0].vals,
    "spmm_a": lambda sess, A, B: sess.spmm_a(B)[0],
    "spmm_b": lambda sess, A, B: sess.spmm_b(A)[0],
    "fusedmm_a": lambda sess, A, B: sess.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda sess, A, B: sess.fusedmm_b(A, B)[0],
    "fusedmm_b_async": lambda sess, A, B: sess.fusedmm_b_async(A, B).result()[0],
}

#: (family, comm, elision, kernel): calls whose replication phase is the
#: reusable fiber gather alone (no output reduction rides in it)
WARM_CASES = [
    ("1.5d-dense-shift", "dense", "replication-reuse", "fusedmm_b"),
    ("1.5d-dense-shift", "dense", "none", "sddmm"),
    ("1.5d-sparse-shift", "dense", "replication-reuse", "fusedmm_b_async"),
    ("1.5d-sparse-shift", "sparse", "replication-reuse", "fusedmm_b"),
    ("1.5d-sparse-shift", "sparse", "none", "sddmm"),
    ("2.5d-dense-replicate", "dense", "replication-reuse", "fusedmm_b"),
    ("2.5d-sparse-replicate", "dense", "none", "spmm_b"),
    ("2.5d-sparse-replicate", "sparse", "none", "spmm_a"),
]


@pytest.fixture(scope="module")
def problem():
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((N, R)), rng.standard_normal((N, R))


def _plan(S, family, comm="dense", elision="none", overlap="off", **kw):
    return repro.plan(
        S, R, p=P, c=C, algorithm=family, comm=comm, elision=elision,
        overlap=overlap, **kw,
    )


def _natural(S, overlap, **kw):
    """A 2.5D sparse-replicating session on the natural layout (a skewed
    operand would otherwise be permuted, filling every block)."""
    resolved = _plan(S, "2.5d-sparse-replicate", overlap=overlap, **kw).explain()
    return Session(S, dataclasses.replace(resolved, layout="natural"))


def _call(sess, kernel, A, B):
    """One call in its own accumulation window: ``(output, metrics record,
    rank-summed replication-phase words)``."""
    sess.reset_profile()
    out = KERNELS[kernel](sess, A, B)
    [rec] = sess.metrics()
    repl = sum(
        p.counters[Phase.REPLICATION].words_received for p in sess.report().per_rank
    )
    return out, rec, repl


class TestWarmCalls:
    @pytest.mark.parametrize("overlap", ["off", "on"])
    @pytest.mark.parametrize(
        "family,comm,elision,kernel", WARM_CASES,
        ids=[f"{f}/{c}/{e}/{k}" for f, c, e, k in WARM_CASES],
    )
    def test_warm_call_skips_exactly_the_replication(
        self, problem, family, comm, elision, kernel, overlap
    ):
        S, A, B = problem
        with _plan(S, family, comm, elision, overlap) as sess:
            cold_out, cold, cold_repl = _call(sess, kernel, A, B)
            for _ in range(2):
                warm_out, warm, warm_repl = _call(sess, kernel, A, B)
                assert cold["replica_hits"] == 0 and cold_repl > 0
                assert warm["replica_hits"] == P  # one replication per rank
                assert warm_repl == 0
                assert warm["comm_words"] == cold["comm_words"] - cold_repl
                assert warm["comm_messages"] < cold["comm_messages"]
                assert np.array_equal(warm_out, cold_out)

    @pytest.mark.parametrize("overlap", ["off", "on"])
    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_sddmm_value_gather_behind_the_kernel(self, problem, comm, overlap):
        """The 2.5D sparse-replicating SDDMM's value all-gather completes
        behind its kernel (``allgather_behind``); warm, it is not posted,
        and it saves exactly the gather an SpMM's replication moves."""
        S, A, B = problem
        family = "2.5d-sparse-replicate"
        with _plan(S, family, comm, overlap=overlap) as sess:
            _, _, gather = _call(sess, "spmm_b", A, B)
        with _plan(S, family, comm, overlap=overlap) as sess:
            cold_out, cold, _ = _call(sess, "sddmm", A, B)
            warm_out, warm, _ = _call(sess, "sddmm", A, B)
        assert warm["replica_hits"] == P
        assert warm["comm_words"] == cold["comm_words"] - gather
        assert np.array_equal(warm_out, cold_out)

    def test_fixed_b_pattern(self, problem):
        """``er_comm``'s shape: FusedMMA under replication reuse runs on
        the transposed sibling, whose replicated side is the fixed B; A
        changes every call and every call after the first reuses B's
        replica.  The peak buffer of a warm window is the cold one."""
        S, _, B = problem
        rng = np.random.default_rng(9)
        As = [rng.standard_normal((N, R)) for _ in range(3)]
        kw = dict(comm="sparse", elision="replication-reuse")
        refs = [
            repro.fusedmm_a(S, A, B, p=P, c=C, algorithm="1.5d-sparse-shift", **kw)
            for A in As
        ]
        with _plan(S, "1.5d-sparse-shift", **kw) as sess:
            for i in range(6):
                out, rec, repl = _call(sess, "fusedmm_a", As[i % 3], B)
                assert np.array_equal(out, refs[i % 3][0])
                assert rec["replica_hits"] == (0 if i == 0 else P)
                assert (repl == 0) == (i > 0)
                # a hit reports the pool's resident bytes like an acquisition
                assert rec["peak_buffer_bytes"] == refs[0][1].peak_buffer_bytes > 0

    @pytest.mark.parametrize(
        "family", ["1.5d-dense-shift", "1.5d-sparse-shift", "2.5d-dense-replicate"]
    )
    def test_unfused_call_still_pays_two_replications(self, problem, family):
        """Within a call, reuse is the elision knob's job: a cold
        ``elision="none"`` FusedMMB gathers A for its SDDMM and again for
        its SpMMB.  Only a later call reuses the panel, for both."""
        S, A, B = problem
        with _plan(S, family) as sess:
            _, _, one = _call(sess, "sddmm", A, B)
        with _plan(S, family) as sess:
            cold_out, cold, cold_repl = _call(sess, "fusedmm_b", A, B)
            warm_out, warm, warm_repl = _call(sess, "fusedmm_b", A, B)
        assert cold["replica_hits"] == 0
        assert cold_repl == 2 * one
        assert warm["replica_hits"] == 2 * P and warm_repl == 0
        assert np.array_equal(warm_out, cold_out)


class TestMisses:
    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_operand_mutated_in_place(self, problem, comm):
        S, A, B = problem
        A = A.copy()
        with _plan(S, "1.5d-sparse-shift", comm, "replication-reuse") as sess:
            _call(sess, "fusedmm_b", A, B)
            A[3] += 1.0  # same array object, new values: skip-rebind sees it
            out, rec, repl = _call(sess, "fusedmm_b", A, B)
        ref, _ = repro.fusedmm_b(
            S, A, B, p=P, c=C, algorithm="1.5d-sparse-shift", comm=comm,
            elision="replication-reuse",
        )
        assert rec["replica_hits"] == 0 and repl > 0
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_orientations_alternate_on_one_slot(self, problem, comm):
        """FusedMMA under replication reuse runs on the transposed sibling,
        FusedMMB on the forward orientation; both gather into the rank's
        one panel slot, so each acquisition invalidates the other's
        replica even though neither source changed."""
        S, A, B = problem
        kw = dict(p=P, c=C, algorithm="1.5d-sparse-shift", comm=comm,
                  elision="replication-reuse")
        ref_a, _ = repro.fusedmm_a(S, A, B, **kw)
        ref_b, _ = repro.fusedmm_b(S, A, B, **kw)
        with _plan(S, "1.5d-sparse-shift", comm, "replication-reuse") as sess:
            for _ in range(3):
                out_a, rec_a, _ = _call(sess, "fusedmm_a", A, B)
                out_b, rec_b, _ = _call(sess, "fusedmm_b", A, B)
                assert rec_a["replica_hits"] == rec_b["replica_hits"] == 0
                assert np.array_equal(out_a, ref_a)
                assert np.array_equal(out_b, ref_b)

    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_spmm_a_between_two_sddmms(self, problem, comm):
        """The SpMMA accumulator re-acquires the gather panel's slot (and
        overwrites the A side): the second SDDMM gathers afresh."""
        S, A, B = problem
        with _plan(S, "1.5d-sparse-shift", comm) as sess:
            first, _, _ = _call(sess, "sddmm", A, B)
            spmm, _, _ = _call(sess, "spmm_a", A, B)
            second, rec, repl = _call(sess, "sddmm", A, B)
        assert rec["replica_hits"] == 0 and repl > 0
        assert np.array_equal(first, second)
        assert np.array_equal(
            spmm, repro.spmm_a(S, B, p=P, c=C, algorithm="1.5d-sparse-shift",
                               comm=comm)[0]
        )

    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_update_values_invalidates_the_value_replica(self, problem, comm):
        S, A, B = problem
        vals = np.random.default_rng(11).standard_normal(S.nnz)
        S2 = S.with_values(vals)
        with _plan(S2, "2.5d-sparse-replicate", comm) as fresh:
            ref, _, _ = _call(fresh, "spmm_b", A, B)
        with _plan(S, "2.5d-sparse-replicate", comm) as sess:
            _call(sess, "spmm_b", A, B)
            _, warm, _ = _call(sess, "spmm_b", A, B)
            sess.update_values(vals)
            out, rec, repl = _call(sess, "spmm_b", A, B)
            again, rec2, _ = _call(sess, "spmm_b", A, B)
        assert warm["replica_hits"] == P
        assert rec["replica_hits"] == 0 and repl > 0
        assert rec2["replica_hits"] == P
        assert np.array_equal(out, ref) and np.array_equal(again, ref)

    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_empty_blocks_hit_while_others_miss(self, problem, overlap):
        """Nonzeros only in the top-left coarse block: ``update_values``
        rebinds the value chunks of that block's fiber alone, so after it
        those ranks miss and the ranks of the three empty blocks hit.
        Each fiber decides as one, so nobody waits on a skipped gather."""
        _, A, B = problem
        rng = np.random.default_rng(5)
        D = np.zeros((N, N))
        D[: N // 2, : N // 2] = rng.standard_normal((N // 2, N // 2))
        D[rng.random((N, N)) < 0.85] = 0.0
        rows, cols = np.nonzero(D)
        S = CooMatrix(rows, cols, D[rows, cols], D.shape)
        vals = rng.standard_normal(S.nnz)
        with _natural(S.with_values(vals), overlap) as fresh:
            ref, _, _ = _call(fresh, "sddmm", A, B)
        with _natural(S, overlap, deadline_ms=5000) as sess:
            _call(sess, "sddmm", A, B)
            sess.update_values(vals)
            out, rec, _ = _call(sess, "sddmm", A, B)
        q = sess.alg.grid.q
        assert rec["replica_hits"] == P - P // (q * q)  # one block of q*q full
        assert np.array_equal(out, ref)


class TestRecovery:
    @pytest.mark.parametrize(
        "family,kernel,fault,failing_call",
        [
            # each rank ships its chunk n_layer = 4 times per round, two
            # rounds per call: index 15 is call 2's last shift (its
            # receiver waits out the deadline; an earlier one would hand
            # it the next phase's chunk instead)
            ("1.5d-sparse-shift", "fusedmm_b",
             FaultSpec("drop", rank=0, tag=TAG_SHIFT_S, index=15), 1),
            # call 1's fiber gather of A: one fiber stores, the other
            # times out; the retry rebinds A, so every source is new
            ("1.5d-sparse-shift", "fusedmm_b",
             FaultSpec("drop", rank=1, tag=TAG_FIBER_AG), 0),
            # call 1's fiber gather of the S values, whose source no
            # retry rebinds: rank 1 completes and stores, its fiber peer
            # rank 0 times out; a memo that survived the failure would
            # have rank 1 skip the retry's gather and rank 0 wait on it
            ("2.5d-sparse-replicate", "spmm_b",
             FaultSpec("drop", rank=1, tag=TAG_FIBER_AG), 0),
        ],
        ids=[
            "propagation-of-a-warm-call",
            "replication-of-the-cold-call",
            "value-replication-of-the-cold-call",
        ],
    )
    def test_fault_drops_every_memo_and_retries_clean(
        self, problem, family, kernel, fault, failing_call
    ):
        S, A, B = problem
        elision = "replication-reuse" if family.startswith("1.5d") else "none"
        with _plan(S, family, elision=elision) as clean:
            ref = KERNELS[kernel](clean, A, B)
        plan = FaultPlan([fault])
        with _plan(
            S, family, elision=elision, deadline_ms=700, retries=1, faults=plan,
        ) as sess:
            outcomes = []
            for _ in range(3):
                out, rec, _ = _call(sess, kernel, A, B)
                assert np.array_equal(out, ref)
                outcomes.append(rec["outcome"])
            assert len(plan.fired_log) == 1
            expected = ["ok"] * 3
            expected[failing_call] = "retried"
            assert outcomes == expected
            # the call after a recovery reuses the retry's replicas again
            assert rec["replica_hits"] == P
            assert sess.plan_builds == 1


class TestPoolRule:
    @staticmethod
    def _gatherer(pool, label="panel"):
        calls = []

        def gather():
            calls.append(1)
            buf = pool.empty(label, (2, 2))
            buf.fill(len(calls))
            return buf

        return gather, calls

    def test_hit_only_in_a_later_dispatch(self):
        pool = BufferPool(profile=RankProfile())
        src = np.ones(3)
        gather, calls = self._gatherer(pool)
        pool.replica("panel", src, gather)
        second = pool.replica("panel", src, gather)  # same dispatch: a miss
        assert len(calls) == 2
        pool.release_all()  # dispatch boundary
        assert pool.replica("panel", src, gather) is second
        assert len(calls) == 2 and pool.profile.replica_hits == 1
        assert not second.flags.writeable

    def test_same_values_in_another_object_miss(self):
        pool = BufferPool()
        gather, calls = self._gatherer(pool)
        pool.replica("panel", np.ones(3), gather)
        pool.release_all()
        pool.replica("panel", np.ones(3), gather)
        assert len(calls) == 2

    @pytest.mark.parametrize("acquire", ["empty", "zeros", "lease"])
    def test_acquiring_the_slot_drops_the_memo(self, acquire):
        pool = BufferPool()
        src = np.ones(3)
        gather, calls = self._gatherer(pool)
        panel = pool.replica("panel", src, gather)
        pool.release_all()
        buf = getattr(pool, acquire)("panel", (2, 2))
        if acquire != "lease":  # a lease takes the sibling slot panel@0
            assert buf is panel
        assert buf.flags.writeable  # the slot is writeable again
        pool.replica("panel", src, gather)
        assert len(calls) == 2

    def test_hit_reports_resident_bytes(self):
        pool = BufferPool(profile=RankProfile())
        src = np.ones(3)
        pool.replica("panel", src, self._gatherer(pool)[0])
        pool.release_all()
        pool.profile = RankProfile()  # a fresh accumulation window
        pool.replica("panel", src, self._gatherer(pool)[0])
        assert pool.profile.peak_buffer_bytes == pool.total_bytes == 32

    def test_drop_replicas(self):
        pool = BufferPool()
        src = np.ones(3)
        gather, calls = self._gatherer(pool)
        pool.replica("panel", src, gather)
        pool.drop_replicas()
        pool.release_all()
        pool.replica("panel", src, gather)
        assert len(calls) == 2
