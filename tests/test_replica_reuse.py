"""Cross-call replica reuse: a fiber-replicated input, or a ring-gathered
2.5D need-list panel, whose source block is unchanged since an earlier
call is not gathered again.

The rule (ARCHITECTURE.md, "Cross-call replica reuse"): a replication step
returns the panel an *earlier dispatch* built when its source is the very
same resident block object and nothing has re-acquired the panel's pool
slot since.  Covered here:

* warm calls on every family x comm move exactly the cold words
  minus the replication words minus each unchanged side's need-list
  gather (2.5D sparse-replicate, ``comm="sparse"``) minus the coordinates
  of every circulating chunk and, in an SDDMM round, one hop of its
  values (tests/test_carried_coords.py), in fewer messages,
  bitwise equal to the cold call, with one ``replica_hits`` per rank per
  reused replica or panel in ``Session.metrics()``;
* ``rmat_25d``'s steady state: alternating FusedMMA / FusedMMB re-gathers
  only the side whose panel the previous call's SpMM output overwrote —
  and, inside the third-slot budget (``SparsePlan25D.third_slot``), no
  side at all;
* a single ``elision="none"`` call still pays both of its replications;
* the misses: an operand mutated in place, the two orientations sharing
  one slot, an SpMMA between two SDDMMs, ``update_values``;
* ranks whose blocks are empty hit while the others miss, without a hang;
* seeded call sequences on a q = 3 grid, bitwise equal to fresh sessions
  and never timing out;
* failure recovery drops every rank's memo, inside the budget too, and
  ``peak_buffer_bytes`` counts a hit like an acquisition;
* the :class:`~repro.runtime.buffers.BufferPool` rule itself, and that
  a dispatch boundary frees a replica whose source block is gone.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_FIBER_AG, TAG_SHIFT_SV
from repro.apps.gat import DistributedGAT
from repro.comm_sparse.collectives import TAG_SPARSE_AG
from repro.runtime.buffers import BufferPool
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.profile import RankProfile
from repro.session import Session
from repro.sparse.coo import CooMatrix
from repro.types import Elision, Mode, Phase
from tests.helpers import chunk_round_traffic

P, C = 8, 2
N, R = 96, 8

KERNELS = {
    "sddmm": lambda sess, A, B: sess.sddmm(A, B)[0].vals,
    "spmm_a": lambda sess, A, B: sess.spmm_a(B)[0],
    "spmm_b": lambda sess, A, B: sess.spmm_b(A)[0],
    "fusedmm_a": lambda sess, A, B: sess.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda sess, A, B: sess.fusedmm_b(A, B)[0],
}

#: (family, comm, elision, kernel, panels): calls whose replication phase is
#: the reusable fiber gather alone (no output reduction rides in it);
#: ``panels`` names the need-list panels a warm call also skips — the input
#: sides of a 2.5D sparse-replicating call under ``comm="sparse"``
WARM_CASES = [
    ("1.5d-dense-shift", "dense", "replication-reuse", "fusedmm_b", ""),
    ("1.5d-dense-shift", "dense", "replication-reuse", "fusedmm_a", ""),
    ("1.5d-dense-shift", "dense", "none", "sddmm", ""),
    ("1.5d-dense-shift", "dense", "none", "spmm_b", ""),
    ("1.5d-sparse-shift", "dense", "replication-reuse", "fusedmm_b", ""),
    ("1.5d-sparse-shift", "dense", "replication-reuse", "fusedmm_a", ""),
    ("1.5d-sparse-shift", "dense", "none", "sddmm", ""),
    ("1.5d-sparse-shift", "dense", "none", "spmm_b", ""),
    ("1.5d-sparse-shift", "sparse", "replication-reuse", "fusedmm_b", ""),
    ("1.5d-sparse-shift", "sparse", "none", "sddmm", ""),
    ("2.5d-dense-replicate", "dense", "replication-reuse", "fusedmm_b", ""),
    ("2.5d-dense-replicate", "dense", "none", "sddmm", ""),
    ("2.5d-dense-replicate", "dense", "none", "spmm_b", ""),
    ("2.5d-sparse-replicate", "dense", "none", "spmm_a", ""),
    ("2.5d-sparse-replicate", "dense", "none", "spmm_b", ""),
    ("2.5d-sparse-replicate", "sparse", "none", "spmm_a", "b"),
    ("2.5d-sparse-replicate", "sparse", "none", "spmm_b", "a"),
]


@pytest.fixture(scope="module")
def problem():
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((N, R)), rng.standard_normal((N, R))


def _plan(S, family, comm="dense", elision="none", p=P, c=C, **kw):
    return repro.plan(
        S, R, p=p, c=c, algorithm=family, comm=comm, elision=elision, **kw,
    )


def _natural(S, **kw):
    """A 2.5D sparse-replicating session on the natural layout (a skewed
    operand would otherwise be permuted, filling every block)."""
    resolved = _plan(S, "2.5d-sparse-replicate", **kw).explain()
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


SIBLING_MODES = (Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B)
#: what ``run_rank`` collects after each single mode
SIBLING_COLLECT = {Mode.SDDMM: "sddmm", Mode.SPMM_A: "a", Mode.SPMM_B: "b"}


def _sibling(sess, mode, A, B):
    """One single-mode call on the transposed sibling ``(S.T, B, A)``
    through ``run_rank``: ``(output, metrics record)``."""
    out, _ = sess.run_rank(
        partial(sess.alg.rank_kernel, mode=mode), B, A, transpose=True,
        collect=SIBLING_COLLECT[mode],
    )
    return (out.vals if mode == Mode.SDDMM else out), sess.metrics()[-1]


def _comm_plans(sess, S):
    """The per-rank need-list plans of a 2.5D sparse-replicating session
    on the natural layout (the plan cache hands back the session's own)."""
    assert sess.explain().layout == "natural"
    alg = sess.alg
    return alg.build_comm_plans(alg.plan(*S.shape, R), S)


#: chunk rounds (ring cycles of S) per call of each kernel, each by whether
#: it only reads its chunk (an SpMM's) or accumulates in it (an SDDMM's)
ROUNDS = {
    "sddmm": (False,), "spmm_a": (True,), "spmm_b": (True,),
    "fusedmm_a": (False, True), "fusedmm_b": (False, True),
}


def _chunk_words_saved(sess, S, kernel):
    """Rank-summed chunk words a cold call of ``kernel`` moves and a warm
    one does not: the coordinates — two per nonzero of every chunk a rank
    receives (``CarriedCoords``) — and, in an SDDMM round, the values of
    the hop a warm round saves (a cold SpMM round already stops one hop
    short of home); zero where S does not circulate."""
    assert sess.explain().layout == "natural"
    warm = chunk_round_traffic(sess.alg, S, R, warm=True)
    return sum(
        3 * chunk_round_traffic(sess.alg, S, R, read_only=read_only) - warm
        for read_only in ROUNDS[kernel]
    )


def _panel_words(sess, S, sides):
    """Rank-summed words of the need-list gathers of ``sides`` — what a
    warm call saves on each panel it reuses."""
    if not sides:
        return 0
    return sum(
        getattr(cp, f"gather_{side}").recv_words()
        for cp in _comm_plans(sess, S)
        for side in sides
    )


class TestWarmCalls:
    @pytest.mark.parametrize(
        "family,comm,elision,kernel,panels", WARM_CASES,
        ids=[f"{f}/{c}/{e}/{k}" for f, c, e, k, _ in WARM_CASES],
    )
    def test_warm_call_skips_exactly_the_replication(
        self, problem, family, comm, elision, kernel, panels
    ):
        S, A, B = problem
        with _plan(S, family, comm, elision) as sess:
            skipped = _panel_words(sess, S, panels)
            skipped += _chunk_words_saved(sess, S, kernel)
            cold_out, cold, cold_repl = _call(sess, kernel, A, B)
            for _ in range(2):
                warm_out, warm, warm_repl = _call(sess, kernel, A, B)
                assert cold["replica_hits"] == 0 and cold_repl > 0
                # one replication per rank, plus one per reused panel
                assert warm["replica_hits"] == P * (1 + len(panels))
                assert warm_repl == 0
                assert warm["comm_words"] == cold["comm_words"] - cold_repl - skipped
                assert warm["comm_messages"] < cold["comm_messages"]
                assert np.array_equal(warm_out, cold_out)

    @pytest.mark.parametrize("comm", ["dense", "sparse"])
    def test_sddmm_value_gather(self, problem, comm):
        """The 2.5D sparse-replicating SDDMM's value all-gather: warm, it
        is not posted, and it saves exactly the gather an SpMM's
        replication moves — plus, under ``comm="sparse"``, both need-list
        panels."""
        S, A, B = problem
        family = "2.5d-sparse-replicate"
        panels = "ab" if comm == "sparse" else ""
        with _plan(S, family, comm) as sess:
            _, _, gather = _call(sess, "spmm_b", A, B)
        with _plan(S, family, comm) as sess:
            skipped = _panel_words(sess, S, panels)
            cold_out, cold, _ = _call(sess, "sddmm", A, B)
            warm_out, warm, _ = _call(sess, "sddmm", A, B)
        assert warm["replica_hits"] == P * (1 + len(panels))
        assert warm["comm_words"] == cold["comm_words"] - gather - skipped
        assert np.array_equal(warm_out, cold_out)

    def test_rmat_25d_steady_state(self, problem):
        """``rmat_25d``'s op shape — FusedMMA then FusedMMB on the same
        operands — on a q = 3 grid, above the third-slot budget.  Each
        call's SpMM accumulates in its output side's gather slot, which
        drops the panel stored there, so the next call gathers that side
        again although its block is unchanged (kernel outputs are
        transient); the other side's panel survives.  Every call after the
        first is steady: per rank it receives the output reduction and the
        dropped side's gather, nothing else, and hits twice — the S values
        and the kept panel.  Outputs equal a fresh session's.
        ``TestThirdSlot`` pins the within-budget case."""
        S, A, B = problem
        p = 18
        kw = dict(comm="sparse", p=p, c=2)
        kernels = ("fusedmm_a", "fusedmm_b")
        refs = {}
        for kernel in kernels:
            with _natural(S, **kw) as fresh:
                refs[kernel] = KERNELS[kernel](fresh, A, B)
        with _natural(S, **kw) as sess:
            cplans = _comm_plans(sess, S)
            for i in range(6):
                kernel = kernels[i % 2]
                out, rec, _ = _call(sess, kernel, A, B)
                assert np.array_equal(out, refs[kernel])
                if i == 0:
                    continue
                written, rebound = ("a", "b") if kernel == "fusedmm_a" else ("b", "a")
                assert rec["replica_hits"] == 2 * p
                for prof, cp in zip(sess.report().per_rank, cplans):
                    legs = (
                        getattr(cp, f"reduce_{written}"),
                        getattr(cp, f"gather_{rebound}"),
                    )
                    ctr = prof.counters[Phase.PROPAGATION]
                    assert ctr.words_received == sum(g.recv_words() for g in legs)
                    assert ctr.messages_received == sum(
                        g.recv_messages() for g in legs
                    )

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


def _budget_problem(n, nnz_per_row=1.0):
    """ER inside the third-slot budget, unlike ``problem``: one nonzero
    per row at p = 8.  At p = 18 the strips of width 4 split into chunks
    of 2, 1 and 1 columns; a one-column chunk's dense pieces leave room
    for three strip-wide panels only at about half a nonzero per row."""
    S = repro.erdos_renyi(n, n, nnz_per_row=nnz_per_row, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((n, R)), rng.standard_normal((n, R))


class TestThirdSlot:
    """Inside the budget (``SparsePlan25D.third_slot``) a need-list SpMM
    accumulates in a pool slot of its own, so both gathered panels
    outlive every kernel and a warm call on unchanged operands gathers
    nothing."""

    @pytest.mark.parametrize(
        "p,n,nnz_per_row", [(8, 256, 1.0), (18, 512, 0.5)], ids=["q2", "q3"]
    )
    def test_alternating_fused_calls_post_only_their_reductions(
        self, p, n, nnz_per_row
    ):
        """``rmat_25d``'s op shape.  From the second call on, per rank, a
        call receives its output reduction and nothing else on the
        PROPAGATION phase, and hits three times — the S values and both
        panels.  Outputs equal a fresh session's."""
        S, A, B = _budget_problem(n, nnz_per_row)
        kw = dict(comm="sparse", p=p, c=C)
        kernels = ("fusedmm_a", "fusedmm_b")
        refs = {}
        for kernel in kernels:
            with _natural(S, **kw) as fresh:
                refs[kernel] = KERNELS[kernel](fresh, A, B)
        with _natural(S, **kw) as sess:
            cplans = _comm_plans(sess, S)
            assert all(cp.third_slot for cp in cplans)
            for i in range(6):
                kernel = kernels[i % 2]
                out, rec, _ = _call(sess, kernel, A, B)
                assert np.array_equal(out, refs[kernel])
                if i == 0:
                    continue
                assert rec["replica_hits"] == 3 * p
                written = kernel[-1]
                for prof, cp in zip(sess.report().per_rank, cplans):
                    leg = getattr(cp, f"reduce_{written}")
                    ctr = prof.counters[Phase.PROPAGATION]
                    assert ctr.words_received == leg.recv_words()
                    assert ctr.messages_received == leg.recv_messages()

    @pytest.mark.parametrize("fused", ["fusedmm_a", "fusedmm_b"])
    def test_sddmm_after_a_fused_call_gathers_nothing(self, fused):
        """Whichever side the fused call wrote, both of its panels are
        still stored: the SDDMM that follows receives no PROPAGATION word
        or message and hits three times per rank."""
        S, A, B = _budget_problem(256)
        with _natural(S, comm="sparse") as fresh:
            ref, _, _ = _call(fresh, "sddmm", A, B)
        with _natural(S, comm="sparse") as sess:
            _call(sess, fused, A, B)
            out, rec, _ = _call(sess, "sddmm", A, B)
            ctrs = [prof.counters[Phase.PROPAGATION] for prof in sess.report().per_rank]
        assert rec["replica_hits"] == 3 * P
        assert all(c.words_received == c.messages_received == 0 for c in ctrs)
        assert np.array_equal(out, ref)


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

    @pytest.mark.parametrize(
        "family,comm",
        [
            ("1.5d-sparse-shift", "dense"),
            ("1.5d-sparse-shift", "sparse"),
            ("2.5d-sparse-replicate", "sparse"),
        ],
        ids=["dense", "sparse", "2.5d-sparse-replicate/sparse"],
    )
    def test_orientations_alternate_on_one_slot(self, problem, family, comm):
        """Both orientations of a session gather into the rank's same pool
        slots, so each acquisition invalidates the other's replica even
        though neither source changed.  On 1.5D sparse-shift, FusedMMA
        under replication reuse runs on the transposed sibling and
        FusedMMB on the forward orientation.  2.5D sparse-replicate has
        no transposed FusedMM; here the sibling runs each single mode on
        ``(S.T, B, A)`` between forward SDDMMs.  A sibling is never
        handed a panel built for the forward need lists (nor the reverse):
        each orientation binds its own block objects (source identity),
        and both acquire the same two slots ``gather-a`` / ``gather-b``, so
        each gather — or SpMM output panel, which looks nothing up —
        drops the other orientation's stored panel (the slot rule)."""
        S, A, B = problem
        if family == "1.5d-sparse-shift":
            kw = dict(p=P, c=C, algorithm=family, comm=comm,
                      elision="replication-reuse")
            ref_a, _ = repro.fusedmm_a(S, A, B, **kw)
            ref_b, _ = repro.fusedmm_b(S, A, B, **kw)
            with _plan(S, family, comm, "replication-reuse") as sess:
                for _ in range(3):
                    out_a, rec_a, _ = _call(sess, "fusedmm_a", A, B)
                    out_b, rec_b, _ = _call(sess, "fusedmm_b", A, B)
                    assert rec_a["replica_hits"] == rec_b["replica_hits"] == 0
                    assert np.array_equal(out_a, ref_a)
                    assert np.array_equal(out_b, ref_b)
            return
        refs_t = []
        for mode in SIBLING_MODES:
            with _plan(S, family, comm) as fresh:
                refs_t.append(_sibling(fresh, mode, A, B)[0])
        ref, _ = repro.sddmm(S, A, B, p=P, c=C, algorithm=family, comm=comm)
        with _plan(S, family, comm) as sess:
            _call(sess, "sddmm", A, B)
            for mode, ref_t in zip(SIBLING_MODES, refs_t):
                out_t, rec_t = _sibling(sess, mode, A, B)
                out, rec, _ = _call(sess, "sddmm", A, B)
                assert rec_t["replica_hits"] == rec["replica_hits"] == 0
                assert np.array_equal(out_t, ref_t)
                assert np.array_equal(out, ref.vals)

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
        """New values miss the value replica only: the need-list panel of
        A (``comm="sparse"``) depends on A alone and still hits."""
        S, A, B = problem
        vals = np.random.default_rng(11).standard_normal(S.nnz)
        S2 = S.with_values(vals)
        panels = 1 if comm == "sparse" else 0
        with _plan(S2, "2.5d-sparse-replicate", comm) as fresh:
            ref, _, _ = _call(fresh, "spmm_b", A, B)
        with _plan(S, "2.5d-sparse-replicate", comm) as sess:
            _call(sess, "spmm_b", A, B)
            _, warm, _ = _call(sess, "spmm_b", A, B)
            sess.update_values(vals)
            out, rec, repl = _call(sess, "spmm_b", A, B)
            again, rec2, _ = _call(sess, "spmm_b", A, B)
        assert warm["replica_hits"] == P * (1 + panels)
        assert rec["replica_hits"] == P * panels and repl > 0
        assert rec2["replica_hits"] == P * (1 + panels)
        assert np.array_equal(out, ref) and np.array_equal(again, ref)

    def test_empty_blocks_hit_while_others_miss(self, problem):
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
        with _natural(S.with_values(vals)) as fresh:
            ref, _, _ = _call(fresh, "sddmm", A, B)
        with _natural(S, deadline_ms=5000) as sess:
            _call(sess, "sddmm", A, B)
            sess.update_values(vals)
            out, rec, _ = _call(sess, "sddmm", A, B)
        q = sess.alg.grid.q
        assert rec["replica_hits"] == P - P // (q * q)  # one block of q*q full
        assert np.array_equal(out, ref)


#: what a drawn step of a call sequence does: a kernel call, an in-place
#: mutation of A or B, new S values, or a single mode on the transposed
#: sibling
SEQUENCE_STEPS = (
    "sddmm", "spmm_a", "spmm_b", "fusedmm_a", "fusedmm_b",
    "mutate", "update_values", *SIBLING_MODES,
)


def _step(sess, step, A, B):
    if isinstance(step, Mode):
        return _sibling(sess, step, A, B)[0]
    return KERNELS[step](sess, A, B)


def _random_sequence(problem, family, comm, seed):
    """20 seeded steps on one session of ``family`` on a p = 18 grid:
    every output is bitwise the same call's on a fresh session, and every
    call ends ``"ok"``.  Returns the session's metrics records."""
    S, A, B = problem
    A, B = A.copy(), B.copy()  # mutated in place below
    rng = np.random.default_rng(seed)
    vals = S.vals
    kw = dict(p=18, c=2)
    with _plan(S, family, comm, deadline_ms=5000, **kw) as sess:
        for _ in range(20):
            step = SEQUENCE_STEPS[rng.integers(len(SEQUENCE_STEPS))]
            if step == "mutate":
                (A, B)[rng.integers(2)][rng.integers(N)] += 1.0
            elif step == "update_values":
                vals = rng.standard_normal(S.nnz)
                sess.update_values(vals)
            else:
                got = _step(sess, step, A, B)
                with _plan(S.with_values(vals), family, comm, **kw) as fresh:
                    want = _step(fresh, step, A, B)
                assert np.array_equal(got, want), step
        records = sess.metrics()
    assert all(rec["outcome"] == "ok" for rec in records)
    return records


class TestCallSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_sequence_matches_fresh_sessions(self, problem, seed):
        """Seeded call sequences on 2.5D sparse-replicate, q = 3.  Within
        one ring the ranks must agree on hit or miss — a rank that skipped
        a gather its peer posted would leave the peer waiting — so under
        ``deadline_ms`` a disagreement shows as an ``SpmdTimeout`` (or a
        degraded re-run), not a hang."""
        records = _random_sequence(
            problem, "2.5d-sparse-replicate", "sparse", seed
        )
        assert sum(rec["replica_hits"] for rec in records) > 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "family,comm",
        [
            ("1.5d-sparse-shift", "dense"),
            ("1.5d-sparse-shift", "sparse"),
            ("2.5d-dense-replicate", "dense"),
        ],
        ids=["1.5d-sparse-shift/dense", "1.5d-sparse-shift/sparse",
             "2.5d-dense-replicate/dense"],
    )
    def test_chunk_ring_sequence_matches_fresh_sessions(
        self, problem, family, comm, seed
    ):
        """The same on the chunk-circulating families (layer ring of 9;
        q = 3 grid rows): every rank of a ring must agree whether a round
        is warm — one that shipped whole chunks to a peer expecting values
        alone would leave it waiting — so a disagreement shows as an
        ``SpmdTimeout``, not a hang."""
        _random_sequence(problem, family, comm, seed)


def _drop_a_panel_gather(S, calls, monkeypatch):
    """Run ``calls`` (``(kernel, A, B)`` triples) on a need-list session
    whose rank 1 drops its third packed-gather leg (call 2's A leg), with
    one retry.  Checks every output against a clean session's, that call
    2 alone is retried after hitting a stored replica, that its failure
    drops every rank's memo, and that its retry misses on the values and
    both panels on every rank; returns the metrics records."""
    family = "2.5d-sparse-replicate"
    lookups = []  # True / False per held_replica, "drop" per pool
    held, drop = BufferPool.held_replica, BufferPool.drop_replicas

    def spy_held(pool, label, source):
        panel = held(pool, label, source)
        lookups.append(panel is not None)
        return panel

    def spy_drop(pool):
        lookups.append("drop")
        drop(pool)

    monkeypatch.setattr(BufferPool, "held_replica", spy_held)
    monkeypatch.setattr(BufferPool, "drop_replicas", spy_drop)
    with _plan(S, family, "sparse") as clean:
        refs = [KERNELS[kernel](clean, A, B) for kernel, A, B in calls]
    plan = FaultPlan([FaultSpec("drop", rank=1, tag=TAG_SPARSE_AG, index=2)])
    with _plan(
        S, family, "sparse", deadline_ms=700, retries=1, faults=plan,
    ) as sess:
        records, spans = [], []
        for (kernel, A, B), ref in zip(calls, refs):
            start = len(lookups)
            out, rec, _ = _call(sess, kernel, A, B)
            assert np.array_equal(out, ref)
            records.append(rec)
            spans.append(lookups[start:])
    assert [rec["outcome"] for rec in records] == ["ok", "retried", "ok"]
    assert len(plan.fired_log) == 1
    failed = spans[1]
    first, last = failed.index("drop"), len(failed) - failed[::-1].index("drop")
    assert any(hit is True for hit in failed[:first])  # B's panel, values
    assert failed[first:last] == ["drop"] * P
    assert failed[last:] == [False] * (3 * P)  # values, A, B on every rank
    return records


class TestRecovery:
    @pytest.mark.parametrize(
        "family,kernel,fault,failing_call",
        [
            # call 1 ships whole chunks; from call 2 on only their values
            # travel, on their own channel: each rank sends n_layer - 1 = 3
            # value arrays per round, two rounds per call, so index 5 is
            # call 2's last value shift (its receiver waits out the
            # deadline; an earlier one would hand it the next shift's
            # values, whose stamp the receiving communicator rejects)
            ("1.5d-sparse-shift", "fusedmm_b",
             FaultSpec("drop", rank=0, tag=TAG_SHIFT_SV, index=5), 1),
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

    def test_drop_mid_panel_gather(self, problem, monkeypatch):
        """``rmat_25d``'s shape on the need-list path, above the
        third-slot budget.  Call 2 (FusedMMB) gathers only A, whose panel
        call 1's SpMMA output overwrote in the ``gather-a`` slot, and
        reuses B's panel.  Rank 1 sends 2 packed-gather legs in call 1 (A
        and B), so index 2 is its A leg of call 2: its row peer times out
        while the other ranks store the new A panel.  The failure hook
        drops every rank's memo, so on the retry every rank misses on the
        values and both panels — a rank that kept one would skip the
        gather its peer waits on — and the next call hits again."""
        S, A, B = problem
        calls = [("fusedmm_a", A, B), ("fusedmm_b", A, B), ("fusedmm_a", A, B)]
        records = _drop_a_panel_gather(S, calls, monkeypatch)
        assert records[2]["replica_hits"] == 2 * P

    def test_drop_mid_panel_gather_within_budget(self, monkeypatch):
        """The same inside the third-slot budget, where an unchanged A
        would not be gathered at all: call 2 (FusedMMB) changes A, so it
        gathers A alone and hits on the values and B's panel; the drop
        hits its A leg as above.  The retry misses on all three, and call
        3 (FusedMMA on the same operands) hits all three."""
        S, A, B = _budget_problem(256)
        A2 = A + 1.0
        calls = [("fusedmm_a", A, B), ("fusedmm_b", A2, B), ("fusedmm_a", A2, B)]
        records = _drop_a_panel_gather(S, calls, monkeypatch)
        assert records[2]["replica_hits"] == 3 * P


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

    @pytest.mark.parametrize("acquire", ["empty", "zeros"])
    def test_acquiring_the_slot_drops_the_memo(self, acquire):
        pool = BufferPool()
        src = np.ones(3)
        gather, calls = self._gatherer(pool)
        panel = pool.replica("panel", src, gather)
        pool.release_all()
        buf = getattr(pool, acquire)("panel", (2, 2))
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

    def test_a_dispatch_boundary_frees_a_replica_whose_source_is_gone(self):
        pool = BufferPool()
        src = np.ones(3)
        pool.replica("panel", src, self._gatherer(pool)[0])
        pool.release_all()
        assert "panel" in pool._replicas  # its source lives: it may hit
        del src
        pool.release_all()
        assert not pool._replicas

    def test_gat_reuse_leaves_no_dead_replica_past_the_next_dispatch(self):
        """One GAT replication-reuse forward replicates a node-feature
        block that dies with the forward; the session's next dispatch (an
        ``spmm_a``) frees that panel on every rank."""
        p, c, n, r_in = 8, 2, 512, 32
        adj = repro.erdos_renyi(n, n, 8, seed=1, values="ones")
        X = np.random.default_rng(2).standard_normal((n, r_in))
        with DistributedGAT(p=p, c=c, n_heads=2, r_in=r_in, r_head=16,
                            elision=Elision.REPLICATION_REUSE, seed=3) as gat:
            gat.forward(adj, X)
            sess = gat._sess
            sess.spmm_a(np.ones((n, 16)))
            for pool in sess.alg._pools.values():
                assert all(src() is not None for src, *_ in pool._replicas.values())
