"""Warm-call reuse of circulating chunk coordinates: a chunk ring that
already carried a chunk's structure moves only its values.

The rule (ARCHITECTURE.md, "What travels"): a sparse chunk's ``(rows,
cols)`` are fixed for the life of a resident distribution, so each rank
keeps the coordinates it received at each ring position, per kernel
space and travel order, on its resident context
(:class:`~repro.algorithms.base.CarriedCoords`), and a later round of the
same chunk ring ships values alone.  Covered here, for each
chunk-circulating family x comm x grid:

* a warm round on a ring of ``L`` ranks moves the values alone, 1 word
  per nonzero, in ``L − 1`` shifts: an SpMM round's values stop one hop
  short of home (as its cold chunk triple does), an SDDMM round's
  accumulator starts one hop downstream — all of a 1.5D sparse-shift
  call's PROPAGATION words — one message per rank fewer than the cold
  SDDMM round's ``L``;
* outputs are bitwise the cold call's and a fresh session's, also after
  ``update_values`` (the memo survives it) and on the transposed sibling;
* a warm call's value message dropped or duplicated ends in a retryable
  error — the communicator's stamp check, or the deadline — and a
  bitwise retry that rebuilds the memo on every rank, as does a fault
  that leaves a cold round's entries complete on some ranks only, or
  one in a cold SDDMM round;
* the memo rule itself, on ``ring_loop`` (trailing and leading rounds)
  and on ``CarriedCoords``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.base import (
    TAG_SHIFT_B,
    TAG_SHIFT_S,
    TAG_SHIFT_SV,
    CarriedCoords,
    DistributedAlgorithm,
    Lane,
    frozen,
)
from repro.errors import CommError, SpmdTimeout
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import retryable, run_spmd
from repro.types import Phase
from tests.helpers import chunk_round_traffic, chunk_rings

P, C = 8, 2
N, R = 96, 8
#: (p, c) grids: rings of 4 (1.5D) and 2 (2.5D) on two layers, and odd
#: rings of 9 and 3 on one layer, which replicates nothing
GRIDS = [(P, C), (9, 1)]

#: (family, comm) of every chunk-circulating path
CHUNK_PATHS = [
    ("1.5d-sparse-shift", "dense"),
    ("1.5d-sparse-shift", "sparse"),
    ("2.5d-dense-replicate", "dense"),
]
#: (family, comm, grid) of every chunk-circulating path on each of GRIDS;
#: the default grid keeps the bare path as its id
GRID_PATHS = [(f, c, grid) for grid in GRIDS for f, c in CHUNK_PATHS]
GRID_PATH_IDS = [
    f"{f}/{c}" + ("" if grid == (P, C) else "/p{}c{}".format(*grid))
    for f, c, grid in GRID_PATHS
]

KERNELS = {
    "sddmm": lambda sess, A, B: sess.sddmm(A, B)[0].vals,
    "spmm_a": lambda sess, A, B: sess.spmm_a(B)[0],
    "spmm_b": lambda sess, A, B: sess.spmm_b(A)[0],
    "fusedmm_a": lambda sess, A, B: sess.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda sess, A, B: sess.fusedmm_b(A, B)[0],
}
#: chunk rounds per call, each by whether it only reads its chunk (an
#: SpMM's) or accumulates in it (an SDDMM's); FusedMMA under replication
#: reuse runs on the transposed sibling
ROUNDS = {
    "sddmm": (False,), "spmm_a": (True,), "spmm_b": (True,),
    "fusedmm_a": (False, True), "fusedmm_b": (False, True),
}


@pytest.fixture(scope="module")
def problem():
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((N, R)), rng.standard_normal((N, R))


def _plan(S, family, comm, elision="none", grid=(P, C), **kw):
    p, c = grid
    return repro.plan(
        S, R, p=p, c=c, algorithm=family, comm=comm, elision=elision, **kw,
    )


def _call(sess, kernel, A, B):
    """One call in its own accumulation window: ``(output, rank-summed
    PROPAGATION words, messages, metrics record)``."""
    sess.reset_profile()
    out = KERNELS[kernel](sess, A, B)
    [rec] = sess.metrics()
    ctrs = [p.counters[Phase.PROPAGATION] for p in sess.report().per_rank]
    words = sum(c.words_received for c in ctrs)
    msgs = sum(c.messages_received for c in ctrs)
    return out, words, msgs, rec


def _fresh(S, family, comm, kernel, A, B, elision="none", grid=(P, C)):
    with _plan(S, family, comm, elision, grid) as sess:
        return KERNELS[kernel](sess, A, B)


def _traffic(sess, S, kernel, transpose=False, warm=False):
    """The nonzeros the call's chunk rounds receive, rank-summed, for
    ``kernel`` on its orientation of ``S``, cold or warm."""
    assert sess.explain().layout == "natural"
    S = S.transposed() if transpose else S
    return sum(
        chunk_round_traffic(sess.alg, S, R, warm=warm, read_only=read_only)
        for read_only in ROUNDS[kernel]
    )


def _saved_words(sess, S, kernel, transpose=False):
    """The chunk words a warm call of ``kernel`` saves on a cold one: the
    coordinates, and one hop of values per rank and SDDMM round (a cold
    SpMM round already stops one hop short of home)."""
    cold = _traffic(sess, S, kernel, transpose)
    return 3 * cold - _traffic(sess, S, kernel, transpose, warm=True)


def _ring_ranks(sess, S):
    """Ranks on a ring that moves something: each receives one message
    fewer per warm SDDMM round than per cold one (an SpMM round makes
    ``L − 1`` shifts either way)."""
    return sum(size for size, _ in chunk_rings(sess.alg, S, R) if size > 1)


class TestWarmRounds:
    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("family,comm,grid", GRID_PATHS, ids=GRID_PATH_IDS)
    def test_warm_round_moves_values_only(
        self, problem, family, comm, grid, kernel
    ):
        """Cold, every chunk a rank receives is 3 words per nonzero, in
        ``L`` shifts of an SDDMM round and ``L − 1`` of an SpMM round;
        warm, 1, in ``L − 1`` — one message fewer per rank and SDDMM
        round.  The other lanes (2.5D's B block) move what they moved."""
        S, A, B = problem
        with _plan(S, family, comm, grid=grid) as sess:
            nnz = _traffic(sess, S, kernel)
            warm_nnz = _traffic(sess, S, kernel, warm=True)
            saved_msgs = _ring_ranks(sess, S) * ROUNDS[kernel].count(False)
            cold_out, cold_words, cold_msgs, _ = _call(sess, kernel, A, B)
            for _ in range(2):
                out, words, msgs, _ = _call(sess, kernel, A, B)
                assert 0 < warm_nnz < 3 * nnz
                # fewer shifts warm exactly when an SDDMM round is run
                assert (warm_nnz < nnz) == (False in ROUNDS[kernel])
                rest = cold_words - 3 * nnz  # the lanes that are not S
                assert words - rest == warm_nnz  # L − 1 hops of values
                if family.startswith("1.5d"):
                    assert rest == 0 and words == warm_nnz
                assert msgs == cold_msgs - saved_msgs
                assert np.array_equal(out, cold_out)
        fresh = _fresh(S, family, comm, kernel, A, B, grid=grid)
        assert np.array_equal(cold_out, fresh)

    @pytest.mark.parametrize("family,comm,grid", GRID_PATHS, ids=GRID_PATH_IDS)
    def test_memo_survives_update_values_and_serves_each_orientation(
        self, problem, family, comm, grid
    ):
        """New values leave the structure, so the next round is still
        warm and equals a fresh session on the new values.  FusedMMA under
        replication reuse runs on the transposed sibling, whose rings
        carry the chunks of ``S.T``: its first call is cold, its second
        warm, and neither disturbs the forward orientation's memo."""
        S, A, B = problem
        vals = np.random.default_rng(11).standard_normal(S.nnz)
        S2 = S.with_values(vals)
        args = (family, comm)
        kw = dict(elision="replication-reuse", grid=grid)
        with _plan(S, *args, **kw) as sess:
            saved_b = _saved_words(sess, S, "fusedmm_b")
            saved_a = _saved_words(sess, S, "fusedmm_a", transpose=True)
            cold_b, cold_words_b, _, _ = _call(sess, "fusedmm_b", A, B)
            warm_b, warm_words_b, _, _ = _call(sess, "fusedmm_b", A, B)
            assert cold_words_b - warm_words_b == saved_b
            assert np.array_equal(warm_b, cold_b)
            assert np.array_equal(cold_b, _fresh(S, *args, "fusedmm_b", A, B, **kw))

            sess.update_values(vals)
            new_b, words, _, _ = _call(sess, "fusedmm_b", A, B)
            assert words == warm_words_b
            assert np.array_equal(new_b, _fresh(S2, *args, "fusedmm_b", A, B, **kw))

            ref_a = _fresh(S2, *args, "fusedmm_a", A, B, **kw)
            cold_a, cold_words_a, _, _ = _call(sess, "fusedmm_a", A, B)
            warm_a, warm_words_a, _, _ = _call(sess, "fusedmm_a", A, B)
            assert cold_words_a - warm_words_a == saved_a > 0
            assert np.array_equal(cold_a, ref_a) and np.array_equal(warm_a, ref_a)

            again_b, words, _, _ = _call(sess, "fusedmm_b", A, B)
            assert words == warm_words_b
            assert np.array_equal(again_b, new_b)


class TestWarmFaults:
    @pytest.mark.parametrize(
        "action,where",
        [("drop", "first"), ("drop", "last"), ("dup", "first")],
        ids=["drop-first", "drop-last", "dup-first"],
    )
    @pytest.mark.parametrize("family,comm,grid", GRID_PATHS, ids=GRID_PATH_IDS)
    def test_warm_value_message_fault_retries_clean(
        self, problem, family, comm, grid, action, where
    ):
        """Rank 0's first or last value message of call 2 (its first warm
        call) is lost or delivered twice.  A lost one hands the receiver
        the next message on the channel — its stamp is one ahead, a
        ``CommError`` — or, the last one (the SpMMB round's shift before
        its free hop home), leaves it waiting out the deadline; a
        duplicate repeats a stamp, the same error.  Both are retryable: the failure
        hook drops every rank's context, so the retry is a cold round on
        every rank (bitwise the clean output) that fills the memo again,
        and call 3 is warm everywhere — a rank without an entry would ship
        whole chunks its peers do not wait for."""
        S, A, B = problem
        kernel = "fusedmm_b"
        with _plan(S, family, comm, grid=grid) as clean:
            ref = KERNELS[kernel](clean, A, B)
            _call(clean, kernel, A, B)
            _, warm_words, warm_msgs, _ = _call(clean, kernel, A, B)
        layout = clean.alg.grid
        ring = layout.layer_size if family.startswith("1.5d") else layout.q
        # rank 0's value messages: ring - 1 per warm round, the SDDMM's
        # then the SpMMB's (a cold round ships its chunks whole, on
        # TAG_SHIFT_S)
        index = 0 if where == "first" else 2 * (ring - 1) - 1
        plan = FaultPlan([FaultSpec(action, rank=0, tag=TAG_SHIFT_SV, index=index)])
        with _plan(
            S, family, comm, grid=grid, deadline_ms=700, retries=1, faults=plan,
        ) as sess:
            records = []
            for _ in range(3):
                out, words, msgs, rec = _call(sess, kernel, A, B)
                assert np.array_equal(out, ref)
                records.append(rec)
            assert (words, msgs) == (warm_words, warm_msgs)
            assert sess.plan_builds == 1
        assert [rec["outcome"] for rec in records] == ["ok", "retried", "ok"]
        assert len(plan.fired_log) == 1

    @pytest.mark.parametrize("family,comm,grid", GRID_PATHS, ids=GRID_PATH_IDS)
    def test_fault_in_the_cold_round_refills_every_rank(
        self, problem, family, comm, grid
    ):
        """Rank 0's last chunk message of call 1 (in the cold SpMMB round,
        whose read-only chunk stops one hop short of home) is lost: its
        receiver's entry stays one position short while it waits out the
        deadline.  Every other rank's entry is complete.  Were the memos
        to survive the failure, the retry would run warm on every rank
        but that one; the hook drops them on every rank, so the retry
        fills them again everywhere and the next calls are warm."""
        S, A, B = problem
        kernel = "fusedmm_b"
        with _plan(S, family, comm, grid=grid) as clean:
            ref = KERNELS[kernel](clean, A, B)
            _, warm_words, warm_msgs, _ = _call(clean, kernel, A, B)
        layout = clean.alg.grid
        ring = layout.layer_size if family.startswith("1.5d") else layout.q
        # one coordinate-carrying message per shift: ``ring`` in the cold
        # SDDMM round, ``ring - 1`` in the cold SpMMB round
        lost = FaultSpec("drop", rank=0, tag=TAG_SHIFT_S, index=2 * ring - 2)
        plan = FaultPlan([lost])
        with _plan(
            S, family, comm, grid=grid, deadline_ms=700, retries=1, faults=plan,
        ) as sess:
            records = []
            for _ in range(3):
                out, words, msgs, rec = _call(sess, kernel, A, B)
                assert np.array_equal(out, ref)
                records.append(rec)
            assert (words, msgs) == (warm_words, warm_msgs)
        assert [rec["outcome"] for rec in records] == ["retried", "ok", "ok"]
        assert len(plan.fired_log) == 1

    @pytest.mark.parametrize("family,comm,grid", GRID_PATHS, ids=GRID_PATH_IDS)
    def test_fault_in_the_cold_sddmm_round_retries_clean(
        self, problem, family, comm, grid
    ):
        """Rank 0's first chunk message of call 1 (in the cold SDDMM
        round, whose accumulating chunk travels whole all ``L`` hops) is
        lost.  Its receiver takes the next chunk on the channel, stamped
        one ahead: a ``CommError`` (not a kernel's ``ValueError`` on a
        triple of another ring position), so one re-run is bitwise."""
        S, A, B = problem
        kernel = "fusedmm_b"
        with _plan(S, family, comm, grid=grid) as clean:
            ref = KERNELS[kernel](clean, A, B)
        plan = FaultPlan([FaultSpec("drop", rank=0, tag=TAG_SHIFT_S, index=0)])
        with _plan(
            S, family, comm, grid=grid, deadline_ms=700, retries=1, faults=plan,
        ) as sess:
            out, _, _, rec = _call(sess, kernel, A, B)
        assert np.array_equal(out, ref)
        assert rec["outcome"] == "retried"
        assert len(plan.fired_log) == 1

    @pytest.mark.parametrize(
        "action,where,error",
        [("drop", "first", CommError), ("dup", "first", CommError),
         ("drop", "last", SpmdTimeout)],
        ids=["drop-first", "dup-first", "drop-last"],
    )
    def test_unretried_fault_surfaces_a_retryable_error(
        self, problem, action, where, error
    ):
        """Without re-runs (and, on dense comm, nothing to degrade to)
        the warm call's fault surfaces as the
        error the retry policy would have re-run; the next clean call
        starts cold on every rank and is bitwise."""
        S, A, B = problem
        family, comm = "1.5d-sparse-shift", "dense"
        with _plan(S, family, comm) as clean:
            ref = KERNELS["fusedmm_b"](clean, A, B)
        ring = P // C
        index = 0 if where == "first" else 2 * (ring - 1) - 1
        plan = FaultPlan([FaultSpec(action, rank=0, tag=TAG_SHIFT_SV, index=index)])
        with _plan(
            S, family, comm, deadline_ms=700, retries=0, faults=plan,
        ) as sess:
            _, cold_words, _, _ = _call(sess, "fusedmm_b", A, B)
            with pytest.raises((error, RuntimeError)) as err:
                sess.fusedmm_b(A, B)
            # a rank's error surfaces chained (a timeout stays typed)
            assert isinstance(err.value, error) or isinstance(
                err.value.__cause__, error
            )
            assert retryable(err.value)
            out, words, _, _ = _call(sess, "fusedmm_b", A, B)
            assert words == cold_words  # the memo went with the contexts
            assert np.array_equal(out, ref)


# ----------------------------------------------------------------------
# the rule itself
# ----------------------------------------------------------------------

RING = 4


def _nnz(rank):
    return 3 + 2 * rank  # every chunk has its own length


def _rounds(values_at, rounds=2, leading=False, faults=None):
    """``rounds`` rounds of one chunk lane on a ring of RING ranks sharing
    one :class:`CarriedCoords` per rank: SpMM-like (trailing, read-only
    values) or SDDMM-like (leading, every rank adds ``rank + 1`` to the
    values it holds); ``values_at(rank, round)`` makes the home values.
    Returns per rank the operands each round's kernel saw at each phase
    and the values each round brought home, and the profiles."""
    alg = DistributedAlgorithm(RING, 1)
    profiles = [RankProfile() for _ in range(RING)]

    def body(comm):
        carried = CarriedCoords()
        nnz = _nnz(comm.rank)
        rows = frozen(np.arange(nnz) + 100 * comm.rank)
        cols = frozen(np.arange(nnz)[::-1].copy())
        seen, home = [], []
        for k in range(rounds):
            vals = values_at(comm.rank, k)[:nnz]
            if not leading:
                vals = frozen(vals)  # an SpMM reads its values only
            block = np.full((2, 2), float(comm.rank))

            def compute(t, r, c, v, blk):
                seen.append((k, t, r.tolist(), c.tolist(), v.tolist()))
                if leading:
                    v += comm.rank + 1

            lanes = [
                *alg.chunk_lanes(
                    comm, rows, cols, vals,
                    carried=carried, key="chunk",
                ),
                Lane(comm, block, TAG_SHIFT_B),
            ]
            out = alg.ring_loop(comm, RING, lanes, compute, leading=leading)
            assert np.array_equal(out[0], rows)  # home again
            assert len(out[2]) == nnz and out[3][0, 0] == comm.rank
            home.append(out[2].tolist())
        return seen, home

    results, _ = run_spmd(
        RING, body, profiles=profiles, faults=faults, deadline_ms=20_000
    )
    return results, profiles


class TestRule:
    def test_warm_round_sees_what_the_cold_round_saw(self):
        """Trailing: the read-only chunk stops one hop short of home, cold
        and warm — each rank receives every chunk but its own, which it
        still holds."""
        results, profiles = _rounds(lambda rank, k: np.full(16, 10.0 * rank + k))
        for rank, (seen, home) in enumerate(results):
            cold = [s for s in seen if s[0] == 0]
            warm = [s for s in seen if s[0] == 1]
            for c, w in zip(cold, warm):
                assert c[1:4] == w[1:4]  # the same coordinates at each phase
                assert [v - 1 for v in w[4]] == c[4]  # this round's values
            # phase t sees the chunk of rank + t, its own first
            assert [c[2][0] // 100 for c in cold] == [
                (rank + t) % RING for t in range(RING)
            ]
            assert home == [[10.0 * rank + k] * _nnz(rank) for k in range(2)]
        chunk = sum(_nnz(rank) for rank in range(RING))
        for rank, prof in enumerate(profiles):
            ctr = prof.counters[Phase.PROPAGATION]
            # the B lane (4 words a shift, not marked read-only) RING
            # shifts both rounds; the chunk RING - 1 shifts of 3 words per
            # nonzero cold, of 1 warm
            assert ctr.words_received == (
                2 * 4 * RING + 3 * (chunk - _nnz(rank)) + chunk - _nnz(rank)
            )
            assert ctr.messages_received == 2 * RING + RING - 1 + RING - 1

    def test_leading_warm_round_starts_one_hop_downstream(self):
        """Leading: shift, then compute, so a chunk's home rank adds its
        mark last.  Warm, the accumulator's first hop is zeros made at
        ring position 1 — each rank receives every chunk's values but its
        upstream neighbour's — and every chunk still comes home with all
        marks, bitwise what the cold round brought."""
        results, profiles = _rounds(lambda rank, k: np.zeros(16), leading=True)
        for rank, (seen, home) in enumerate(results):
            cold = [s for s in seen if s[0] == 0]
            warm = [s for s in seen if s[0] == 1]
            assert [c[1:] for c in cold] == [w[1:] for w in warm]
            assert [c[2][0] // 100 for c in cold] == [
                (rank + t + 1) % RING for t in range(RING)
            ]
            marks = float(sum(range(1, RING + 1)))
            assert home == [[marks] * _nnz(rank)] * 2
        chunk = sum(_nnz(rank) for rank in range(RING))
        for rank, prof in enumerate(profiles):
            ctr = prof.counters[Phase.PROPAGATION]
            upstream = _nnz((rank + 1) % RING)
            assert ctr.words_received == (
                2 * 4 * RING + 3 * chunk + chunk - upstream
            )
            assert ctr.messages_received == 2 * RING + RING + RING - 1

    def test_entry_is_warm_once_complete_for_its_own_home_chunk(self):
        memo = CarriedCoords()
        rows, cols = np.arange(3), np.arange(3)
        trail = memo.start("k", rows, cols, 3)
        assert memo.held("k", rows, cols, 3) is None
        trail((np.arange(2), np.arange(2), np.zeros(2)))
        assert memo.held("k", rows, cols, 3) is None
        trail((np.arange(4), np.arange(4)))
        entry = memo.held("k", rows, cols, 3)
        assert [len(r) for r, _ in entry] == [3, 2, 4]
        trail((rows.copy(), cols.copy()))  # the return home is not kept
        assert len(entry) == 3
        # received arrays are kept as delivered, read-only; the home
        # chunk's are the home rank's own
        assert not entry[1][0].flags.writeable and rows.flags.writeable
        # another structure (new home arrays) is cold again
        assert memo.held("k", rows.copy(), cols, 3) is None
        assert memo.held("other", rows, cols, 3) is None

    def test_equal_entries_of_two_travel_orders_share_arrays(self):
        memo = CarriedCoords()
        home = np.arange(3), np.arange(3)
        first = memo.start("sddmm", *home, 3)
        second = memo.start("spmm_a", *home, 3)
        a, b = (np.array([5, 6]), np.array([7, 8])), (np.array([1]), np.array([2]))
        first(a)
        first(b)
        second((a[0].copy(), a[1].copy()))  # bitwise equal: shared
        second((b[0] + 1, b[1]))  # different: kept on its own
        one = memo.held("sddmm", *home, 3)
        two = memo.held("spmm_a", *home, 3)
        assert two[1][0] is one[1][0] and two[1][1] is one[1][1]
        assert two[2][0] is not one[2][0]
        assert np.array_equal(two[2][0], [2])

    def test_a_duplicated_warm_value_message_is_a_comm_error(self):
        """A duplicated value message would hand its receiver the values
        of the ring position before, out of step with the carried
        coordinates: the repeated stamp raises the retryable ``CommError``
        at the next shift instead."""
        faults = FaultPlan([FaultSpec("dup", rank=1, tag=TAG_SHIFT_SV)])
        with pytest.raises(RuntimeError) as err:
            _rounds(lambda rank, k: np.ones(16), faults=faults)
        assert isinstance(err.value.__cause__, CommError)
        assert "lost or duplicated" in str(err.value.__cause__)
