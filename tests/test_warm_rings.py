"""Warm chunk rings make L − 1 value shifts, on every schedule.

A chunk ring of ``L`` ranks runs ``L`` phases per round.  Cold, each lane
shifts ``L`` times; warm, the values of a chunk whose coordinates the
ring already carried (``CarriedCoords``) shift ``L − 1`` times: an SpMM
round (compute, then shift) keeps its read-only values home for the last
hop, an SDDMM round (shift, then compute) starts its zero accumulator at
ring position 1.  Covered here, seeded per cell, for both chunk-ring
families x every comm path x the five kernels x rings of
``L`` in {1, 2, 4, 9}, on one call sequence — cold, warm,
``update_values``, the other orientation, warm, then (thread backend) a
warm call with a crashed rank under ``retries=1`` — with every bound
block read-only (as ``bind_dense`` binds them), in whichever layout
``repro.plan`` resolves:

* every output is bitwise a fresh session's cold call on the same
  values and orientation;
* on each warm call each rank's chunk lane sends and receives exactly
  ``L − 1`` messages per round, and its words are the nonzeros of the
  ``L − 1`` chunks it receives: all of its ring's but its own in an SpMM
  round, all but its upstream neighbour's in an SDDMM round (2.5D's B
  block, read-only outside SpMMB, also skips its hop home there).
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np
import pytest

import repro
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.sparse.stats import layout_permutations
from repro.types import Mode, Phase
from tests.conftest import require_world_size
from tests.helpers import chunk_ring_members

#: (p, c) giving a chunk ring of L ranks: 1.5D's layer is p / c ranks,
#: 2.5D's grid row q = sqrt(p / c)
GRIDS = {
    "1.5d-sparse-shift": {1: (2, 2), 2: (8, 4), 4: (8, 2), 9: (9, 1)},
    "2.5d-dense-replicate": {1: (2, 2), 2: (8, 2), 4: (16, 1), 9: (81, 1)},
}
PATHS = [
    ("1.5d-sparse-shift", "dense"),
    ("1.5d-sparse-shift", "sparse"),
    ("2.5d-dense-replicate", "dense"),
]
CELLS = [(f, comm, L) for f, comm in PATHS for L in (1, 2, 4, 9)]

#: per kernel: the rank procedure the session runs for it (its elision
#: ``none`` rounds) and what it collects — on the transposed sibling the
#: same procedure runs under ``run_rank``
PROCS = {
    "sddmm": ((Mode.SDDMM,), "sddmm"),
    "spmm_a": ((Mode.SPMM_A,), "a"),
    "spmm_b": ((Mode.SPMM_B,), "b"),
    "fusedmm_a": ((Mode.SDDMM, Mode.SPMM_A), "a"),
    "fusedmm_b": ((Mode.SDDMM, Mode.SPMM_B), "b"),
}
KERNELS = {
    "sddmm": lambda sess, A, B: sess.sddmm(A, B)[0].vals,
    "spmm_a": lambda sess, A, B: sess.spmm_a(B)[0],
    "spmm_b": lambda sess, A, B: sess.spmm_b(A)[0],
    "fusedmm_a": lambda sess, A, B: sess.fusedmm_a(A, B)[0],
    "fusedmm_b": lambda sess, A, B: sess.fusedmm_b(A, B)[0],
}


def _sibling(sess, kernel, A, B):
    """``kernel`` on the transposed sibling ``(S.T, B, A)``."""
    modes, collect = PROCS[kernel]
    alg = sess.alg
    if len(modes) == 1:
        proc = partial(alg.rank_kernel, mode=modes[0])
    else:
        proc = {"a": alg.rank_fusedmm_none_a, "b": alg.rank_fusedmm_none_b}[collect]
    out, _ = sess.run_rank(proc, B, A, transpose=True, collect=collect)
    return out.vals if collect == "sddmm" else out


def _problem(seed, L):
    """A seeded ER problem with every r-strip of a ring of L non-empty."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(40, 80, size=2))
    r = int(rng.integers(max(L, 4), 16))
    S = repro.erdos_renyi(m, n, int(rng.integers(2, 6)), seed=seed)
    A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    vals = rng.standard_normal(S.nnz)
    return S, A, B, vals


def _other_lanes(sess, rank, mode):
    """``(words, messages)`` rank ``rank`` receives per round of ``mode``
    on lanes that are not its S chunk's: 2.5D's B block visits each rank
    of its grid column once, one fine block of strip ``y`` per shift —
    but where the round only reads it (outside SpMMB) it skips the hop
    home, so no rank receives its own."""
    alg = sess.alg
    if alg.name != "2.5d-dense-replicate":
        return 0, 0
    x, y, z = alg.grid.coords(rank)
    plan = alg.plan(sess.m, sess.n, sess.r)
    q, c = plan.q, plan.c
    if q == 1:
        return 0, 0  # a ring of one rank moves nothing
    fine = np.diff(plan.col_fine)
    visits = [s for s in range(q) if mode == Mode.SPMM_B or s != plan.sigma(x, y, 0)]
    rows = sum(int(fine[s * c + z]) for s in visits)
    return rows * plan.strip_width(y), len(visits)


def _assert_warm_lanes(sess, S, kernel, R):
    """The last call's PROPAGATION traffic, per rank: every round's chunk
    lane made L − 1 shifts of the values of the chunks it received."""
    modes, _ = PROCS[kernel]
    if sess.layout == "permuted":  # S as the session distributes it
        S = S.permuted(*layout_permutations(sess.m, sess.n, sess.p))
    members = chunk_ring_members(sess.alg, S, R)
    for rank, prof in enumerate(sess.report().per_rank):
        ctr = prof.counters[Phase.PROPAGATION]
        pos, nnz = members[rank]
        L = len(nnz)
        words = msgs = 0
        for mode in modes:
            # the chunk a rank does not receive: an SpMM round keeps its
            # own home, an SDDMM round's first hop (from position + 1) is
            # made in place
            skipped = nnz[(pos + 1) % L] if mode == Mode.SDDMM else nnz[pos]
            other_words, other_msgs = _other_lanes(sess, rank, mode)
            words += sum(nnz) - skipped + other_words
            msgs += L - 1 + other_msgs
        assert ctr.messages_received == ctr.messages_sent == msgs, rank
        assert ctr.words_received == words, rank


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize(
    "family,comm,L", CELLS, ids=[f"{f}/{c}/L{L}" for f, c, L in CELLS]
)
def test_warm_rings_are_bitwise_and_make_l_minus_1_shifts(
    exec_backend, family, comm, L, kernel
):
    p, c = GRIDS[family][L]
    require_world_size(exec_backend, p)
    seed = zlib.crc32(f"{family}/{comm}/{L}/{kernel}".encode())
    S, A, B, vals = _problem(seed, L)
    S2 = S.with_values(vals)
    R = A.shape[1]
    run = KERNELS[kernel]
    knobs = dict(
        p=p, c=c, algorithm=family, comm=comm, backend=exec_backend,
        deadline_ms=20_000,
    )
    threads = exec_backend == "threads"
    modes, _ = PROCS[kernel]
    # rank 0 enters PROPAGATION once per phase, L per round: this is the
    # middle of call 5's rounds
    per_call = len(modes) * L
    index = 4 * per_call + per_call // 2
    crash = FaultPlan([FaultSpec("crash", rank=0, site="propagation", index=index)])
    with repro.plan(S, R, **knobs) as fresh:
        ref = run(fresh, A, B)
    with repro.plan(S2, R, **knobs) as fresh:
        ref2 = run(fresh, A, B)
        ref2_sibling = _sibling(fresh, kernel, A, B)

    extra = dict(retries=1, faults=crash) if threads else {}
    with repro.plan(S, R, **knobs, **extra) as sess:
        assert np.array_equal(run(sess, A, B), ref)  # cold
        sess.reset_profile()
        assert np.array_equal(run(sess, A, B), ref)  # warm
        _assert_warm_lanes(sess, S, kernel, R)

        sess.update_values(vals)
        assert np.array_equal(_sibling(sess, kernel, A, B), ref2_sibling)
        sess.reset_profile()
        assert np.array_equal(run(sess, A, B), ref2)  # still warm
        _assert_warm_lanes(sess, S, kernel, R)

        if threads:
            # the crash drops every rank's context, carried coordinates
            # with it: the retry is a cold round on every rank
            assert np.array_equal(run(sess, A, B), ref2)
            # the metrics since the last reset: calls 4 and 5
            outcomes = [rec["outcome"] for rec in sess.metrics()]
            assert outcomes == ["ok", "retried"]
            assert len(crash.fired_log) == 1
