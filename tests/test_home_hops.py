"""A lane a round only reads stops one hop short of home, cold or warm.

Table III charges every propagation round a full ring of ``L`` shifts,
but a lane the round only reads comes home on its last shift carrying a
block its owner never gave up, so ``ring_loop`` takes the home payload
instead of that message: a lane whose home payload cannot be written.
Accumulator lanes leave home writeable and keep every hop, so no sum
changes order.  Covered here, seeded per cell, for
every family x the five kernels x rings of ``L`` in {1, 2, 4, 9}
(``comm="dense"``, ``elision="none"``), a cold then a warm call on one
session, with every bound block read-only (as ``bind_dense`` binds
them):

* per rank and channel, a read-only lane sends ``L − 1`` messages per
  round and an accumulator lane ``L``, nothing at ``L = 1`` (thread
  backend: the channels are read off every ring shift); warm, a chunk
  ring ships its values alone in ``L − 1`` shifts whichever it is;
* the cold call's words and messages are Table III less ``home_hops``
  (a FusedMM) or ``kernel_cost`` (a single kernel, as run), rank mean;
* outputs are allclose to ``baselines/serial``, and the cold and warm
  calls are bitwise equal;
* the hops saved are counted (``PhaseCounters.home_words`` /
  ``home_messages``), and with them the cold call's traffic is Table
  III's again;
* a lane with any writeable array in its home payload keeps every hop.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pytest

import repro
from repro.algorithms.base import (
    TAG_SHIFT_A,
    TAG_SHIFT_B,
    TAG_SHIFT_S,
    TAG_SHIFT_SV,
    DistributedAlgorithm,
    Lane,
    frozen,
)
from repro.baselines import serial
from repro.model.costs import fusedmm_cost, home_hops, kernel_cost
from repro.runtime.comm import Communicator
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import run_spmd
from repro.types import Mode, Phase
from tests.conftest import require_world_size

#: (p, c) giving a propagation ring of L ranks: 1.5D's layer is p / c
#: ranks, 2.5D's grid row and column q = sqrt(p / c)
GRID_15D = {1: (2, 2), 2: (8, 4), 4: (8, 2), 9: (9, 1)}
GRID_25D = {1: (2, 2), 2: (8, 2), 4: (16, 1), 9: (81, 1)}
GRIDS = {
    "1.5d-dense-shift": GRID_15D,
    "1.5d-sparse-shift": GRID_15D,
    "2.5d-dense-replicate": GRID_25D,
    "2.5d-sparse-replicate": GRID_25D,
}
CELLS = [(family, L) for family in GRIDS for L in (1, 2, 4, 9)]

#: per family and mode: the lanes of one cold round, as (channel,
#: read-only); a chunk on TAG_SHIFT_S ships its values alone on
#: TAG_SHIFT_SV once warm
LANES = {
    "1.5d-dense-shift": {
        Mode.SDDMM: [(TAG_SHIFT_B, True)],
        Mode.SPMM_A: [(TAG_SHIFT_B, True)],
        Mode.SPMM_B: [(TAG_SHIFT_B, False)],
    },
    "1.5d-sparse-shift": {
        Mode.SDDMM: [(TAG_SHIFT_S, False)],
        Mode.SPMM_A: [(TAG_SHIFT_S, True)],
        Mode.SPMM_B: [(TAG_SHIFT_S, True)],
    },
    "2.5d-dense-replicate": {
        Mode.SDDMM: [(TAG_SHIFT_S, False), (TAG_SHIFT_B, True)],
        Mode.SPMM_A: [(TAG_SHIFT_S, True), (TAG_SHIFT_B, True)],
        Mode.SPMM_B: [(TAG_SHIFT_S, True), (TAG_SHIFT_B, False)],
    },
    "2.5d-sparse-replicate": {
        Mode.SDDMM: [(TAG_SHIFT_A, True), (TAG_SHIFT_B, True)],
        Mode.SPMM_A: [(TAG_SHIFT_B, True), (TAG_SHIFT_A, False)],
        Mode.SPMM_B: [(TAG_SHIFT_A, True), (TAG_SHIFT_B, False)],
    },
}

#: per kernel: its rounds under elision "none", and its serial reference
KERNELS = {
    "sddmm": (
        (Mode.SDDMM,),
        lambda sess, A, B: sess.sddmm(A, B),
        lambda S, A, B: serial.sddmm_serial(S, A, B).vals,
    ),
    "spmm_a": (
        (Mode.SPMM_A,),
        lambda sess, A, B: sess.spmm_a(B),
        lambda S, A, B: serial.spmm_a_serial(S, B),
    ),
    "spmm_b": (
        (Mode.SPMM_B,),
        lambda sess, A, B: sess.spmm_b(A),
        lambda S, A, B: serial.spmm_b_serial(S, A),
    ),
    "fusedmm_a": (
        (Mode.SDDMM, Mode.SPMM_A),
        lambda sess, A, B: sess.fusedmm_a(A, B),
        serial.fusedmm_a_serial,
    ),
    "fusedmm_b": (
        (Mode.SDDMM, Mode.SPMM_B),
        lambda sess, A, B: sess.fusedmm_b(A, B),
        serial.fusedmm_b_serial,
    ),
}


@pytest.fixture
def shifts(monkeypatch):
    """Every message a ring shift sends, as ``(world rank, channel)``."""
    sent = []
    shift = Communicator.shift

    def spy(self, payload, displacement=1, tag=0):
        if self.size > 1:  # a ring of one rank sends nothing
            sent.append((self.group[self.rank], tag))
        return shift(self, payload, displacement, tag)

    monkeypatch.setattr(Communicator, "shift", spy)
    return sent


def _expected_shifts(family, modes, L, warm):
    """Messages each rank sends per channel over ``modes``' rounds."""
    want = Counter()
    if L == 1:
        return want
    for mode in modes:
        for tag, read_only in LANES[family][mode]:
            if warm and tag == TAG_SHIFT_S:
                want[TAG_SHIFT_SV] += L - 1  # values alone, either order
            else:
                want[tag] += L - 1 if read_only else L
    return want


def _problem(seed):
    """A seeded square ER problem (Table III assumes m = n), wide enough
    for every r-strip of a ring of 9."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(54, 90))
    r = int(rng.integers(18, 27))
    S = repro.erdos_renyi(n, n, int(rng.integers(2, 6)), seed=seed)
    return S, rng.standard_normal((n, r)), rng.standard_normal((n, r))


#: the counters of the hops home a rank's read-only lanes skipped
HOME = ("home_words", "home_messages")


def _mean(report, phase=None, attrs=("words_received", "messages_received")):
    """Rank-mean (words, messages) received, in ``phase`` or in all;
    ``attrs=HOME`` counts the skipped hops home instead."""
    ctrs = [
        [prof.counters[phase]] if phase else list(prof.counters.values())
        for prof in report.per_rank
    ]
    words, msgs = (
        np.mean([sum(getattr(c, attr) for c in cs) for cs in ctrs])
        for attr in attrs
    )
    return words, msgs


def _read_only_lanes(family, modes, warm=False):
    """Read-only lanes over ``modes``' rounds, a warm chunk's values not
    counted: each saves one hop Table III's schedule ships."""
    return sum(
        read_only
        for mode in modes
        for tag, read_only in LANES[family][mode]
        if not (warm and tag == TAG_SHIFT_S)
    )


def _as_run(family, kernel, n, r, p, c, phi):
    """The cold call's model: Table III less ``home_hops`` for a FusedMM,
    ``kernel_cost`` (as run) for a single kernel."""
    if kernel.startswith("fusedmm"):
        key = f"{family}/none"
        table = fusedmm_cost(key, n, r, p, c, phi)
        saved = home_hops(key, kernel[-1], n, r, p, c, phi)
        return table.words - saved.words, table.messages - saved.messages
    model = kernel_cost(family, kernel, n, r, p, c, phi)
    return model.words, model.messages


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("family,L", CELLS, ids=[f"{f}/L{L}" for f, L in CELLS])
def test_read_only_lanes_skip_the_hop_home(exec_backend, shifts, family, L, kernel):
    p, c = GRIDS[family][L]
    require_world_size(exec_backend, p)
    S, A, B = _problem(zlib.crc32(f"{family}/{L}/{kernel}".encode()))
    n, r = A.shape
    modes, run, reference = KERNELS[kernel]
    with repro.plan(
        S, r, p=p, c=c, algorithm=family, comm="dense", backend=exec_backend,
        deadline_ms=20_000,
    ) as sess:
        outs = []
        for warm in (False, True):
            sess.reset_profile()
            del shifts[:]
            out, report = run(sess, A, B)
            outs.append(out.vals if kernel == "sddmm" else out)
            want = _expected_shifts(family, modes, L, warm)
            for rank, prof in enumerate(report.per_rank):
                ctr = prof.counters[Phase.PROPAGATION]
                assert ctr.messages_sent == sum(want.values()), (warm, rank)
                if exec_backend == "threads":
                    got = Counter(tag for who, tag in shifts if who == rank)
                    assert got == want, (warm, rank)
            # one counted hop home per read-only lane and round, none on
            # a one-rank ring (its shifts send nothing) and none for warm
            # values (Table III ships a chunk as its triple)
            hop_words, hop_msgs = _mean(report, attrs=HOME)
            assert hop_msgs == (_read_only_lanes(family, modes, warm) if L > 1 else 0)
            if not warm:
                words, msgs = _mean(report)
                model_words, model_msgs = _as_run(
                    family, kernel, n, r, p, c, S.nnz / (n * r)
                )
                assert words == pytest.approx(model_words, rel=1e-12, abs=1e-6)
                assert msgs == pytest.approx(model_msgs, abs=1e-9)
                # the hops put back, a FusedMM moved Table III's (which
                # still prices a one-rank ring's hop)
                if kernel.startswith("fusedmm") and L > 1:
                    table = fusedmm_cost(
                        f"{family}/none", n, r, p, c, S.nnz / (n * r)
                    )
                    assert words + hop_words == pytest.approx(
                        table.words, rel=1e-12, abs=1e-6
                    )
                    assert msgs + hop_msgs == pytest.approx(
                        table.messages, abs=1e-9
                    )
                if L == 1:
                    assert _mean(report, Phase.PROPAGATION) == (0, 0)
    cold, warm_out = outs
    assert np.array_equal(warm_out, cold)
    np.testing.assert_allclose(cold, reference(S, A, B), rtol=1e-10, atol=1e-10)


def _ring(payload, steps=4):
    """One trailing ``ring_loop`` of a single lane over ``steps`` ranks,
    each rank's payload ``payload(rank)``: per rank the operands every
    phase saw and whether the lane ended on its home payload, and the
    profiles."""
    alg = DistributedAlgorithm(steps, 1)
    profiles = [RankProfile() for _ in range(steps)]

    def body(comm):
        home = payload(comm.rank)
        seen = []

        def compute(t, *ops):
            seen.append(float(ops[-1][0]))

        out = alg.ring_loop(comm, steps, [Lane(comm, home, TAG_SHIFT_B)], compute)
        return seen, out[-1] is (home[-1] if isinstance(home, tuple) else home)

    results, _ = run_spmd(steps, body, profiles=profiles)
    return results, profiles


class TestRule:
    def test_read_only_lane_takes_its_home_payload(self):
        """Each rank sees every rank's block, its own first, in ``L − 1``
        messages, ends on the very home array, and counts the hop it
        saved."""
        results, profiles = _ring(lambda k: frozen(np.full(3, float(k))))
        for rank, (seen, home) in enumerate(results):
            assert seen == [float((rank + t) % 4) for t in range(4)]
            assert home
        for prof in profiles:
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.messages_sent == ctr.messages_received == 3
            assert ctr.words_received == 9
            assert (ctr.home_words, ctr.home_messages) == (3, 1)

    @pytest.mark.parametrize(
        "payload",
        [
            lambda k: np.full(3, float(k)),
            # a tuple payload is read-only only if every array is
            lambda k: (frozen(np.zeros(2)), np.full(3, float(k))),
        ],
        ids=["array", "tuple"],
    )
    def test_writeable_payload_keeps_every_hop(self, payload):
        """An accumulator leaves home writeable: its last hop ships."""
        results, profiles = _ring(payload)
        for rank, (seen, home) in enumerate(results):
            assert seen == [float((rank + t) % 4) for t in range(4)]
            assert not home  # a received copy came back
        for prof in profiles:
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.messages_sent == 4
            assert (ctr.home_words, ctr.home_messages) == (0, 0)


def test_run_rank_proc_may_replace_a_block_writeable(exec_backend):
    """A ``run_rank`` procedure that replaces ``B`` with a fresh writeable
    block and runs an SDDMM round gets the right dots; the writeable
    block ships all ``L`` hops."""
    p, c = GRID_15D[4]
    require_world_size(exec_backend, p)
    S, A, B = _problem(5)

    def proc(ctx, plan, local):
        local.B = local.B * 2.0  # a new, writeable block
        sess.alg.rank_kernel(ctx, plan, local, mode=Mode.SDDMM)

    with repro.plan(
        S, A.shape[1], p=p, c=c, algorithm="1.5d-dense-shift", comm="dense",
        backend=exec_backend,
    ) as sess:
        out, report = sess.run_rank(proc, A, B, collect="sddmm")
    want = serial.sddmm_serial(S, A, 2.0 * B)
    np.testing.assert_allclose(out.vals, want.vals, rtol=1e-10, atol=1e-10)
    for prof in report.per_rank:
        ctr = prof.counters[Phase.PROPAGATION]
        assert ctr.messages_received == p // c
        assert ctr.home_messages == 0
