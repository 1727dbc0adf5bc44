"""The single-fault sweep: one lost, duplicated or delayed message ends in
a bitwise re-run or a typed error.

The fault plane's promise (ARCHITECTURE.md, "Robustness"), checked over
the committed identity cells (``tests/test_identity_counts.py``): on each
cell's first call (cold: it builds the contexts, whose communicator
splits send the untracked tag-108 metadata) or its second, identical one
(warm), one message — any sending rank, any tag, any index of that
rank's sends on the tag within the call — is dropped, duplicated or
delayed.  Under ``retries=1`` both calls must then return the clean run's
outputs bitwise, or a call must raise a typed error: ``CommError`` (the
communicator's stamp check) or ``SpmdTimeout`` (the deadline).  A
``ValueError``, a wrong answer or a hang fails.

Tier-1 runs a seeded sample (:func:`test_sampled_single_faults`); the
whole sweep, every (rank, tag, index) x action of both calls on the 11
cells, is marked ``fault_sweep`` and runs only when that marker is
selected (``pytest -m fault_sweep tests/test_fault_sweep.py``, the CI
chaos job).  The stamp check relies on no clean call leaving a message
behind: :func:`test_clean_calls_leave_every_mailbox_empty` pins it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import repro
from repro.errors import CommError, SpmdTimeout
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.spmd import WorkerPool
from tests.test_identity_counts import CELLS, C, N, P, R, run_cell

ACTIONS = ("drop", "dup", "delay")
#: short, so a lost message's receiver times out quickly; the clean
#: recording run keeps the identity matrix's
DEADLINE_MS = 400
DELAY_S = 0.02
#: the untracked communicator-split metadata (``Communicator.split``)
TAG_SPLIT = 108
CELL_IDS = ["/".join(cell) for cell in CELLS]


def _operands():
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((N, R)), rng.standard_normal((N, R))


def _session(cell, **kw):
    family, elision, comm = cell
    S, _, _ = _operands()
    return repro.plan(
        S, R, p=P, c=C, algorithm=family, elision=elision, comm=comm, **kw
    )


@lru_cache(maxsize=None)
def clean_run(cell):
    """The cell's two clean ``fusedmm_a`` outputs, and per call the
    ``Counter`` of ``(rank, tag)`` sends, read off a plan whose one
    sticky zero-second delay fires on every send and logs it."""
    _, A, B = _operands()
    recorder = FaultPlan([FaultSpec("delay", times=None)])
    outs, sends, seen = [], [], 0
    with _session(cell, faults=recorder, deadline_ms=10_000) as sess:
        for _ in range(2):
            outs.append(sess.fusedmm_a(A, B)[0])
            log = recorder.fired_log[seen:]
            seen += len(log)
            sends.append(
                Counter((rank, int(d.split("=")[1])) for rank, _, d in log)
            )
    return outs, sends


def cases(cell, call):
    """Every single-message fault of call ``call`` (0 cold, 1 warm):
    ``(rank, tag, index, action)``, ``index`` counted from the session's
    first send of ``rank`` on ``tag``, as a :class:`FaultSpec` counts."""
    _, sends = clean_run(cell)
    return [
        (rank, tag, k + (sends[0][rank, tag] if call else 0), action)
        for (rank, tag), n in sorted(sends[call].items())
        for k in range(n)
        for action in ACTIONS
    ]


def _typed(exc: BaseException) -> bool:
    typed = (CommError, SpmdTimeout)
    return isinstance(exc, typed) or isinstance(exc.__cause__, typed)


def run_case(cell, rank, tag, index, action) -> str:
    """Both calls under one fault: ``"ok"`` when each returned the clean
    output bitwise, ``"typed"`` when a call raised a typed error."""
    (ref_cold, ref_warm), _ = clean_run(cell)
    _, A, B = _operands()
    delay = DELAY_S if action == "delay" else 0.0
    plan = FaultPlan(
        [FaultSpec(action, rank=rank, tag=tag, index=index, delay_s=delay)]
    )
    with _session(cell, faults=plan, retries=1, deadline_ms=DEADLINE_MS) as sess:
        for ref in (ref_cold, ref_warm):
            try:
                out = sess.fusedmm_a(A, B)[0]
            except Exception as exc:  # noqa: BLE001 - classified here
                assert _typed(exc), repr(exc)
                return "typed"
            assert np.array_equal(out, ref)
    assert plan.fired_log == [(rank, action, f"tag={tag}")]
    return "ok"


def _sample(seed=7, cells=4):
    """A seeded draw: ``cells`` cells, one cold and one warm case each,
    and one tag-108 case on the first."""
    rng = random.Random(seed)
    drawn = []
    for i, cell in enumerate(rng.sample(CELLS, cells)):
        split = [c for c in cases(cell, 0) if c[1] == TAG_SPLIT]
        for pool in ([split] if i == 0 else []) + [cases(cell, 0), cases(cell, 1)]:
            drawn.append((cell, *rng.choice(pool)))
    return drawn


def test_sampled_single_faults():
    drawn = _sample()
    assert any(tag == TAG_SPLIT for _, _, tag, _, _ in drawn)
    for cell, rank, tag, index, action in drawn:
        run_case(cell, rank, tag, index, action)


def test_clean_calls_leave_every_mailbox_empty(monkeypatch):
    """After every clean dispatch of every identity cell's call sequence
    each rank's mailbox is empty: no message waits to be taken for a
    later one, so a stamp out of sequence is always a fault."""
    run = WorkerPool.run
    dispatches = []

    def checked(self, *args, **kw):
        out = run(self, *args, **kw)
        dispatches.append(1)
        for r, mailbox in enumerate(self.world.mailboxes):
            assert not any(mailbox._queues.values()), f"rank {r}"
        return out

    monkeypatch.setattr(WorkerPool, "run", checked)
    for cell in CELLS:
        run_cell(*cell, overlap="off")
    assert len(dispatches) >= 11 * len(CELLS)


@pytest.mark.fault_sweep
@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_every_single_fault(cell):
    for call in (0, 1):
        for case in cases(cell, call):
            run_case(cell, *case)
