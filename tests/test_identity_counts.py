"""The committed identity matrix: exact per-call traffic of a fixed call
sequence over family x elision x comm x overlap.

Each cell runs one resident session through the same sequence of calls —
repeats, alternating FusedMMA / FusedMMB, ``update_values``, a changed
operand and single-mode calls on the transposed sibling — and records each
call's rank-summed ``comm_words`` and ``comm_messages`` from
``Session.metrics()``.  ``tests/identity_counts.json`` holds those integers
as the software-pipelined schedule's last commit measured them, with
``overlap="on"`` and ``"off"`` cells: the gate that deleting the pipeline
moved no word.  Five dense-family cells were re-pinned lower once, in
both ``overlap`` entries, when kernel outputs became transient: a side a
call wrote then holds its bound input again, so a later call's fiber
replication of it reuses the stored panel.  The chunk-ring cells
(``1.5d-sparse-shift``, ``2.5d-dense-replicate``) were re-pinned lower
once, in their warm calls only, when a warm chunk round stopped making
its L-th value shift: an SpMM's values no longer travel the last hop
home, an SDDMM's zero accumulator no longer travels the first.  The
``overlap="on"`` entries' messages moved by the same amount.  Two cells
moved lower once more, in one call each, when ``run_rank`` calls became
transient like kernel calls: a sibling call leaves its bound blocks
resident, so the next call on the same operands skips its binds and its
fiber replication (dense shift) or need-list ring gather (2.5D sparse
replicate) reuses the stored panel.  Every cell but the need-list 2.5D
sparse-replicating one moved lower once more when a lane a round only
reads stopped shipping its hop home, cold rounds included: the dense
shift B block outside SpMMB, the 2.5D B block outside SpMMB, the Cannon
input pieces and a cold SpMM's chunk triple each take L − 1 shifts.

Since then ``overlap=`` is accepted and ignored, so a cell run with
either ``overlap`` value must move exactly the words and messages of its
committed ``overlap="off"`` entry (the pipelined schedule split a cold
circulating SDDMM chunk into two messages per phase; the one synchronous
schedule sends it whole).  The ``overlap="on"`` entries, whose words were
the ``"off"`` entries' on every call and whose messages nothing read any
more, were deleted.  Outputs are not stored (einsum's SIMD order may
differ across CPUs): the two ``overlap`` values of a cell are compared
bitwise in-run instead.
"""

from __future__ import annotations

import json
import pathlib
from functools import partial

import numpy as np
import pytest

import repro
from repro.algorithms import ALGORITHMS
from repro.types import Mode

IDENTITY = pathlib.Path(__file__).with_name("identity_counts.json")

P, C = 8, 2
N, R = 96, 8
OVERLAPS = ("off", "on")

CELLS = [
    (family, elision.value, comm)
    for family, cls in sorted(ALGORITHMS.items())
    for elision in cls.elisions
    for comm in (("dense", "sparse") if cls.supports_sparse_comm else ("dense",))
]


def _sibling(sess, mode, A, B):
    """One single-mode call on the transposed sibling ``(S.T, B, A)``."""
    collect = {Mode.SDDMM: "sddmm", Mode.SPMM_A: "a", Mode.SPMM_B: "b"}[mode]
    out, _ = sess.run_rank(
        partial(sess.alg.rank_kernel, mode=mode), B, A, transpose=True,
        collect=collect,
    )
    return out.vals if mode == Mode.SDDMM else out


def run_cell(family, elision, comm, overlap):
    """The call sequence of one cell: ``(outputs, [[words, messages], ...])``
    with one count pair per call."""
    S = repro.erdos_renyi(N, N, nnz_per_row=5, seed=3)
    rng = np.random.default_rng(4)
    A, B = rng.standard_normal((N, R)), rng.standard_normal((N, R))
    A2 = A + 1.0  # a changed operand (a new object, as callers pass them)
    vals = np.random.default_rng(5).standard_normal(S.nnz)
    outs = []
    with repro.plan(
        S, R, p=P, c=C, algorithm=family, elision=elision, comm=comm,
        overlap=overlap, deadline_ms=10_000,
    ) as sess:
        outs.append(sess.fusedmm_a(A, B)[0])
        outs.append(sess.fusedmm_a(A, B)[0])  # repeat
        outs.append(sess.fusedmm_b(A, B)[0])
        outs.append(sess.fusedmm_a(A, B)[0])
        sess.update_values(vals)
        outs.append(sess.fusedmm_b(A, B)[0])
        outs.append(sess.sddmm(A2, B)[0].vals)  # changed operand
        outs.append(sess.spmm_a(B)[0])
        outs.append(sess.spmm_b(A2)[0])
        outs.append(_sibling(sess, Mode.SDDMM, A2, B))
        outs.append(_sibling(sess, Mode.SPMM_A, A2, B))
        outs.append(sess.fusedmm_b(A2, B)[0])
        records = sess.metrics()
    assert all(rec["outcome"] == "ok" for rec in records)
    counts = [[rec["comm_words"], rec["comm_messages"]] for rec in records]
    return outs, counts


def _key(family, elision, comm):
    """A cell's entry (the key keeps the ``overlap="off"`` run's name)."""
    return f"{family}/{elision}/{comm}/overlap=off"


@pytest.fixture(scope="module")
def committed():
    return json.loads(IDENTITY.read_text())


def test_matrix_covers_every_cell(committed):
    assert sorted(committed) == sorted(_key(*cell) for cell in CELLS)
    assert all(
        isinstance(v, int) for calls in committed.values() for c in calls for v in c
    )


@pytest.mark.parametrize(
    "family,elision,comm", CELLS, ids=["/".join(cell) for cell in CELLS]
)
def test_cell_matches_committed_counts(committed, family, elision, comm):
    runs = {overlap: run_cell(family, elision, comm, overlap) for overlap in OVERLAPS}
    for overlap, (_, counts) in runs.items():
        assert counts == committed[_key(family, elision, comm)], overlap
    for got, want in zip(runs["on"][0], runs["off"][0]):
        assert np.array_equal(got, want)
