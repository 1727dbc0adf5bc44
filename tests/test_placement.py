"""Placement: fine-grained sessions keep their rank threads on one core.

``resolve()`` answers ``placement`` from shape statistics alone; the
thread pool applies it where the host lets it.  Placement moves threads,
never data: every output is bitwise the same packed and spread, the
driver thread's mask is never touched, and where nothing can be pinned a
packed session runs like a spread one.  Sessions are forced into either
placement without a knob: ``Session(S, dataclasses.replace(resolved,
placement=...))``.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading

import numpy as np
import pytest

import repro
from repro.algorithms.registry import ALGORITHMS, supports_sparse_comm
from repro.apps import als as als_module
from repro.apps.als import DistributedALS
from repro.model.resolve import PACK_GRAIN_FLOPS
from repro.runtime.spmd import WorkerPool, make_worker_pool
from repro.session import Session
from repro.sparse.coo import CooMatrix

from helpers import resolve_plan

pinnable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity here"
)
two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two allowed cores",
)

#: (family, p, c, elision): one grid per family, c > 1 so replication runs
GRIDS = {
    "1.5d-dense-shift": (8, 2, "replication-reuse"),
    "1.5d-sparse-shift": (8, 4, "replication-reuse"),
    "2.5d-dense-replicate": (8, 2, "replication-reuse"),
    "2.5d-sparse-replicate": (8, 2, "none"),
}
CASES = [
    (name, comm)
    for name in sorted(ALGORITHMS)
    for comm in ("dense", "sparse")[: 1 + supports_sparse_comm(name)]
]


def placed(S, r, placement, **knobs):
    """A session whose plan is ``resolve()``'s answer with ``placement``
    swapped in (what ``repro.plan`` does, plus the swap)."""
    resolved = resolve_plan(S.ncols, S.nnz, r, m=S.nrows, **knobs)
    return Session(S, dataclasses.replace(resolved, placement=placement))


def rank_masks(sess, affinity=None):
    """Every rank thread's affinity mask, read by the rank itself."""
    affinity = affinity or os.sched_getaffinity
    masks = {}

    def read(ctx, plan, local, **kw):
        masks[ctx.comm.rank] = frozenset(affinity(0))

    sess.run_rank(read)
    return [masks[rank] for rank in range(sess.p)]


@pytest.fixture
def problem():
    S = repro.erdos_renyi(96, 80, 6, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((96, 8)), rng.standard_normal((80, 8))


class TestBitwise:
    @pytest.mark.parametrize("name,comm", CASES)
    def test_five_kernels_packed_equals_spread(self, name, comm, problem):
        S, A, B = problem
        p, c, elision = GRIDS[name]
        outs = {}
        for placement in ("spread", "packed"):
            with placed(
                S, 8, placement, p=p, c=c, algorithm=name, elision=elision,
                comm=comm,
            ) as sess:
                assert sess.explain().placement == placement
                outs[placement] = [
                    sess.sddmm(A, B)[0].vals,
                    sess.spmm_a(B)[0],
                    sess.spmm_b(A)[0],
                    sess.fusedmm_a(A, B)[0],
                    sess.fusedmm_b(A, B)[0],
                ]
                if placement == "spread":
                    assert sess.explain().core is None
        for spread, packed in zip(outs["spread"], outs["packed"]):
            assert np.array_equal(spread, packed)

    def test_als_run_packed_equals_spread(self, monkeypatch):
        rng = np.random.default_rng(0)
        pat = repro.erdos_renyi(120, 90, 14, seed=1)
        vals = np.einsum(
            "ij,ij->i",
            rng.standard_normal((120, 6))[pat.rows],
            rng.standard_normal((90, 6))[pat.cols],
        )
        C = CooMatrix(pat.rows, pat.cols, vals, (120, 90), dedupe=False)
        runs = {}
        for placement in ("spread", "packed"):
            monkeypatch.setattr(
                als_module, "plan",
                lambda S, r, **knobs: placed(S, r, placement, **knobs),
            )
            als = DistributedALS(
                p=6, c=2, algorithm="1.5d-sparse-shift", lam=0.05, cg_iters=4
            )
            runs[placement] = als.run(C, 6, outer_iters=2, seed=5)
        spread, packed = runs["spread"], runs["packed"]
        assert np.array_equal(spread.A, packed.A)
        assert np.array_equal(spread.B, packed.B)
        assert spread.loss_history == packed.loss_history
        assert spread.report.comm_words == packed.report.comm_words


class TestWhereTheThreadsSit:
    @two_cores
    def test_ranks_share_one_core_when_packed(self, problem):
        S, _, _ = problem
        mine = frozenset(os.sched_getaffinity(0))
        with placed(S, 8, "packed", p=4) as sess:
            masks = rank_masks(sess)
            core = sess.explain().core
            assert masks == [frozenset({core})] * 4 and core in mine
            assert sess.metrics()[0]["plan"]["core"] == core
            assert sess.metrics()[0]["plan"] == sess.explain().as_dict()
            assert f"packed on core {core}" in repr(sess._pool)
        with placed(S, 8, "spread", p=4) as sess:
            assert rank_masks(sess) == [mine] * 4
            assert sess.explain().core is None
            assert "spread" in repr(sess._pool)

    @pinnable
    def test_the_driver_mask_is_never_touched(self, problem):
        S, A, B = problem
        before = os.sched_getaffinity(0)
        sess = placed(S, 8, "packed", p=4)
        assert os.sched_getaffinity(0) == before
        driver = threading.get_native_id()
        seen = []  # the driver's mask, read by every rank mid-call

        def read_driver_mask(ctx, plan_, local, sparse_plan=None):
            seen.append(os.sched_getaffinity(driver))

        sess.fusedmm_a(A, B)
        sess.run_rank(read_driver_mask, label="driver-mask")
        assert seen == [before] * 4  # ranks pinned, call running
        assert os.sched_getaffinity(0) == before
        sess.close()
        assert os.sched_getaffinity(0) == before

    @two_cores
    def test_two_packed_sessions_take_different_cores(self, problem):
        S, _, _ = problem
        with placed(S, 8, "packed", p=4) as one, placed(S, 8, "packed", p=2) as two:
            (a,), (b,) = set(rank_masks(one)), set(rank_masks(two))
            assert len(a) == len(b) == 1 and a != b
            assert {one.explain().core, two.explain().core} == set(a | b)

    @pinnable
    def test_nothing_to_pin_without_sched_setaffinity(self, problem, monkeypatch):
        S, A, B = problem
        mine = frozenset(os.sched_getaffinity(0))
        expected, _ = repro.fusedmm_a(S, A, B, p=4)
        monkeypatch.delattr(os, "sched_setaffinity")
        with placed(S, 8, "packed", p=4) as sess:
            assert np.array_equal(sess.fusedmm_a(A, B)[0], expected)
            assert rank_masks(sess) == [mine] * 4
            assert sess.explain().placement == "packed"
            assert sess.explain().core is None

    @pinnable
    def test_nothing_to_pin_on_a_one_core_mask(self, problem, monkeypatch):
        S, A, B = problem
        real = os.sched_getaffinity
        mine = frozenset(real(0))
        pinned = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(mine)})
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, mask: pinned.append(mask)
        )
        with placed(S, 8, "packed", p=4) as sess:
            sess.fusedmm_a(A, B)
            assert rank_masks(sess, real) == [mine] * 4
            assert sess.explain().core is None and not pinned

    @two_cores
    def test_a_refused_pin_runs_unpinned(self, problem, monkeypatch):
        def refuse(pid, mask):
            raise PermissionError("sched_setaffinity refused")

        S, A, B = problem
        mine = frozenset(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        with placed(S, 8, "packed", p=4) as sess:
            sess.fusedmm_a(A, B)
            assert rank_masks(sess) == [mine] * 4
            assert sess.explain().core is None

    def test_one_rank_and_spread_pools_pin_nothing(self):
        with WorkerPool(1, placement="packed") as pool:
            assert pool.core is None
        with make_worker_pool("threads", 2) as pool:
            assert (pool.placement, pool.core) == ("spread", None)
        with pytest.raises(ValueError, match="placement"):
            WorkerPool(2, placement="scattered")


class TestResolver:
    SHAPES = list(itertools.product((1024, 4096, 16384), (4, 8, 16), (2, 4)))

    def test_grain_formula_and_threshold(self):
        # 1.5D: p/c phases; 2.5D: sqrt(p/c)
        plan = resolve_plan(
            4096, 65423, 32, p=8, c=2, algorithm="1.5d-sparse-shift",
            elision="replication-reuse",
        )
        why = plan.why["placement"]
        assert why["phases"] == 4 and why["grain_flops"] == 2 * 65423 * 32 / (8 * 4)
        assert why["threshold_flops"] == PACK_GRAIN_FLOPS == 2**18
        assert plan.placement == "packed"
        plan = resolve_plan(
            16384, 119961, 64, p=8, c=2, algorithm="2.5d-sparse-replicate"
        )
        assert plan.why["placement"]["phases"] == 2 and plan.placement == "spread"
        assert plan.core is None  # resolve() never looks for a core

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_monotone_in_nnz_and_r(self, name):
        """At a fixed grid, more work per kernel call never packs a
        session that less work left spread."""
        p, c, elision = GRIDS[name]
        knobs = dict(p=p, c=c, algorithm=name, elision=elision)
        for n in (1024, 16384):
            by_nnz = [
                resolve_plan(n, n * per_row, 64, **knobs).placement
                for per_row in (1, 2, 4, 8, 16, 32, 64, 128)
            ]
            by_r = [
                resolve_plan(n, n * 8, r, **knobs).placement
                for r in (8, 16, 32, 64, 128, 256, 512)
            ]
            for seq in (by_nnz, by_r):
                assert seq == sorted(seq), (n, seq)  # "packed" < "spread"
        assert by_nnz[0] == "packed" and by_nnz[-1] == "spread"

    def test_the_host_is_recorded_never_consulted(self, monkeypatch):
        def decisions():
            return [
                (plan.placement, plan.algorithm, plan.c)
                for n, per_row, p in self.SHAPES
                for plan in [resolve_plan(n, n * per_row, 64, p=p, comm="auto")]
            ]

        here = decisions()
        assert {"packed", "spread"} == {d[0] for d in here}
        for cores in (1, 64):
            monkeypatch.setattr("repro.model.resolve._host_cores", lambda: cores)
            assert decisions() == here
            plan = resolve_plan(1024, 8192, 16, p=4)
            assert plan.why["placement"]["host_cores"] == cores

    def test_spread_where_there_is_no_thread_to_place(self, monkeypatch):
        assert resolve_plan(1024, 8192, 16, p=1).placement == "spread"
        monkeypatch.setattr("repro.runtime.backend.mpi_available", lambda: True)
        plan = resolve_plan(1024, 8192, 16, p=4, backend="mpi")
        assert plan.placement == "spread"
        assert "launcher" in plan.why["placement"]["reason"]
