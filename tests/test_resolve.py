"""Plan-time resolution (``repro.model.resolve``): one pure function.

Every test here but the last class runs with the worker-pool factory
patched to raise — ``resolve()`` takes shape statistics, so a decision is
examined without a matrix and without a rank.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.registry import (
    ALGORITHMS,
    feasible_replication_factors,
    supported_elisions,
    supports_sparse_comm,
)
from repro.baselines.serial import fusedmm_a_serial
from repro.errors import (
    BackendUnavailableError,
    KernelBackendUnavailableError,
    ReproError,
    UnknownBackendError,
    UnknownKernelBackendError,
)
from repro.kernels.registry import numba_available
from repro.model.costs import PAPER_COST_ROWS, row_key
from repro.model.optimal import choose_comm_mode
from repro.model.resolve import ResolvedPlan
from repro.runtime.backend import mpi_available
from repro.runtime.cost import CORI_KNL
from repro.sparse.generate import rmat
from repro.sparse.stats import layout_statistics
from repro.types import CommMode, Elision

from helpers import resolve_plan

ELISIONS = [e.value for e in Elision]


@pytest.fixture(autouse=True)
def no_ranks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plan-time resolution must not spawn a rank")

    monkeypatch.setattr("repro.runtime.spmd.make_worker_pool", refuse)
    monkeypatch.setattr("repro.session.make_worker_pool", refuse)


def decision(plan: ResolvedPlan):
    return (
        plan.algorithm, plan.c, plan.comm_mode.value, plan.placement, plan.layout,
    )


#: the Motivation's grid: n x nnz/row x r x p
GRID = list(
    itertools.product(
        (1024, 4096, 16384), (2, 8, 32, 128), (16, 64, 128), (4, 8, 9, 16)
    )
)


class TestDecisionPins:
    """The resolved tuple of the five ``benchmarks/e2e`` configurations
    (seed 7; ``nnz`` and the layout statistics as generated), read from
    the commit before the resolver existed.  A PR that changes a decision
    changes this table.

    ``small_auto`` moved once: the sequential ``algorithm -> c -> comm``
    resolver picked ``("1.5d-sparse-shift", 1, "dense", "on")`` from the
    dense rows alone (``model.auto_regret`` 2.3-2.75); the joint decision
    prices the need-list row and takes the 2.5D q = 1 grid.  ``als_sweep``
    moved once: its grain (131 k FLOPs per local kernel call) is under
    ``PACK_GRAIN_FLOPS``, so its ranks share a core.  ``rmat_25d`` is the one
    skewed input (block imbalance 3.36, union proxy 14 377 -> 8 798): it
    is distributed permuted; the four ER inputs (<= 1.017) stay natural.
    The whole grid's decisions are pinned by :class:`TestGoldenDecisions`.
    """

    PINS = {
        "er_comm": (
            dict(n=16384, nnz=65525, r=128, p=8, c=4, algorithm="1.5d-sparse-shift",
                 elision="replication-reuse", comm="sparse"),
            lambda: repro.erdos_renyi(16384, 16384, 4, seed=7),
            ("1.5d-sparse-shift", 4, "sparse", "spread", "natural"),
        ),
        "er_compute": (
            dict(n=8192, nnz=261654, r=32, p=8, c=2, algorithm="1.5d-dense-shift",
                 elision="local-kernel-fusion", comm="dense"),
            lambda: repro.erdos_renyi(8192, 8192, 32, seed=7),
            ("1.5d-dense-shift", 2, "dense", "spread", "natural"),
        ),
        "rmat_25d": (
            dict(n=16384, nnz=119961, r=64, p=8, c=2,
                 algorithm="2.5d-sparse-replicate", elision="none", comm="auto"),
            lambda: rmat(14, 8, seed=7),
            ("2.5d-sparse-replicate", 2, "sparse", "spread", "permuted"),
        ),
        "small_auto": (
            dict(n=2048, nnz=16351, r=64, p=4, c=None, algorithm="auto",
                 elision="none", comm="auto", overlap="auto"),
            lambda: repro.erdos_renyi(2048, 2048, 8, seed=7),
            ("2.5d-sparse-replicate", 4, "sparse", "spread", "natural"),
        ),
        "als_sweep": (
            dict(n=4096, nnz=65423, r=32, p=8, c=2, algorithm="1.5d-sparse-shift",
                 elision="replication-reuse", comm="dense"),
            lambda: repro.erdos_renyi(4096, 4096, 16, seed=7, values="ones"),
            ("1.5d-sparse-shift", 2, "dense", "packed", "natural"),
        ),
    }

    @pytest.mark.parametrize("workload", sorted(PINS))
    def test_e2e_configuration(self, workload):
        knobs, make, expected = self.PINS[workload]
        S = make()
        assert S.nnz == knobs["nnz"]
        structure = layout_statistics(S, knobs["p"])
        assert decision(resolve_plan(**knobs, structure=structure)) == expected


GOLDEN = pathlib.Path(__file__).with_name("golden_decisions.json")


def grid_decisions():
    """``{"<elision>/<comm>": {"n,nnz/row,r,p": "<family> c=<c> <comm>
    <placement> <layout>"}}`` over ``GRID``, every other
    knob on auto (shape statistics only, so every layout is natural)."""
    doc = {}
    for elision, comm in itertools.product(ELISIONS, ("dense", "auto", "sparse")):
        points = doc[f"{elision}/{comm}"] = {}
        for n, per_row, r, p in GRID:
            try:
                plan = resolve_plan(n, n * per_row, r, p=p, elision=elision, comm=comm)
            except ReproError:
                resolved = "ReproError"
            else:
                resolved = "{} c={} {} {} {}".format(*decision(plan))
            points[f"{n},{per_row},{r},{p}"] = resolved
    return doc


class TestGoldenDecisions:
    """Every ``auto`` decision over ``GRID`` x elision x comm is committed
    in ``tests/golden_decisions.json``: a PR that moves one shows it as a
    reviewed diff.  Regenerate with
    ``REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest
    tests/test_resolve.py -k golden``."""

    def test_decisions_match_the_committed_table(self):
        doc = grid_decisions()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
        golden = json.loads(GOLDEN.read_text())
        moved = {
            f"{block} @ {point}": (golden.get(block, {}).get(point), resolved)
            for block, points in doc.items()
            for point, resolved in points.items()
            if golden.get(block, {}).get(point) != resolved
        }
        assert not moved, f"{len(moved)} decision(s) moved (committed, now): {moved}"
        assert {b: sorted(pts) for b, pts in golden.items()} == {
            b: sorted(pts) for b, pts in doc.items()
        }


class TestAutoHonoursTheElision:
    """``algorithm="auto"`` only considers families that can run the
    requested elision (at the parent it picked the overall winner and
    ``plan()`` then rejected 66 of the grid's 432 points)."""

    def test_never_a_family_outside_supported_elisions(self):
        """...nor through the row of an elision the session will not run
        (the sequential resolver let ``1.5d-sparse-shift`` win
        ``elision="none"`` by its ``replication-reuse`` row)."""
        for (n, per_row, r, p), elision in itertools.product(GRID, Elision):
            plan = resolve_plan(n, n * per_row, r, p=p, elision=elision)
            assert elision in supported_elisions(plan.algorithm), (n, per_row, r, p)
            row = plan.why["algorithm"]["row"]
            assert row.split("/")[1] == elision.value, (n, per_row, r, p)
            assert row.split("/")[0] == plan.algorithm

    def test_candidates_are_the_rows_of_the_requested_elision(self):
        plan = resolve_plan(2048, 16351, 64, p=4, elision="local-kernel-fusion")
        assert plan.algorithm == "1.5d-dense-shift"
        table = plan.why["algorithm"]["candidates"]
        assert {rec["row"] for rec in table} == {"1.5d-dense-shift/local-kernel-fusion"}
        assert [rec["c"] for rec in table] == [1, 2, 4]

    def test_explicit_c_restricts_the_families(self):
        # c=2 is no 2.5D grid at p=4: only the 1.5D rows compete
        plan = resolve_plan(2048, 16351, 64, p=4, c=2, comm="auto")
        table = plan.why["algorithm"]["candidates"]
        assert {rec["row"] for rec in table} == {
            "1.5d-dense-shift/none", "1.5d-sparse-shift/none"
        }
        assert {rec["c"] for rec in table} == {2} and plan.c == 2
        with pytest.raises(ReproError, match="c=3 infeasible on p=4 for every"):
            resolve_plan(2048, 16351, 64, p=4, c=3)

    def test_explicit_family_keeps_its_typed_error(self):
        with pytest.raises(ReproError, match="supports .* not local-kernel-fusion"):
            resolve_plan(
                2048, 16351, 64, p=4, algorithm="1.5d-sparse-shift",
                elision="local-kernel-fusion",
            )

    def test_no_family_runs_fusion_on_need_lists(self):
        with pytest.raises(ReproError, match="no algorithm family supports"):
            resolve_plan(
                2048, 16351, 64, p=4, elision="local-kernel-fusion", comm="sparse"
            )


class TestNoSilentFallback:
    """What the model cannot price is a typed error, never a default."""

    def test_every_supported_configuration_has_a_cost_row(self):
        rows = {
            row_key(name, elision)
            for name in ALGORITHMS
            for elision in supported_elisions(name)
        }
        assert rows == set(PAPER_COST_ROWS)

    def test_infeasible_c_is_the_feasibility_error(self):
        with pytest.raises(ReproError) as exc:
            resolve_plan(4096, 32768, 64, p=8, c=4, algorithm="2.5d-sparse-replicate")
        assert str(exc.value) == (
            "replication factor c=4 infeasible for 2.5d-sparse-replicate on p=8; "
            "feasible: (2, 8)"
        )

    def test_model_picked_c_is_feasible_where_one_is_not(self):
        # p=8 has no c=1 2.5D grid: the parent's fallback value
        plan = resolve_plan(4096, 32768, 64, p=8, algorithm="2.5d-sparse-replicate")
        assert plan.c in (2, 8)
        assert plan.why["c"]["feasible"] == [2, 8]


class TestGuardOrder:
    """Unknown name, then the thread-only feature guards, then
    availability — the same guidance whatever is installed.  The
    *available* branches execute in CI's ``mpi-smoke`` and
    ``kernel-backends`` lanes, the only places with mpi4py / numba."""

    SHAPE = (1024, 8192, 32)

    def test_unknown_names_first(self):
        with pytest.raises(UnknownKernelBackendError):
            resolve_plan(*self.SHAPE, kernels="cuda", backend="carrier-pigeon")
        with pytest.raises(UnknownBackendError):
            resolve_plan(*self.SHAPE, kernels="numba", backend="carrier-pigeon")
        with pytest.raises(UnknownBackendError):
            resolve_plan(*self.SHAPE, backend="carrier-pigeon")

    @pytest.mark.parametrize(
        "knobs", [dict(kernels="numba"), dict(retries=1), dict(faults=object())]
    )
    def test_thread_only_guards_before_availability(self, knobs):
        with pytest.raises(ReproError, match="thread-backend-only") as exc:
            resolve_plan(*self.SHAPE, backend="mpi", **knobs)
        assert not isinstance(exc.value, BackendUnavailableError)

    def test_mpi_resolves_exactly_where_it_can_run(self):
        if mpi_available():
            assert resolve_plan(*self.SHAPE, backend=" MPI ").backend == "mpi"
        else:
            with pytest.raises(BackendUnavailableError, match="mpi4py"):
                resolve_plan(*self.SHAPE, backend="mpi")

    def test_numba_resolves_exactly_where_it_can_run(self):
        if numba_available():
            plan = resolve_plan(*self.SHAPE, kernels="numba")
            assert (plan.kernels, plan.compute_gamma) == ("numba", None)
        else:
            with pytest.raises(KernelBackendUnavailableError, match="numba"):
                resolve_plan(*self.SHAPE, kernels="numba")

    def test_knob_values_are_checked(self):
        for bad, match in (
            (dict(r=0), "r must be positive"),
            (dict(overlap="maybe"), "overlap must be one of"),
            (dict(trace="auto"), "trace must be one of"),
            (dict(deadline_ms=0), "deadline_ms must be positive"),
            (dict(retries=-1), "retries must be non-negative"),
        ):
            shape = dict(zip(("n", "nnz", "r"), self.SHAPE))
            with pytest.raises(ReproError, match=match):
                resolve_plan(**{**shape, **bad})


@st.composite
def requests(draw):
    n = draw(st.sampled_from((64, 1000, 4096, 50000)))
    p = draw(st.sampled_from((1, 2, 4, 6, 8, 9, 12, 16)))
    return dict(
        n=n,
        m=draw(st.sampled_from((n, n // 2, 3 * n))),
        nnz=draw(st.integers(0, 64)) * n,
        r=draw(st.sampled_from((1, 8, 64, 256))),
        p=p,
        c=draw(st.sampled_from((None, 1, 2, 3, 4, 8, p))),
        algorithm=draw(st.sampled_from(("auto", *sorted(ALGORITHMS)))),
        elision=draw(st.sampled_from(ELISIONS)),
        comm=draw(st.sampled_from(("dense", "sparse", "auto"))),
        overlap=draw(st.sampled_from(("off", "on", "auto"))),
    )


class TestResolveProperty:
    @given(requests())
    @settings(max_examples=300, deadline=None)
    def test_a_valid_plan_or_a_typed_error(self, knobs):
        try:
            plan = resolve_plan(**knobs)
        except ReproError:
            return
        assert plan.algorithm in ALGORITHMS
        assert plan.c in feasible_replication_factors(plan.algorithm, plan.p)
        assert plan.elision in supported_elisions(plan.algorithm)
        assert plan.comm_mode in (CommMode.DENSE, CommMode.SPARSE)
        if plan.comm_mode == CommMode.SPARSE:
            assert supports_sparse_comm(plan.algorithm)
        assert plan.why["overlap"]["requested"] == knobs["overlap"]
        # an explicit knob is never overridden
        for knob, got in zip(("algorithm", "c", "comm"), decision(plan)):
            assert knobs[knob] in ("auto", None, got)
        # pure: equal inputs, equal frozen plans
        assert resolve_plan(**knobs) == plan
        with pytest.raises(AttributeError):
            plan.c = 1


class TestWhy:
    RECORD = {
        "row", "c", "comm", "seconds", "score", "words", "messages", "buffer_words"
    }

    def test_records_every_candidate_and_round_trips(self):
        plan = resolve_plan(2048, 16351, 64, p=4, comm="auto")
        why = plan.why
        assert set(why) == {
            "layout", "kernels", "algorithm", "c", "comm", "placement", "overlap"
        }
        assert why["layout"] == {
            "row_imbalance": None, "col_imbalance": None, "union_natural": None,
            "union_permuted": None, "seed": None, "threshold": 1.25,
            "reason": "shape statistics only: no structure to balance",
        }
        # every (row, c, comm) of elision="none": each family's feasible
        # c, dense everywhere, sparse where the family has need lists
        table = why["algorithm"]["candidates"]
        expected = [
            (row_key(name, Elision.NONE), c, mode)
            for name in sorted(ALGORITHMS)
            for c in feasible_replication_factors(name, 4)
            for mode in ("dense", "sparse")[: 1 + supports_sparse_comm(name)]
        ]
        assert [(rec["row"], rec["c"], rec["comm"]) for rec in table] == expected
        assert all(set(rec) - {"caveat"} == self.RECORD for rec in table)
        # a dense candidate competes at margin x its seconds, a sparse one
        # at its seconds; the picked triple is the arg-min
        margin = why["algorithm"]["margin"]
        for rec in table:
            handicap = margin if rec["comm"] == "dense" else 1.0
            assert rec["score"] == handicap * rec["seconds"]
        best = table[why["algorithm"]["picked"]]
        assert best["score"] == min(rec["score"] for rec in table)
        assert (best["row"], best["c"], best["comm"]) == (
            why["algorithm"]["row"], plan.c, plan.comm_mode.value
        )
        assert best["row"].split("/")[0] == plan.algorithm
        # why["c"] / why["comm"] point into the table
        assert plan.c in why["c"]["feasible"] and why["c"]["requested"] is None
        assert why["c"]["candidate"] == why["algorithm"]["picked"]
        assert why["comm"]["picked"] == plan.comm_mode.value
        for mode in ("dense", "sparse"):
            rec = table[why["comm"][mode]]
            assert (rec["row"], rec["c"], rec["comm"]) == (best["row"], plan.c, mode)
        assert why["overlap"] == {
            "requested": "auto", "reason": "one synchronous schedule"
        }
        # 2.5D at q = 1: one phase, 2 * 16351 * 64 / 4 FLOPs per kernel call
        assert why["placement"]["host_cores"] >= 1
        assert why["placement"] == {
            "grain_flops": 523232.0, "phases": 1, "threshold_flops": 2**18,
            "host_cores": why["placement"]["host_cores"],
            "reason": "coarse grain: kernels run in parallel",
        }
        doc = plan.as_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["machine"]["name"] == "cori-knl" and doc["faults"] is False

    def test_the_need_list_row_is_what_picks_small_auto(self):
        """36 790 modelled words (36 791 measured,
        ``test_comm_model.py::TestNeedListQ1``) against the 98 106 of the
        sequential resolver's pick."""
        plan = resolve_plan(2048, 16351, 64, p=4, comm="auto")
        table = plan.why["algorithm"]["candidates"]
        best = table[plan.why["algorithm"]["picked"]]
        assert (best["row"], best["c"], best["comm"]) == (
            "2.5d-sparse-replicate/none", 4, "sparse"
        )
        assert round(best["words"]) == 36790 and best["messages"] == 9
        # the dense row at q = 1 still charges the ring's self-shift — and
        # says so (ROADMAP 1(b): the as-implemented dense cost)
        dense = table[plan.why["comm"]["dense"]]
        assert round(dense["words"]) == 167862 and "self-shift" in dense["caveat"]
        assert [rec["c"] for rec in table if "caveat" in rec] == [4, 4]

    def test_explicit_knobs_price_the_one_candidate(self):
        """No second path: explicit knobs are the same table, restricted."""
        plan = resolve_plan(
            2048, 16351, 64, p=4, c=2, algorithm="1.5d-dense-shift", overlap="off"
        )
        why = plan.why
        (only,) = why["algorithm"]["candidates"]
        assert (only["row"], only["c"], only["comm"]) == (
            "1.5d-dense-shift/none", 2, "dense"
        )
        assert why["algorithm"]["requested"] == "1.5d-dense-shift"
        assert why["algorithm"]["picked"] == 0
        assert why["c"] == {"requested": 2, "feasible": [1, 2, 4], "candidate": 0}
        assert why["comm"] == {"requested": "dense", "dense": 0, "picked": "dense"}
        assert why["overlap"] == {
            "requested": "off", "reason": "one synchronous schedule"
        }

    def test_fixed_family_and_c_reproduce_choose_comm_mode(self):
        """``choose_comm_mode`` is a view of the same table."""
        for (n, per_row, r, p), name in itertools.product(
            GRID[::7], ("1.5d-sparse-shift", "2.5d-sparse-replicate")
        ):
            for c in feasible_replication_factors(name, p):
                plan = resolve_plan(
                    n, n * per_row, r, p=p, c=c, algorithm=name, comm="auto"
                )
                assert plan.comm_mode.value == choose_comm_mode(
                    name, n, r, n * per_row, p, c
                )

    def test_dense_only_family_answers_comm_auto_with_a_reason(self):
        plan = resolve_plan(
            2048, 16351, 64, p=4, algorithm="1.5d-dense-shift", comm="auto"
        )
        assert plan.comm_mode == CommMode.DENSE and "reason" in plan.why["comm"]


class TestThroughPlan:
    def test_plan_spawns_nothing_and_mirrors_the_resolved_plan(self):
        S = repro.erdos_renyi(256, 256, 8, seed=7)
        with repro.plan(S, 16, p=4, comm="auto") as sess:
            plan = sess.explain()
            assert plan is sess.explain()
            assert plan == resolve_plan(
                256, S.nnz, 16, p=4, comm="auto", structure=layout_statistics(S, 4)
            )
            assert sess.layout == plan.layout == "natural"
            assert (sess.algorithm, sess.p, sess.c) == (plan.algorithm, 4, plan.c)
            assert (sess.elision, sess.comm_mode) == (plan.elision, plan.comm_mode)
            assert (sess.overlap_mode, sess.trace_mode) == ("off", plan.trace)
            assert (sess.kernels, sess.backend) == (plan.kernels, plan.backend)
            assert (sess.r, sess.phi, sess.machine) == (16, plan.phi, plan.machine)


class TestThroughPlanWithRanks:
    @pytest.fixture(autouse=True)
    def no_ranks(self):
        """These tests run kernels: the module-wide guard is lifted."""

    def test_first_metrics_record_embeds_the_plan(self):
        S = repro.erdos_renyi(256, 256, 8, seed=7)
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((256, 16)), rng.standard_normal((256, 16))
        with repro.plan(S, 16, p=4, comm="auto") as sess:
            sess.fusedmm_a(A, B)
            sess.sddmm(A, B)
            first, later = sess.metrics()
            assert first["plan"] == sess.explain().as_dict()
            assert "plan" not in later
            line0 = sess.metrics_jsonl().splitlines()[0]
            assert json.loads(line0)["plan"] == first["plan"]
            sess.reset_profile()  # every window's record 0 is self-describing
            sess.spmm_a(B)
            assert sess.metrics()[0]["plan"] == first["plan"]

    def test_auto_with_an_elision_the_model_winner_lacks_runs(self):
        """Raised ``1.5d-sparse-shift supports [...], not
        local-kernel-fusion`` at the parent."""
        S = repro.erdos_renyi(2048, 2048, 8)
        rng = np.random.default_rng(1)
        A, B = rng.standard_normal((2048, 64)), rng.standard_normal((2048, 64))
        with repro.plan(S, 64, p=4, elision="local-kernel-fusion") as sess:
            assert sess.algorithm == "1.5d-dense-shift"
            out, _ = sess.fusedmm_a(A, B)
        np.testing.assert_allclose(out, fusedmm_a_serial(S, A, B), rtol=1e-9)


class TestMeasuredRegret:
    """ROADMAP 1(d), counts not clocks: one ``fusedmm_a`` on every feasible
    ``(family, c, comm)`` of ``elision="none"``; the all-``auto`` session
    must move at most 1.25x the words of the best of them.  (The
    sequential resolver's regret on these three: 2.67, 2.22, 2.78.)  Every
    session of one operand shares its layout, so the skewed ``rmat(10)``
    input runs permuted on every candidate: the pick's words went
    13 439 -> 9 621, still the best of the table (regret 1.00)."""

    @pytest.fixture(autouse=True)
    def no_ranks(self):
        """These tests run kernels: the module-wide guard is lifted."""

    CONFIGS = {
        "er-p4-low-phi": (
            lambda: repro.erdos_renyi(2048, 2048, 8, seed=7), 64, 4,
            ("2.5d-sparse-replicate", 4, "sparse", "spread", "natural"),
            36791,
        ),
        "er-p8-phi-half": (
            lambda: repro.erdos_renyi(1024, 1024, 16, seed=2), 32, 8,
            ("2.5d-sparse-replicate", 2, "sparse", "packed", "natural"),
            18471,
        ),
        "rmat-p8": (
            lambda: rmat(10, 8, seed=3), 32, 8,
            ("2.5d-sparse-replicate", 2, "sparse", "packed", "permuted"),
            9621,
        ),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_auto_moves_at_most_a_quarter_more_than_the_best(self, config):
        make, r, p, picked, picked_words = self.CONFIGS[config]
        S = make()
        rng = np.random.default_rng(1)
        A = rng.standard_normal((S.nrows, r))
        B = rng.standard_normal((S.ncols, r))
        words = {}
        for name in sorted(ALGORITHMS):
            modes = ("dense", "sparse")[: 1 + supports_sparse_comm(name)]
            for c, comm in itertools.product(
                feasible_replication_factors(name, p), modes
            ):
                _, report = repro.fusedmm_a(
                    S, A, B, p=p, c=c, algorithm=name, comm=comm
                )
                words[name, c, comm] = report.comm_words
        with repro.plan(S, r, p=p, comm="auto") as sess:
            _, report = sess.fusedmm_a(A, B)
            plan = sess.explain()
        assert decision(plan) == picked
        best = plan.why["algorithm"]["candidates"][plan.why["algorithm"]["picked"]]
        assert (best["row"], best["c"], best["comm"]) == (
            f"{picked[0]}/none", picked[1], picked[2]
        )
        assert report.comm_words == words[picked[:3]] == picked_words
        assert report.comm_words <= 1.25 * min(words.values()), words

