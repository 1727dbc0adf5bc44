"""The one propagation schedule in ``algorithms/base.py``.

``ring_loop`` / ``chunk_lanes`` / ``exchange`` / ``allgather_behind`` are
the only code that knows whether a run is pipelined; the families and the
GAT reuse forward state lanes and packed legs.  Covers:

* the application guard — no module under ``apps/`` launches ranks,
  builds rank profiles / kernel backends or distributes operands itself:
  apps reach ranks only through ``Session``;
* the ownership guard — no family module (nor ``apps/gat.py``) reads
  ``overlap``, and no per-phase ``compute`` closure sorts or translates
  indices (a circulating chunk arrives kernel-ready); every family's
  ``dense_index`` pieces tile the dense matrices exactly once (the
  premise of the uninitialized ``_collect_dense`` output);
* ``ring_loop`` units — same payloads home in both modes, per-lane word
  and message counts (the chunk split adds exactly one message per
  phase), mutated lanes really shift *after* the kernel, nothing hidden
  synchronously;
* ``exchange`` — eager and deferred packed exchanges are bitwise and
  count-identical, and a synchronous sparse-comm session reports
  ``hidden_comm_seconds == 0.0``.
"""

from __future__ import annotations

import ast
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_SHIFT_B, DistributedAlgorithm, Lane
from repro.algorithms.registry import make_algorithm
from repro.comm_sparse.collectives import (
    isparse_allgatherv_packed,
    isparse_reduce_scatterv_packed,
)
from repro.errors import CommError
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import run_spmd
from repro.sparse.generate import erdos_renyi
from repro.types import Phase

SRC = Path(repro.__file__).parent

#: modules that state data movement but must not know the schedule
SCHEDULE_FREE = [
    "algorithms/dense_shift_15d.py",
    "algorithms/sparse_shift_15d.py",
    "algorithms/dense_repl_25d.py",
    "algorithms/sparse_repl_25d.py",
    "apps/gat.py",
]


#: index-shaped work a ring step must not do: it belongs to the chunk's
#: home rank, once per structure (``DistributedAlgorithm.home_chunk``)
INDEX_WORK_CALLS = {
    "argsort", "sort", "lexsort", "unique", "searchsorted", "take",
    "positions", "_local_cols", "_kernel_coords", "home_chunk",
    "global_to_local_map",
}
#: global -> local translation tables; indexing one is a fancy-index gather
INDEX_MAPS = {"loc_b", "lookup"}


def _phase_closures(tree: ast.AST) -> list:
    """The functions a module hands to ``ring_loop`` as the per-phase
    ``compute`` (fourth positional argument, always a local ``def``)."""
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ring_loop"
        ):
            compute = node.args[3]
            assert isinstance(compute, ast.Name), "compute must be a named def"
            names.add(compute.id)
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


class TestScheduleOwnership:
    @pytest.mark.parametrize("module", SCHEDULE_FREE)
    def test_ring_step_is_kernel_only(self, module):
        """No sort, no index translation, no preparation call inside a
        per-phase ``compute`` closure: a chunk arrives kernel-ready."""
        closures = _phase_closures(ast.parse((SRC / module).read_text()))
        assert closures, f"{module} runs no ring_loop"
        for fn in closures:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = getattr(f, "attr", None) or getattr(f, "id", "")
                    assert called not in INDEX_WORK_CALLS, (
                        f"{module}:{node.lineno} calls {called} inside {fn.name}"
                    )
                if isinstance(node, ast.Subscript) and isinstance(
                    node.value, ast.Attribute
                ):
                    assert node.value.attr not in INDEX_MAPS, (
                        f"{module}:{node.lineno} indexes {node.value.attr} "
                        f"inside {fn.name}"
                    )

    def test_the_guard_sees_a_translating_closure(self):
        bad = ast.parse(
            "def k(self):\n"
            "    def compute(t, rows, cols, vals):\n"
            "        lc = local.loc_b[cols]\n"
            "        order = np.argsort(lc)\n"
            "    self.ring_loop(comm, steps, lanes, compute)\n"
        )
        (fn,) = _phase_closures(bad)
        calls = {
            n.func.attr for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }
        maps = {
            n.value.attr for n in ast.walk(fn)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute)
        }
        assert calls & INDEX_WORK_CALLS and maps & INDEX_MAPS

    @pytest.mark.parametrize("module", SCHEDULE_FREE)
    def test_module_never_reads_overlap(self, module):
        tree = ast.parse((SRC / module).read_text())
        hits = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "overlap")
            or (isinstance(node, ast.Name) and node.id == "overlap")
            or (isinstance(node, (ast.arg, ast.keyword)) and node.arg == "overlap")
        ]
        assert not hits, f"{module} mentions overlap at lines {hits}"

    def test_base_is_the_only_reader_among_the_algorithms(self):
        readers = []
        for path in sorted((SRC / "algorithms").glob("*.py")):
            tree = ast.parse(path.read_text())
            if any(
                isinstance(node, ast.Attribute) and node.attr == "overlap"
                for node in ast.walk(tree)
            ):
                readers.append(path.name)
        assert readers == ["base.py"]

    def test_families_state_their_layout_once(self):
        for module in SCHEDULE_FREE[:4]:
            tree = ast.parse((SRC / module).read_text())
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
            }
            assert "piece_index" in defined, module
            assert not defined & {
                "dense_index", "bind_dense", "collect_dense_a", "collect_dense_b"
            }


#: what an application must not touch: launching ranks, building rank
#: profiles / kernel backends or distributing operands is the session's job
APP_FORBIDDEN_NAMES = {"run_spmd", "RankProfile", "get_kernel_backend"}
APP_FORBIDDEN_CALLS = {"distribute", "make_context"}


def _session_bypasses(tree: ast.AST) -> list:
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hits += [
                (node.lineno, alias.name) for alias in node.names
                if alias.name.rsplit(".", 1)[-1] in APP_FORBIDDEN_NAMES
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in APP_FORBIDDEN_CALLS
        ):
            hits.append((node.lineno, f".{node.func.attr}("))
    return hits


class TestAppsReachRanksThroughSession:
    @pytest.mark.parametrize(
        "path", sorted((SRC / "apps").glob("*.py")), ids=lambda p: p.name
    )
    def test_app_module_never_bypasses_the_session(self, path):
        hits = _session_bypasses(ast.parse(path.read_text()))
        assert not hits, f"apps/{path.name} bypasses Session: {hits}"

    def test_the_guard_sees_a_bypass(self):
        bad = ast.parse(
            "from repro.runtime.spmd import run_spmd\n"
            "from repro.runtime.profile import RankProfile, RunReport\n"
            "locals_ = alg.distribute(plan, S, None, None)\n"
            "ctx = alg.make_context(comm)\n"
        )
        assert [what for _, what in _session_bypasses(bad)] == [
            "run_spmd", "RankProfile", ".distribute(", ".make_context(",
        ]


#: the p x c grids the equivalence suites run each family on
TILING_GRIDS = [
    ("1.5d-dense-shift", 8, 1), ("1.5d-dense-shift", 8, 2),
    ("1.5d-dense-shift", 8, 4), ("1.5d-dense-shift", 6, 3),
    ("1.5d-sparse-shift", 8, 1), ("1.5d-sparse-shift", 8, 2),
    ("1.5d-sparse-shift", 8, 4), ("1.5d-sparse-shift", 6, 2),
    ("2.5d-dense-replicate", 4, 1), ("2.5d-dense-replicate", 8, 2),
    ("2.5d-dense-replicate", 9, 1), ("2.5d-dense-replicate", 16, 4),
    ("2.5d-sparse-replicate", 4, 1), ("2.5d-sparse-replicate", 8, 2),
    ("2.5d-sparse-replicate", 9, 1), ("2.5d-sparse-replicate", 16, 4),
    ("2.5d-sparse-replicate", 4, 4),
]


class TestDenseIndexTiling:
    """``_collect_dense`` allocates its output uninitialized: the ranks'
    ``dense_index`` pieces must cover every entry exactly once."""

    @pytest.mark.parametrize("shape", [(97, 123, 16), (64, 64, 8), (31, 50, 5)])
    @pytest.mark.parametrize("name,p,c", TILING_GRIDS)
    def test_pieces_tile_the_matrix_exactly_once(self, name, p, c, shape):
        m, n, r = shape
        alg = make_algorithm(name, p, c)
        try:
            plan = alg.plan(m, n, r)
        except repro.ReproError:
            pytest.skip("shape not representable on this grid")
        locals_ = alg.distribute_sparse(plan, erdos_renyi(m, n, 2, seed=0))
        for side, nrows in (("a", m), ("b", n)):
            hits = np.zeros((nrows, r), dtype=np.int64)
            for loc in locals_:
                hits[alg.dense_index(plan, loc, side)] += 1
            assert hits.min() == 1 and hits.max() == 1, (name, side)

    @pytest.mark.parametrize("name,p,c", TILING_GRIDS)
    def test_collect_round_trips_a_bound_matrix(self, name, p, c, rng):
        m, n, r = 97, 123, 16
        alg = make_algorithm(name, p, c)
        plan = alg.plan(m, n, r)
        locals_ = alg.distribute_sparse(plan, None)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        alg.bind_dense(plan, locals_, A, B)
        assert np.array_equal(alg.collect_dense_a(plan, locals_), A)
        assert np.array_equal(alg.collect_dense_b(plan, locals_), B)


# ----------------------------------------------------------------------
# ring_loop units
# ----------------------------------------------------------------------

P = 4
STEPS = P


def _ring_run(overlap: bool, accumulating: bool, kernel_sleep: float = 0.0):
    """One ring_loop over a sparse chunk (ragged lengths per rank) plus a
    dense block lane; returns per-rank final operands and the profiles."""
    alg = DistributedAlgorithm(P, 1)
    alg.overlap = overlap
    profiles = [RankProfile() for _ in range(P)]

    def body(comm):
        nnz = 5 + 3 * comm.rank  # every chunk has its own length
        rows = np.arange(nnz) + 100 * comm.rank
        cols = np.arange(nnz)[::-1].copy()
        vals = np.zeros(nnz) if accumulating else np.full(nnz, float(comm.rank))
        block = np.full((3, 2), float(comm.rank))
        seen = []

        def compute(t, r, c, v, blk):
            seen.append((t, int(r[0]) // 100, float(blk[0, 0])))
            if accumulating:
                v += comm.rank + 1  # every visited rank leaves its mark
            if kernel_sleep:
                time.sleep(kernel_sleep)

        lanes = [
            *alg.chunk_lanes(comm, rows, cols, vals, accumulating=accumulating),
            Lane(comm, block, TAG_SHIFT_B),
        ]
        out = alg.ring_loop(comm, STEPS, lanes, compute)
        return out, seen

    results, _ = run_spmd(P, body, profiles=profiles)
    return results, profiles


class TestRingLoop:
    @pytest.mark.parametrize("accumulating", [False, True])
    def test_pipelined_equals_synchronous(self, accumulating):
        (sync, _), (pipe, _) = (
            _ring_run(False, accumulating), _ring_run(True, accumulating)
        )
        for (out_s, seen_s), (out_p, seen_p) in zip(sync, pipe):
            assert seen_s == seen_p  # same operands at every phase
            assert len(out_s) == len(out_p) == 4  # rows, cols, vals, block
            for a, b in zip(out_s, out_p):
                assert np.array_equal(a, b)

    def test_full_cycle_brings_operands_home_with_every_ranks_mark(self):
        results, _ = _ring_run(True, accumulating=True)
        for rank, (out, seen) in enumerate(results):
            rows, _cols, vals, block = out
            assert rows[0] // 100 == rank and block[0, 0] == rank
            # the accumulating lane shifted *after* each kernel: all P
            # ranks' increments arrived, in both halves of the split
            assert np.array_equal(vals, np.full(len(rows), sum(range(1, P + 1))))
            # displacement -1: at phase t the chunk of rank+t is resident
            assert [s[1] for s in seen] == [(rank + t) % P for t in range(STEPS)]

    @pytest.mark.parametrize("accumulating", [False, True])
    def test_word_and_message_counts_per_mode(self, accumulating):
        _, sync = _ring_run(False, accumulating)
        _, pipe = _ring_run(True, accumulating)
        for ps, pp in zip(sync, pipe):
            cs, cp = ps.counters[Phase.PROPAGATION], pp.counters[Phase.PROPAGATION]
            assert cs.words_received == cp.words_received
            assert cs.words_sent == cp.words_sent
            # two lanes -> two messages per phase; the split chunk of an
            # accumulating round adds exactly one more per phase
            assert cs.messages_received == 2 * STEPS
            extra = STEPS if accumulating else 0
            assert cp.messages_received == 2 * STEPS + extra
            assert cp.messages_sent == cs.messages_sent + extra

    def test_nothing_hidden_synchronously_something_hidden_pipelined(self):
        _, sync = _ring_run(False, accumulating=True, kernel_sleep=0.005)
        _, pipe = _ring_run(True, accumulating=True, kernel_sleep=0.005)
        assert all(
            p.counters[ph].hidden_seconds == 0.0 for p in sync for ph in Phase
        )
        assert any(p.counters[Phase.PROPAGATION].hidden_seconds > 0.0 for p in pipe)

    def test_allgather_behind_same_parts_and_received_words(self):
        def body(comm, overlap):
            alg = DistributedAlgorithm(P, 1)
            alg.overlap = overlap
            with comm.profile.track(Phase.REPLICATION):
                wait = alg.allgather_behind(comm, np.arange(2.0) + comm.rank, tag=77)
                parts = wait()
            return parts, comm.profile.counters[Phase.REPLICATION].words_received

        sync, _ = run_spmd(P, partial(body, overlap=False))
        pipe, _ = run_spmd(P, partial(body, overlap=True))
        for (parts_s, words_s), (parts_p, words_p) in zip(sync, pipe):
            assert words_s == words_p
            for a, b in zip(parts_s, parts_p):
                assert np.array_equal(a, b)

    def test_iallgather_waited_twice_raises(self):
        def body(comm):
            pend = comm.iallgather(np.ones(2), tag=78)
            pend.wait()
            with pytest.raises(CommError):
                pend.wait()

        run_spmd(2, body)


# ----------------------------------------------------------------------
# exchange: eager (synchronous) == deferred (pipelined)
# ----------------------------------------------------------------------


def _packed_exchanges(overlap: bool):
    """A packed gather and a packed reduction on the 1.5D sparse-shift
    fiber plans, driven through ``alg.exchange``."""
    p, c, m, n, r = 8, 4, 61, 53, 6
    alg = make_algorithm("1.5d-sparse-shift", p, c)
    alg.overlap = overlap
    S = erdos_renyi(m, n, 4, seed=11)
    rng = np.random.default_rng(5)
    plan = alg.plan(m, n, r)
    locals_ = alg.distribute(plan, S, rng.standard_normal((m, r)), None)
    sparse_plans = alg.build_comm_plans(plan, S)
    profiles = [RankProfile() for _ in range(p)]

    def body(comm):
        ctx = alg.make_context(comm)
        local, sp = locals_[comm.rank], sparse_plans[comm.rank]
        panel = np.full((sp.index.size, local.A.shape[1]), np.nan)

        def own_gather():
            panel[sp.own_packed] = local.A[sp.own_local]

        with comm.profile.track(Phase.REPLICATION):
            alg.exchange(
                [partial(isparse_allgatherv_packed, ctx.fiber, sp.gather_packed,
                         sp.index, local.A, panel, pool=ctx.pool)],
                own_gather,
            )
        contrib = panel * (comm.rank + 1)
        base = np.zeros_like(local.A)

        def own_reduce():
            base[sp.own_local] = contrib[sp.own_packed]

        with comm.profile.track(Phase.REPLICATION):
            (reduced,) = alg.exchange(
                [partial(isparse_reduce_scatterv_packed, ctx.fiber,
                         sp.reduce_packed, sp.index, contrib, base)],
                own_reduce,
            )
        assert reduced is base
        return panel, base

    results, _ = run_spmd(p, body, profiles=profiles)
    return results, profiles


class TestExchange:
    def test_eager_equals_deferred_bitwise_and_in_counts(self):
        sync, prof_s = _packed_exchanges(False)
        pipe, prof_p = _packed_exchanges(True)
        for (panel_s, base_s), (panel_p, base_p) in zip(sync, pipe):
            assert not np.isnan(panel_s).any()  # every packed row was covered
            assert np.array_equal(panel_s, panel_p)
            assert np.array_equal(base_s, base_p)
        for ps, pp in zip(prof_s, prof_p):
            cs, cp = ps.counters[Phase.REPLICATION], pp.counters[Phase.REPLICATION]
            assert (cs.words_received, cs.messages_received) == (
                cp.words_received, cp.messages_received,
            )
            assert (cs.words_sent, cs.messages_sent) == (
                cp.words_sent, cp.messages_sent,
            )
            assert cs.hidden_seconds == 0.0  # eager: plain blocking receives

    @pytest.mark.parametrize("name,p,c,elision", [
        ("1.5d-sparse-shift", 8, 4, "replication-reuse"),
        ("2.5d-sparse-replicate", 8, 2, "none"),
    ])
    def test_synchronous_sparse_comm_session_hides_nothing(
        self, name, p, c, elision, small_problem
    ):
        S, A, B = small_problem
        with repro.plan(
            S, A.shape[1], p=p, c=c, algorithm=name, elision=elision,
            comm="sparse", overlap="off",
        ) as sess:
            sess.fusedmm_a(A, B)
            _, report = sess.fusedmm_b(A, B)
            sess.sddmm(A, B)
            assert report.hidden_comm_seconds == 0.0
            assert sess.report().hidden_comm_seconds == 0.0
