"""The one propagation schedule in ``algorithms/base.py``.

``ring_loop`` / ``chunk_lanes`` run every propagation round
synchronously — each shift is waited where it is posted — and the packed
need-list collectives block; the families and the GAT reuse forward only
state lanes and packed legs.  Covers:

* the application guard — no module under ``apps/`` launches ranks,
  builds rank profiles / kernel backends, distributes operands, binds,
  names a resident orientation, its ``locals_`` or a collect, or reads a
  private session attribute: apps reach ranks only through ``Session``'s
  kernels and ``run_rank``;
* the one-schedule guard — no ``src/`` module defines or calls a
  nonblocking primitive (``ishift`` / ``irecv`` / ``iallgather``), a
  buffer ``lease``, ``run_async`` or any ``*_async`` entry point, names
  a cross-call future type (``SessionFuture`` / ``PoolFuture`` /
  ``_SettledFuture``), or reads an ``overlap`` attribute;
* the ownership guard — no per-phase ``compute`` closure sorts or
  translates indices (a circulating chunk arrives kernel-ready); every
  family's ``dense_index`` pieces tile the dense matrices exactly once
  (the premise of the uninitialized ``_collect_dense`` output);
* ``ring_loop`` units — operands come home after a full cycle, a mutated
  lane really shifts *after* the kernel, one message per lane per phase;
* the packed collectives — every packed row covered, counts as planned,
  and the metrics record keeps ``hidden_comm_ms`` at 0.0.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.base import TAG_SHIFT_B, DistributedAlgorithm, Lane
from repro.algorithms.registry import make_algorithm
from repro.comm_sparse.collectives import (
    sparse_allgatherv_packed,
    sparse_reduce_scatterv_packed,
)
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


#: the pipeline's nonblocking primitives and double-buffer leases, and
#: the cross-call pipeline's pool entry point (every ``*_async`` name too)
PIPELINE_NAMES = {
    "ishift", "irecv", "isendrecv", "iallgather", "lease", "lease_zeros",
    "run_async",
}
#: the cross-call pipeline's future types
FUTURE_TYPES = {"SessionFuture", "PoolFuture", "_SettledFuture"}


def _pipelined(name: str) -> bool:
    return name in PIPELINE_NAMES or name.endswith("_async")


def _pipeline_hits(tree):
    """Where ``tree`` defines or calls a :data:`PIPELINE_NAMES` member or
    an ``*_async`` function, names a :data:`FUTURE_TYPES` member, or
    reads an ``overlap`` attribute, in source order."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _pipelined(node.name):
            hits.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.ClassDef) and node.name in FUTURE_TYPES:
            hits.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Call):
            f = node.func
            called = getattr(f, "attr", None) or getattr(f, "id", "")
            if _pipelined(called):
                hits.append((node.lineno, f"calls {called}"))
        elif isinstance(node, ast.Name) and node.id in FUTURE_TYPES:
            hits.append((node.lineno, f"names {node.id}"))
        elif isinstance(node, ast.ImportFrom):
            hits += [
                (node.lineno, f"imports {alias.name}") for alias in node.names
                if alias.name in FUTURE_TYPES
            ]
        elif isinstance(node, ast.Attribute) and node.attr == "overlap":
            hits.append((node.lineno, "reads .overlap"))
    return [f"{what} (line {line})" for line, what in sorted(hits)]


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

    @pytest.mark.parametrize(
        "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
    )
    def test_one_synchronous_schedule(self, path):
        hits = _pipeline_hits(ast.parse(path.read_text()))
        assert not hits, f"{path.relative_to(SRC)}: {hits}"

    def test_the_guard_sees_the_pipeline(self):
        bad = ast.parse(
            "class C:\n"
            "    def ishift(self, x): ...\n"
            "    def k(self, comm, pool):\n"
            "        pend = comm.irecv(0)\n"
            "        panel = pool.lease('gather-a', (4, 4))\n"
            "        if self.overlap: ...\n"
        )
        assert [h.split(" ")[0] for h in _pipeline_hits(bad)] == [
            "defines", "calls", "calls", "reads",
        ]

    def test_the_guard_sees_the_cross_call_pipeline(self):
        bad = ast.parse(
            "from repro.session import SessionFuture\n"
            "class PoolFuture: ...\n"
            "class S:\n"
            "    def spmm_a_async(self, B) -> 'SessionFuture': ...\n"
            "    def k(self, pool, sess, B):\n"
            "        fut = pool.run_async(lambda comm: None)\n"
            "        return sess.spmm_a_async(B), _SettledFuture\n"
        )
        assert [h.rsplit(" (", 1)[0] for h in _pipeline_hits(bad)] == [
            "imports SessionFuture", "defines PoolFuture", "defines spmm_a_async",
            "calls run_async", "calls spmm_a_async", "names _SettledFuture",
        ]

    def test_families_state_their_layout_once(self):
        for module in SCHEDULE_FREE:
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
#: profiles / kernel backends or distributing operands is the session's
#: job, and so are its resident orientations, their rank locals, their
#: collects and the native-procedure lookup
APP_FORBIDDEN_NAMES = {
    "run_spmd", "RankProfile", "get_kernel_backend", "_Orientation", "locals_",
    "collect_dense_a", "collect_dense_b", "collect_sddmm", "fused_rank_method",
}
APP_FORBIDDEN_CALLS = {"distribute", "make_context", "bind"}


def _session_bypasses(tree: ast.AST) -> list:
    """``(lineno, what)`` for every forbidden import, name, call and
    private attribute read (``_``-prefixed, on anything but ``self``)."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hits += [
                (node.lineno, alias.name) for alias in node.names
                if alias.name.rsplit(".", 1)[-1] in APP_FORBIDDEN_NAMES
            ]
        elif isinstance(node, (ast.Name, ast.arg)):
            name = node.id if isinstance(node, ast.Name) else node.arg
            if name in APP_FORBIDDEN_NAMES:
                hits.append((node.lineno, name))
        elif isinstance(node, ast.Attribute):
            attr = node.attr
            if attr in APP_FORBIDDEN_NAMES:
                hits.append((node.lineno, f".{attr}"))
            elif (
                attr.startswith("_") and not attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                hits.append((node.lineno, f".{attr}"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in APP_FORBIDDEN_CALLS
        ):
            hits.append((node.lineno, f".{node.func.attr}("))
    return sorted(hits)


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
            "from repro.session import _Orientation\n"
            "blocks = [loc.A for loc in ori.locals_]\n"
            "out = alg.collect_dense_a(plan, blocks)\n"
            "out = alg.collect_dense_b(plan, blocks)\n"
            "R = alg.collect_sddmm(plan, blocks, S)\n"
            "method = sess.fused_rank_method(variant)\n"
            "sess.bind(A, B)\n"
            "alive = not sess._closed and self._sess._pool\n"
        )
        assert [what for _, what in _session_bypasses(bad)] == [
            "run_spmd", "RankProfile", ".distribute(", "locals_",
            ".make_context(", "_Orientation", ".locals_", ".collect_dense_a",
            ".collect_dense_b", ".collect_sddmm", ".fused_rank_method",
            ".bind(", "._closed", "._pool",
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


def _ring_run():
    """One ring_loop over an accumulating sparse chunk (ragged lengths per
    rank) plus a dense block lane; returns per-rank final operands and the
    profiles."""
    alg = DistributedAlgorithm(P, 1)
    profiles = [RankProfile() for _ in range(P)]

    def body(comm):
        nnz = 5 + 3 * comm.rank  # every chunk has its own length
        rows = np.arange(nnz) + 100 * comm.rank
        cols = np.arange(nnz)[::-1].copy()
        vals = np.zeros(nnz)
        block = np.full((3, 2), float(comm.rank))
        seen = []

        def compute(t, r, c, v, blk):
            seen.append((t, int(r[0]) // 100, float(blk[0, 0])))
            v += comm.rank + 1  # every visited rank leaves its mark

        lanes = [
            *alg.chunk_lanes(comm, rows, cols, vals),
            Lane(comm, block, TAG_SHIFT_B),
        ]
        out = alg.ring_loop(comm, STEPS, lanes, compute)
        return out, seen

    results, _ = run_spmd(P, body, profiles=profiles)
    return results, profiles


class TestRingLoop:
    def test_full_cycle_brings_operands_home_with_every_ranks_mark(self):
        results, _ = _ring_run()
        for rank, (out, seen) in enumerate(results):
            rows, _cols, vals, block = out
            assert rows[0] // 100 == rank and block[0, 0] == rank
            # the accumulating lane shifted *after* each kernel: all P
            # ranks' increments arrived
            assert np.array_equal(vals, np.full(len(rows), sum(range(1, P + 1))))
            # displacement -1: at phase t the chunk of rank+t is resident
            assert [s[1] for s in seen] == [(rank + t) % P for t in range(STEPS)]

    def test_one_message_per_lane_per_phase(self):
        """A cold chunk travels whole: its three words per nonzero in one
        message per phase, next to one for the block lane."""
        _, profiles = _ring_run()
        for prof in profiles:
            ctr = prof.counters[Phase.PROPAGATION]
            assert ctr.messages_received == ctr.messages_sent == 2 * STEPS
            # every chunk of the ring and every block visits each rank once
            chunks = sum(3 * (5 + 3 * r) for r in range(P))
            assert ctr.words_received == chunks + 6 * P


# ----------------------------------------------------------------------
# the packed need-list collectives
# ----------------------------------------------------------------------


def _packed_exchanges():
    """A packed gather and a packed reduction on the 1.5D sparse-shift
    fiber plans, own rows first."""
    p, c, m, n, r = 8, 4, 61, 53, 6
    alg = make_algorithm("1.5d-sparse-shift", p, c)
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
        with comm.profile.track(Phase.REPLICATION):
            panel[sp.own_packed] = local.A[sp.own_local]
            got = sparse_allgatherv_packed(
                ctx.fiber, sp.gather, sp.index, local.A, panel
            )
        assert got is panel
        contrib = panel * (comm.rank + 1)
        base = np.zeros_like(local.A)
        with comm.profile.track(Phase.REPLICATION):
            base[sp.own_local] = contrib[sp.own_packed]
            reduced = sparse_reduce_scatterv_packed(
                ctx.fiber, sp.reduce, sp.index, contrib, base
            )
        assert reduced is base
        return panel, base

    results, _ = run_spmd(p, body, profiles=profiles)
    return results, profiles, sparse_plans


class TestPackedCollectives:
    def test_every_row_covered_in_the_planned_counts(self):
        results, profiles, sparse_plans = _packed_exchanges()
        for (panel, _), prof, sp in zip(results, profiles, sparse_plans):
            assert not np.isnan(panel).any()  # every packed row was covered
            ctr = prof.counters[Phase.REPLICATION]
            legs = (sp.gather, sp.reduce)
            assert ctr.words_received == sum(leg.recv_words() for leg in legs)
            assert ctr.messages_received == sum(leg.recv_messages() for leg in legs)

    @pytest.mark.parametrize("name,p,c,elision", [
        ("1.5d-sparse-shift", 8, 4, "replication-reuse"),
        ("2.5d-sparse-replicate", 8, 2, "none"),
    ])
    def test_metrics_keep_hidden_comm_ms_at_zero(
        self, name, p, c, elision, small_problem
    ):
        """Nothing is hidden, but the per-call record keeps the key (the
        benchmark's session-layer probe reads it)."""
        S, A, B = small_problem
        with repro.plan(
            S, A.shape[1], p=p, c=c, algorithm=name, elision=elision,
            comm="sparse", overlap="on",
        ) as sess:
            sess.fusedmm_a(A, B)
            sess.fusedmm_b(A, B)
            sess.sddmm(A, B)
            assert sess.overlap_mode == "off"
            assert [rec["hidden_comm_ms"] for rec in sess.metrics()] == [0.0] * 3
