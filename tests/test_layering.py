"""The package imports downward only (ARCHITECTURE.md, "Layer map").

Read from the source with ``ast``, like the guards in
``test_schedule.py``: every ``repro.*`` import inside ``src/repro`` must
point at the importing module's own layer or a lower one, and an import
may hide inside a function only where it gates an optional dependency
(or in ``cli.py``, whose subcommands import what they run).  A cycle
"broken" by a function-level import is still a cycle — this is the test
that keeps one from coming back.  The same reading keeps data movement in
the layers that own it: no module under ``apps/`` or ``baselines/`` runs
a propagation round or calls a point-to-point or gather / scatter
primitive of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: top-level modules / subpackages of ``repro``, lowest layer first; names
#: in one tuple share a layer.  ``__init__`` is the package root, which
#: re-exports the public surface and is importable only from ``cli``.
LAYERS = (
    ("errors", "types"),
    ("sparse",),
    ("runtime",),
    ("kernels",),
    ("comm_sparse",),
    ("algorithms",),
    ("model",),
    ("baselines",),
    ("session",),
    ("serve",),
    ("apps",),
    ("harness",),
    ("api",),
    ("__init__",),
    ("cli",),
)
RANK = {name: i for i, names in enumerate(LAYERS) for name in names}

#: the only imports allowed inside a function outside ``cli.py``: each
#: keeps a module importable without its optional dependency
OPTIONAL_DEPENDENCY_GATES = {
    ("runtime/spmd.py", "repro.runtime.backend_mpi"),  # mpi4py
    ("kernels/registry.py", "repro.kernels.backend_numba"),  # numba
}


def _unit(module: str) -> str:
    """Top-level unit of a dotted ``repro...`` module name."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def repro_imports(src: Path):
    """Every ``repro`` import under ``src`` as ``(file, lineno, importing
    unit, imported module, inside a function?)``."""
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        unit = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        tree = ast.parse(path.read_text())
        nested = {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{rel}:{node.lineno} relative import"
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [
                (rel.as_posix(), node.lineno, unit, module, id(node) in nested)
                for module in modules
                if module.split(".")[0] == "repro"
            ]
    return found


def upward_edges(imports):
    return [
        f"{file}:{lineno} {unit} -> {module}"
        for file, lineno, unit, module, _ in imports
        if RANK[_unit(module)] > RANK[unit]
    ]


def function_level(imports):
    return {
        (file, module)
        for file, _, _, module, nested in imports
        if nested and file != "cli.py"
    }


def imported_names(path: Path):
    """``{module: {names}}`` over a file's ``repro`` imports (a plain
    ``import repro.x`` lists the module with no names)."""
    names = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.name, set())
    return {mod: got for mod, got in names.items() if mod.split(".")[0] == "repro"}


class TestOneResolver:
    """Plan-time decisions live in ``model/resolve.py`` and nowhere else:
    the resolver reaches nothing that can spawn a rank, and the session
    cannot re-derive a knob because it imports none of the model."""

    RESOLVER_MAY_IMPORT = {
        "repro.errors",
        "repro.types",
        "repro.runtime.backend",
        "repro.runtime.cost",
        "repro.kernels.registry",
        "repro.algorithms.registry",
    }
    SESSION_MUST_NOT_IMPORT = {
        "repro.model.optimal",
        "repro.model.costs",
        "repro.model.calibrate",
        "repro.kernels.registry",
    }

    def test_resolver_imports_only_registries_and_the_model(self):
        modules = set(imported_names(SRC / "model" / "resolve.py"))
        outside = {m for m in modules if not m.startswith("repro.model.")}
        assert outside <= self.RESOLVER_MAY_IMPORT, outside - self.RESOLVER_MAY_IMPORT

    def test_session_builds_from_the_resolved_plan(self):
        names = imported_names(SRC / "session.py")
        assert not self.SESSION_MUST_NOT_IMPORT & set(names)
        assert names["repro.algorithms.registry"] == {"make_algorithm"}
        assert names["repro.model.resolve"] == {"ResolvedPlan", "resolve"}


class TestImportsPointDownward:
    def test_every_unit_has_a_layer(self):
        units = {
            p.stem if p.is_file() else p.name
            for p in SRC.iterdir()
            if p.suffix == ".py" or (p / "__init__.py").is_file()
        }
        assert units == set(RANK)

    def test_no_import_points_up(self):
        assert upward_edges(repro_imports(SRC)) == []

    def test_function_level_imports_are_the_optional_dependency_gates(self):
        assert function_level(repro_imports(SRC)) == OPTIONAL_DEPENDENCY_GATES

    def test_the_guard_sees_a_hidden_cycle(self, tmp_path):
        (tmp_path / "kernels").mkdir()
        (tmp_path / "kernels" / "registry.py").write_text(
            "from repro.errors import ReproError\n"
            "def resolve():\n"
            "    from repro.model.calibrate import choose_kernel_backend\n"
        )
        (tmp_path / "session.py").write_text("import repro.kernels.registry\n")
        imports = repro_imports(tmp_path)
        assert upward_edges(imports) == [
            "kernels/registry.py:3 kernels -> repro.model.calibrate"
        ]
        assert function_level(imports) == {
            ("kernels/registry.py", "repro.model.calibrate")
        }


#: what moves data: the propagation round and its lanes, the point-to-point
#: calls and every collective the families build their rounds from
DATA_MOVING_CALLS = {
    "ring_loop", "Lane", "send", "send_owned", "recv", "sendrecv", "shift",
    "allgather", "concat_allgather", "reduce_scatter", "reduce_scatter_rows",
}
#: the names a module would import to state a round of its own
ROUND_NAMES = {"Lane", "concat_allgather", "reduce_scatter_rows"}


def data_movement(tree: ast.AST) -> list:
    """``(lineno, what)`` for every call in :data:`DATA_MOVING_CALLS` and
    every import of a :data:`ROUND_NAMES` name or a shift / fiber tag."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called = getattr(f, "attr", None) or getattr(f, "id", "")
            if called in DATA_MOVING_CALLS:
                hits.append((node.lineno, f"calls {called}"))
        elif isinstance(node, ast.ImportFrom):
            hits += [
                (node.lineno, f"imports {alias.name}") for alias in node.names
                if alias.name in ROUND_NAMES
                or alias.name.startswith(("TAG_SHIFT", "TAG_FIBER"))
            ]
    return sorted(hits)


class TestOnlyTheFamiliesMoveData:
    """Apps and baselines compose; only ``algorithms/`` and ``runtime/``
    move data (ARCHITECTURE.md, "Layer map").  An application reaches its
    ranks' data through a family's ``replicate`` / ``rank_kernel`` rounds
    and adds reductions of its own (``allreduce``) or a personalized
    exchange (``alltoallv``) — never a hand-written round or collective."""

    @pytest.mark.parametrize(
        "path",
        sorted((SRC / "apps").glob("*.py")) + sorted((SRC / "baselines").glob("*.py")),
        ids=lambda p: str(p.relative_to(SRC)),
    )
    def test_module_moves_no_data_itself(self, path):
        hits = data_movement(ast.parse(path.read_text()))
        assert not hits, f"{path.relative_to(SRC)} moves data: {hits}"

    def test_the_guard_sees_a_hand_written_round(self):
        bad = ast.parse(
            "from repro.algorithms.base import TAG_SHIFT_B, Lane, concat_allgather\n"
            "def body(ctx, plan, local):\n"
            "    T = concat_allgather(ctx.fiber, local.A)\n"
            "    alg.ring_loop(ctx.comm, 4, [Lane(ctx.layer, B, TAG_SHIFT_B)], f)\n"
            "    ctx.comm.send(1, T, tag=30)\n"
            "    x = ctx.comm.recv(1, tag=30)\n"
            "    y = ctx.layer.allreduce(x, tag=30)\n"
            "    z = ctx.comm.alltoallv([x, y], tag=30)\n"
        )
        assert [what for _, what in data_movement(bad)] == [
            "imports Lane", "imports TAG_SHIFT_B", "imports concat_allgather",
            "calls concat_allgather", "calls Lane", "calls ring_loop",
            "calls send", "calls recv",
        ]
