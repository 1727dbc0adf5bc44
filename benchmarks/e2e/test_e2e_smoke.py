"""Tier-1 smoke test of the end-to-end benchmark: ``run.py --quick --traced``
in-process (n <= 512, 2 ops, 1 cold build, probes on) and a schema check.

Quick numbers mean nothing; this proves that every workload still runs and
checks its outputs, that every metric of ``e2ebench/spec.py`` is reported
(or ``null`` with a reason), and that the agreement tool flags what it must.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for path in (str(HERE), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2ebench import agree, cli, probes, spec  # noqa: E402
from e2ebench.spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
PROVENANCE = {
    "commit", "nproc", "cpu_model", "python", "numpy", "scipy", "numba", "mpi4py",
    "blas_threads", "seed", "seconds", "op_counts", "total_wall_s",
}


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    code = cli.main(["--quick", "--traced", "--seed", "7", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    return code, elapsed, out, json.loads((out / "latest.json").read_text())


def test_quick_run_reports_every_metric(quick_run):
    code, elapsed, out, result = quick_run
    assert code == 0
    # ~3 s on the 2-core reference host; the slack is for loaded CI runners
    assert elapsed < 30.0
    assert PROVENANCE <= set(result["provenance"])
    assert set(result["workloads"]) == set(spec.WORKLOAD_NAMES)
    for name, entry in result["workloads"].items():
        untraced, traced = entry["untraced"], entry["traced"]
        for record in (untraced, traced):
            # checks executed, nothing failed, spans closed and nested
            assert record["attempted"] >= 3 and record["failed"] == 0, record["errors"]
            assert record["correct"] and record["spans_well_nested"]
        for m in spec.END_TO_END:
            assert isinstance(untraced["end_to_end"][m.name], (int, float)), m.name
        assert untraced["end_to_end"]["failed_frac"] == 0
        for m in spec.PER_LAYER:
            value = traced["per_layer"][m.name]
            if value is None:
                assert traced["reasons"][m.name], f"{m.name} x {name}: null, no reason"
                assert m.on != spec.ALL, (
                    f"{m.name} x {name}: {traced['reasons'][m.name]}")
            else:
                assert isinstance(value, (int, float))
        trace = json.loads((out / f"trace-{name}.json").read_text())
        assert trace["traceEvents"], name
        assert {"name", "ph", "ts", "dur", "args"} <= set(trace["traceEvents"][0])


def test_contract_matches_benchmark_json(quick_run):
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert NAME.fullmatch(m.name), m.name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit), m.unit
    contract = spec.benchmark_json()
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    committed = REPO / "BENCHMARK.json"
    if committed.exists():
        assert json.loads(committed.read_text()) == contract
    # what the driver reads: the last line of a single-workload pass
    record = quick_run[3]["workloads"]["er_compute"]
    for key, metrics in (("untraced", contract["end_to_end"]),
                         ("traced", contract["per_layer"])):
        line = json.loads(cli.contract_line(record[key]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in metrics]
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())


def test_agreement_tool_names_metric_and_workload(quick_run):
    result = quick_run[3]
    assert agree.compare(result, result, symmetric=True) == []
    worse = copy.deepcopy(result)
    e2e = worse["workloads"]["rmat_25d"]["untraced"]["end_to_end"]
    e2e["op_ms_p50"] *= 1.5
    e2e["comm_words_per_op"] += 1
    violations = agree.compare(result, worse)
    assert len(violations) == 2
    assert any("op_ms_p50 x rmat_25d" in v for v in violations)
    assert any("comm_words_per_op x rmat_25d" in v and "exact" in v
               for v in violations)
    # direction-aware: the faster file is not worse than the slower one
    assert all("op_ms_p50" not in v for v in agree.compare(worse, result))


def test_probe_failure_degrades_one_layer_only():
    rec = Recorder("t", enabled=True)
    values, reasons = {}, {}

    def renamed():
        raise AttributeError("module 'repro.kernels' has no attribute 'sddmm_coo'")

    probes.guarded("kernels", ("kernels.sddmm_coo_ms",), renamed, rec, values, reasons)
    probes.guarded("ok", ("model.resolve_ms",), lambda: {"model.resolve_ms": 1.0},
                   rec, values, reasons)
    assert values == {"kernels.sddmm_coo_ms": None, "model.resolve_ms": 1.0}
    assert "AttributeError" in reasons["kernels.sddmm_coo_ms"]
    assert rec.well_nested()
