"""Command line of the benchmark (``../run.py`` is its entry point).

All workloads, each pass in its own subprocess, or one pass over one
workload in this process — see ``run.py``'s docstring for the two forms.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from e2ebench import agree, spec

HERE = Path(__file__).resolve().parent.parent  # benchmarks/e2e
REPO = HERE.parent.parent
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_record(record: Dict[str, Any]) -> None:
    kind = "per_layer" if record["traced"] else "end_to_end"
    samples = record["samples"]
    print(f"== {record['workload']} seed={record['seed']} {kind} "
          f"ops={samples['ops']} cold_builds={samples['cold_builds']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"wall={record['wall_s']:.1f}s")
    for name, value in record[kind].items():
        unit = spec.BY_NAME[name].unit
        note = ""
        if value is None:
            note = f"  ({record['reasons'].get(name, '')})"
        elif name in ("op_ms_p50", "session.op_tail_ms"):
            note = f"  (n={samples['tail_n']}, tail=p{samples['tail_pct']:g})"
        print(f"  {name:46s} {_fmt(value):>14s} {unit}{note}")
    for err in record["errors"]:
        print(f"  ! {err}")


def contract_line(record: Dict[str, Any]) -> str:
    """The result object of the BENCHMARK.json contract (last stdout line)."""
    if record["traced"]:
        metrics, values = spec.contract_per_layer(), record["per_layer"]
    else:
        metrics, values = spec.contract_end_to_end(), record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics},
    })


def provenance(seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    import importlib.util
    import platform

    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout (or no git)
    cpu = None
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "mpi4py": importlib.util.find_spec("mpi4py") is not None,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "backend": "threads", "kernels": "numpy",
        "seed": seed, "seconds": seconds, "quick": quick,
    }


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, quick: bool, out: Path
) -> Dict[str, Any]:
    """One pass over one workload: in this process when ``quick`` (the smoke
    test's 5 s budget has no room for ten interpreters), else in its own."""
    if quick:
        from e2ebench.runner import run_workload

        return run_workload(name, seed, seconds, traced, quick=True, out_dir=out)
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced)), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL,  # the parent prints the record
    )
    return json.loads((out / f"{name}.trace{int(traced)}.json").read_text())


def run_all(
    seed: int, seconds: float, traced: bool, quick: bool, out: Path
) -> Dict[str, Any]:
    t0 = time.perf_counter()
    result: Dict[str, Any] = {
        "provenance": provenance(seed, seconds, quick),
        "workloads": {},
    }
    for name in spec.WORKLOAD_NAMES:
        entry = result["workloads"][name] = {}
        for is_traced in (False, True) if traced else (False,):
            record = run_pass(name, seed, seconds, is_traced, quick, out)
            print_record(record)
            entry["traced" if is_traced else "untraced"] = record
    result["provenance"]["op_counts"] = {
        name: entry["untraced"]["samples"]
        for name, entry in result["workloads"].items()
    }
    result["provenance"]["total_wall_s"] = time.perf_counter() - t0
    return result


def main(argv: Optional[List[str]] = None, doc: Optional[str] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="run.py", description=doc or __doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                    help="how long one pass over one workload measures")
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                    help="one pass over this workload, in this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = traced pass (per-layer metrics)")
    ap.add_argument("--traced", action="store_true",
                    help="all workloads: add the traced pass (layer probes)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, 2 ops, 1 cold build, in-process (smoke test)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the whole set N times and check the runs agree")
    ap.add_argument("--out", type=Path, default=HERE / "results")
    args = ap.parse_args(argv)

    if args.workload:
        from e2ebench.runner import run_workload

        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick, args.out)
        print_record(record)
        print(contract_line(record))
        return 0

    runs = []
    for k in range(args.repeat):
        result = run_all(args.seed, args.seconds, args.traced, args.quick, args.out)
        runs.append(result)
        path = args.out / ("latest.json" if k == args.repeat - 1
                           else f"repeat-{k + 1}.json")
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {path}")
    failed = sum(entry["untraced"]["failed"]
                 for entry in runs[-1]["workloads"].values())
    violations = [v for earlier in runs[:-1]
                  for v in agree.compare(earlier, runs[-1], symmetric=True)]
    for v in violations:
        print(f"DISAGREE {v}")
    return 1 if failed or violations else 0

