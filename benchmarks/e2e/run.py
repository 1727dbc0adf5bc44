#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py [--seed 7] [--traced] [--quick] [--repeat 2]

runs every workload in its own subprocess (fresh plan cache, own peak RSS,
one BLAS thread), prints every metric by name with its unit, checks every
output and writes ``benchmarks/e2e/results/{latest.json,trace-<workload>.json}``.

    python3 benchmarks/e2e/run.py --workload er_comm --seed 7 --seconds 20 --trace 0

is one pass over one workload in this process (what the subprocesses run,
and the form ``BENCHMARK.json`` names): the last line of its output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

See README.md beside this file for the metric glossary.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# before numpy loads: the ranks are threads, BLAS must not add its own
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")
for _path in (str(HERE), str(HERE.parent.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2ebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(doc=__doc__))
