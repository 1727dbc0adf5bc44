"""Shared configuration for the paper-figure scripts (``bench_fig*.py``,
``bench_table*.py``).

Each script regenerates one figure or table of the paper's evaluation at
laptop scale, asserts the paper's claim about its shape, and writes the
rows it prints to ``benchmarks/results/<name>.txt``.  Nothing in them is
timed — measured traffic and FLOP counts are costed with the Cori
alpha-beta-gamma parameters, the tables are closed forms — so the
committed files are reproducible at the default scale: the CI
``paper-figures`` lane runs the scripts and fails on
``git diff --exit-code -- benchmarks/results``.
Scale knobs:

* ``REPRO_BENCH_SCALE=small`` (default) — about a minute on a laptop; the
  scale the committed results were written at.
* ``REPRO_BENCH_SCALE=large`` — bigger matrices and processor counts for
  closer-to-paper curves (tens of minutes; rewrites the result files).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print("\n" + text)
