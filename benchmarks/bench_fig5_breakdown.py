"""Figure 5: weak-scaling (setup 1) time breakdown into replication,
propagation and computation.

Paper shape to reproduce: communication time grows ~sqrt(p) for the 1.5D
algorithms and ~cbrt(p) for the 2.5D algorithms while per-rank computation
stays flat, so communication progressively dominates; the 2.5D algorithms
spend relatively more of their communication in replication.  Times are
on the paper's schedule, every hop of every propagation ring shipped (see
``bench_fig4_weak_scaling.py``).
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.harness.reporting import format_table
from repro.harness.weak_scaling import weak_scaling_experiment
from repro.types import Elision

from conftest import write_result

VARIANTS = (
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE),
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE),
    ("2.5d-dense-replicate", Elision.REPLICATION_REUSE),
    ("2.5d-sparse-replicate", Elision.NONE),
)


def test_fig5_time_breakdown(scale):
    p_list = [4, 16] if scale == "small" else [4, 16, 64]
    base = 10 if scale == "small" else 11

    def run():
        return weak_scaling_experiment(
            1, p_list, r=32, base_log2=base, base_nnz_row=8,
            variants=VARIANTS, max_c=8,
        )

    results = run()

    rows = []
    per_variant = defaultdict(dict)
    for v in results:
        rows.append(
            [
                v.label, v.p, v.best_c,
                v.replication_seconds, v.propagation_seconds, v.computation_seconds,
            ]
        )
        per_variant[v.label][v.p] = v

    write_result(
        "fig5_breakdown.txt",
        "Figure 5 — weak scaling setup 1 time breakdown (modeled seconds, cori-knl)\n"
        + format_table(
            ["variant", "p", "c*", "replication", "propagation", "computation"], rows
        ),
    )

    # --- paper claims ---------------------------------------------------
    growth = p_list[-1] / p_list[0]
    for label, per_p in per_variant.items():
        lo, hi = per_p[p_list[0]], per_p[p_list[-1]]
        comm_lo = lo.replication_seconds + lo.propagation_seconds
        comm_hi = hi.replication_seconds + hi.propagation_seconds
        # communication grows with p (the dominant trend of Figure 5) ...
        assert comm_hi > comm_lo
        # ... bounded by the sqrt(p) (1.5D) / cbrt(p^2)-ish (2.5D) laws,
        # with slack for discrete replication factors
        law = math.sqrt(growth) if label.startswith("1.5d") else growth ** (2 / 3)
        assert comm_hi / comm_lo < 3.0 * law
        # computation per rank is flat under weak scaling
        np.testing.assert_allclose(
            hi.computation_seconds, lo.computation_seconds, rtol=0.35
        )
