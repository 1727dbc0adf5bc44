"""Figure 7: predicted vs observed optimal replication factor (weak
scaling setup 1, 1.5D dense-shifting variants).

Paper shape to reproduce: the optimal c for replication reuse is at least
that of the unoptimized sequence, which in turn is at least that of local
kernel fusion (the elision strategies change the optimal replication
factor — the central mechanism of Section IV-B), and all three grow like
sqrt(p).
"""

from __future__ import annotations

from collections import defaultdict

from repro.harness.reporting import format_table
from repro.harness.sweeps import replication_factor_sweep

from conftest import write_result


def test_fig7_optimal_replication_factor(scale):
    p_list = [4, 16] if scale == "small" else [4, 16, 64]
    base = 9 if scale == "small" else 10

    def run():
        return replication_factor_sweep(p_list, r=32, base_log2=base, base_nnz_row=8)

    rows = run()

    table = [[r.variant, r.p, f"{r.predicted_c:.2f}", r.observed_c] for r in rows]
    write_result(
        "fig7_replication_factor.txt",
        "Figure 7 — predicted vs observed optimal replication factor\n"
        + format_table(["variant", "p", "predicted c", "observed c"], table),
    )

    by_p = defaultdict(dict)
    for r in rows:
        by_p[r.p][r.variant.rsplit("/", 1)[1]] = r

    for p, d in by_p.items():
        # ordering claim: c_reuse >= c_none >= c_lkf (predicted is strict)
        assert (
            d["replication-reuse"].predicted_c
            > d["none"].predicted_c
            > d["local-kernel-fusion"].predicted_c
        )
        assert (
            d["replication-reuse"].observed_c
            >= d["local-kernel-fusion"].observed_c
        )
        # observed within one power of two of predicted (discrete feasible set)
        for r in d.values():
            assert 0.5 <= r.observed_c / r.predicted_c <= 2.5

    # optimal c grows with p
    for variant in ("replication-reuse", "none", "local-kernel-fusion"):
        cs = [by_p[p][variant].observed_c for p in p_list]
        assert cs[-1] >= cs[0]
