"""Figure 9: ALS and GAT application breakdowns on the amazon stand-in.

Paper shape to reproduce (256 nodes, r=128, amazon.mtx): both
applications are dominated by FusedMM work, with a visible
"communication outside FusedMM" component.  With the sessions'
persistent worker pool, the apps run those outside-the-kernel steps
**rank-side** again: the ALS batched-CG per-row dot products (an
all-reduce across the layer on the sparse-shifting family, one per CG
iteration) and the GAT edge-softmax ``(max, sum)`` all-reduce (one per
head) both execute on the warm ranks and are measured as OTHER-phase
communication in the reports — the paper's contrast this figure plots.
The GAT replication-reuse variant is one
rank-side procedure on the same cached session (its cross-round gather
sharing cannot be split into independent kernel calls) and pays the same
edge-softmax all-reduces outside FusedMM.  ALS holds one session on the
observations; each half-sweep is ``cg_iters + 1`` FusedMMs in one
rank-side dispatch: the first forms the CG's start residual, its SDDMM
subtracting the dots from the stored values so that no separate
right-hand-side SpMM runs, and the CG matvecs are pattern-only
(``use_values=False``), so they carry no ``S *`` multiply in the compute
column.  Communication is priced on the paper's schedule, every hop of
every propagation ring shipped; "prop as run" prices the propagation the
runs moved, read-only lanes skipping their hop home.
"""

from __future__ import annotations

import numpy as np

from repro.apps.als import DistributedALS
from repro.apps.gat import DistributedGAT
from repro.harness.reporting import format_table
from repro.runtime.cost import CORI_KNL
from repro.sparse.generate import realworld_standin
from repro.types import Elision, Phase

from conftest import write_result


def _phase_row(label, report):
    def comm(phase, table3=True):
        return report.modeled_comm_seconds(CORI_KNL, phase, table3=table3)

    repl = comm(Phase.REPLICATION)
    prop = comm(Phase.PROPAGATION)
    comp = report.phase_flops(Phase.COMPUTATION) * CORI_KNL.gamma
    out_comm = comm(Phase.OTHER)
    out_comp = report.phase_flops(Phase.OTHER) * CORI_KNL.gamma
    row = [label, repl, prop, comp, out_comm, out_comp, comm(Phase.PROPAGATION, False)]
    return row, (repl, prop, comp, out_comm, out_comp)


def test_fig9_applications(scale):
    mat_scale = 10 if scale == "small" else 12
    p, c = 16, 4
    r = 32
    amazon = realworld_standin("amazon-large", scale=mat_scale, seed=2)

    def run():
        out = {}
        als_variants = [
            ("ALS 1.5d-dense-shift LKF", "1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION),
            ("ALS 1.5d-dense-shift reuse", "1.5d-dense-shift", Elision.REPLICATION_REUSE),
            ("ALS 1.5d-sparse-shift reuse", "1.5d-sparse-shift", Elision.REPLICATION_REUSE),
        ]
        for label, algname, el in als_variants:
            als = DistributedALS(p=p, c=c, algorithm=algname, elision=el, cg_iters=10)
            res = als.run(amazon.with_values(amazon.vals), r, outer_iters=1,
                          seed=0, track_loss=False)
            out[label] = res.report
        X = np.random.default_rng(0).standard_normal((amazon.nrows, r))
        for label, el in (
            ("GAT none", Elision.NONE),
            ("GAT replication-reuse", Elision.REPLICATION_REUSE),
        ):
            gat = DistributedGAT(p=p, c=c, n_heads=4, r_in=r, r_head=r // 4, elision=el)
            out[label] = gat.forward(amazon, X).report
        return out

    reports = run()

    rows, parsed = [], {}
    for label, rep in reports.items():
        row, split = _phase_row(label, rep)
        rows.append(row)
        parsed[label] = split
    write_result(
        "fig9_applications.txt",
        "Figure 9 — ALS (20 CG iterations) and GAT forward pass on the "
        f"amazon-large stand-in (p={p}, c={c}, modeled seconds, cori-knl)\n"
        + format_table(
            ["application/variant", "fused repl", "fused prop",
             "fused comp", "outside comm", "outside comp", "prop as run"],
            rows,
        ),
    )

    # --- claims ------------------------------------------------------------
    # every variant communicates inside FusedMM
    for label, (repl, prop, *_rest) in parsed.items():
        assert repl + prop > 0.0, f"{label}: no kernel communication measured"
    # ALS outside FusedMM: the sparse-shifting family splits r across the
    # layer, so the batched-CG dot products are a layer all-reduce; the
    # dense-shifting variants hold whole rows and reduce nothing
    assert parsed["ALS 1.5d-sparse-shift reuse"][3] > 0.0
    assert parsed["ALS 1.5d-dense-shift LKF"][3] == 0.0
    assert parsed["ALS 1.5d-dense-shift reuse"][3] == 0.0
    # both GAT variants pay the same edge-softmax all-reduce per head
    # outside FusedMM (paper Section VI-E)
    assert parsed["GAT none"][3] == parsed["GAT replication-reuse"][3] > 0.0
    # reuse lowers GAT replication traffic vs the unoptimized sequence
    assert parsed["GAT replication-reuse"][0] < parsed["GAT none"][0]
