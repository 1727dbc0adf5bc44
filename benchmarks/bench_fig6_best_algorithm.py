"""Figure 6: predicted vs observed fastest algorithm over (r, nnz/row).

Paper shape to reproduce (p=32, m=2^22, 740 trials): the plane splits
along the line ``3 nnz(S)/(n r) = 1`` — the 1.5D sparse-shifting algorithm
with replication reuse wins below it (low phi), the 1.5D dense-shifting
algorithm with local kernel fusion above it (high phi), and a 1.5D
algorithm is always the overall winner; the predicted and observed maps
agree except near the boundary.

"observed" prices the runs on the paper's schedule, every hop of every
propagation ring shipped, as Table III does; the "as run" column picks
the winner on the traffic the runs moved, read-only lanes skipping their
hop home.  It departs from the paper's map where the 2.5D
sparse-replicating algorithm, whose Cannon rings are only ``q = 2`` long
here, saves the most.
"""

from __future__ import annotations

from repro.harness.reporting import format_table
from repro.harness.sweeps import best_algorithm_map
from repro.runtime.cost import MachineParams

from conftest import write_result

#: bandwidth-dominated machine, as in the paper's words-based analysis
BETA_MACHINE = MachineParams(alpha=2e-7, beta=1e-9, gamma=5e-11, name="beta-heavy")


def test_fig6_best_algorithm_map(scale):
    p = 16
    m = 1 << 12 if scale == "small" else 1 << 14
    r_values = [16, 64, 192]
    nnz_values = [2, 8, 24, 64]

    def run():
        return best_algorithm_map(
            p, m, r_values, nnz_values, machine=BETA_MACHINE, max_c=8
        )

    cells = run()

    rows = [
        [c.r, c.nnz_per_row, f"{c.phi:.3f}", c.predicted, c.observed,
         "ok" if c.predicted == c.observed else "MISMATCH", c.as_run]
        for c in cells
    ]
    agreement = sum(c.predicted == c.observed for c in cells) / len(cells)
    write_result(
        "fig6_best_algorithm.txt",
        f"Figure 6 — best algorithm over (r, nnz/row), p={p}, m={m} "
        f"(agreement {agreement:.0%})\n"
        + format_table(
            ["r", "nnz/row", "phi", "predicted", "observed", "", "as run"], rows
        ),
    )

    # --- paper claims ---------------------------------------------------
    # the winner is always a 1.5D algorithm
    for c in cells:
        assert c.observed.startswith("1.5d"), c.observed
        assert c.predicted.startswith("1.5d"), c.predicted
    # low phi -> sparse shift; high phi -> dense shift (both maps)
    for c in cells:
        if c.phi < 0.15:
            assert "sparse-shift" in c.predicted
            assert "sparse-shift" in c.observed
        if c.phi > 1.0:
            assert "dense-shift" in c.predicted
            assert "dense-shift" in c.observed
    # maps agree away from the boundary; allow boundary-cell flips
    assert agreement >= 0.7
