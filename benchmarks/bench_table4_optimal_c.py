"""Table IV: optimal replication factors.

Regenerates the paper's Table IV from the closed forms and verifies each
against a brute-force minimization of the Table III cost over a fine grid
of replication factors (the closed form must be the continuous argmin).
"""

from __future__ import annotations

import numpy as np

from repro.harness.reporting import format_table
from repro.model.costs import fusedmm_cost
from repro.model.optimal import optimal_c_continuous

from conftest import write_result

ROWS = [
    ("1.5d-dense-shift/none", "sqrt(p)"),
    ("1.5d-dense-shift/replication-reuse", "sqrt(2p)"),
    ("1.5d-dense-shift/local-kernel-fusion", "sqrt(p/2)"),
    ("1.5d-sparse-shift/replication-reuse", "sqrt(6 p phi)"),
    ("2.5d-dense-replicate/none", "cbrt(p (1+3phi)^2 / 4)"),
    ("2.5d-dense-replicate/replication-reuse", "cbrt(p (1+3phi)^2)"),
    # the paper prints cbrt(p/(2phi/3)^2); the argmin of its Table III
    # expression is cbrt(p/(3phi/2)^2) — see repro/model/optimal.py
    ("2.5d-sparse-replicate/none", "cbrt(p / (3phi/2)^2)"),
]


def _brute_force_c(key, n, r, p, phi):
    """Continuous-ish argmin of the Table III words over c in [1, p]."""
    cs = np.linspace(1.0, p, 4096)
    best_c, best_w = 1.0, np.inf
    for c in cs:
        # evaluate the continuous cost expression by calling the model at
        # the two bracketing integers and interpolating is messy; instead
        # use the model formulas directly with fractional c via the same
        # arithmetic (they are smooth in c)
        try:
            w = _smooth_words(key, n, r, p, c, phi)
        except ValueError:
            continue
        if w < best_w:
            best_c, best_w = c, w
    return best_c


def _smooth_words(key, n, r, p, c, phi):
    import math

    nr = n * r
    ag = nr * (c - 1) / p
    if key == "1.5d-dense-shift/none":
        return 2 * ag + 2 * nr / c
    if key == "1.5d-dense-shift/replication-reuse":
        return ag + 2 * nr / c
    if key == "1.5d-dense-shift/local-kernel-fusion":
        return 2 * ag + nr / c
    if key == "1.5d-sparse-shift/replication-reuse":
        return ag + 6 * phi * nr / c
    if key == "2.5d-dense-replicate/none":
        return 2 * ag + (6 * phi + 2) * nr / math.sqrt(p * c)
    if key == "2.5d-dense-replicate/replication-reuse":
        return ag + (6 * phi + 2) * nr / math.sqrt(p * c)
    if key == "2.5d-sparse-replicate/none":
        return 3 * phi * nr * (c - 1) / p + 4 * nr / math.sqrt(p * c)
    raise ValueError(key)


def test_table4_optimal_replication_factors():
    n, r, p, phi = 1 << 20, 256, 256, 0.125

    def run():
        rows = []
        for key, formula in ROWS:
            closed = optimal_c_continuous(key, p, phi)
            brute = _brute_force_c(key, n, r, p, phi)
            rows.append([key, formula, f"{closed:.3f}", f"{brute:.3f}"])
        return rows

    rows = run()
    write_result(
        "table4_optimal_c.txt",
        f"Table IV — optimal replication factors (p={p}, phi={phi})\n"
        + format_table(["variant", "closed form", "value", "brute force"], rows),
    )

    for key, _, closed, brute in rows:
        closed, brute = float(closed), float(brute)
        assert abs(closed - brute) / brute < 0.02, (key, closed, brute)

    # the ordering claim that drives Figure 7
    order = {key: float(c) for key, _, c, _ in rows}
    assert (
        order["1.5d-dense-shift/replication-reuse"]
        > order["1.5d-dense-shift/none"]
        > order["1.5d-dense-shift/local-kernel-fusion"]
    )
