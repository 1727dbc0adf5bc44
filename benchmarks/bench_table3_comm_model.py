"""Table III: measured communication equals the analytic model.

This regenerates the paper's cost table twice — once from the closed-form
formulas and once from *measured* per-rank traffic of real executions —
and checks they coincide word for word (dense terms exact; sparse-chunk
terms exact in expectation).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.harness.reporting import format_table
from repro.model.costs import fusedmm_cost
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, Phase

from conftest import write_result

CASES = [
    ("1.5d-dense-shift", Elision.NONE, 16, 4),
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE, 16, 4),
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION, 16, 4),
    ("1.5d-sparse-shift", Elision.NONE, 16, 4),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE, 16, 4),
    ("2.5d-dense-replicate", Elision.NONE, 16, 4),
    ("2.5d-dense-replicate", Elision.REPLICATION_REUSE, 16, 4),
    ("2.5d-sparse-replicate", Elision.NONE, 16, 4),
]


def test_table3_comm_model(scale):
    n = 16 * 64 if scale == "small" else 16 * 256
    r = 64
    S = erdos_renyi(n, n, 8, seed=3)
    phi = S.nnz / (n * r)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((n, r))

    def run():
        rows = []
        for name, el, p, c in CASES:
            with repro.plan(S, r, p=p, c=c, algorithm=name, elision=el) as sess:
                _, rep = sess.fusedmm_b(A, B)
            meas_w = np.mean(
                [
                    pr.counters[Phase.REPLICATION].words_received
                    + pr.counters[Phase.PROPAGATION].words_received
                    for pr in rep.per_rank
                ]
            )
            meas_m = np.mean(
                [
                    pr.counters[Phase.REPLICATION].messages_received
                    + pr.counters[Phase.PROPAGATION].messages_received
                    for pr in rep.per_rank
                ]
            )
            model = fusedmm_cost(f"{name}/{el.value}", n, r, p, c, phi)
            rows.append(
                [f"{name}/{el.value}", p, c,
                 int(meas_w), int(model.words), meas_m, model.messages]
            )
        return rows

    rows = run()

    write_result(
        "table3_comm_model.txt",
        f"Table III — measured vs analytic FusedMM communication "
        f"(n={n}, r=64, phi={phi:.4f})\n"
        + format_table(
            ["variant", "p", "c", "measured words", "model words",
             "measured msgs", "model msgs"],
            rows,
        ),
    )

    for row in rows:
        _, _, _, mw, ow, mm, om = row
        assert abs(mw - ow) <= max(2, 0.002 * ow), row
        assert mm == om, row
