"""Table III: measured communication equals the analytic model, as run.

This regenerates the paper's cost table from the closed-form formulas,
prints beside it the *as-run* cost — Table III less the hops home of the
lanes a round only reads (``home_hops``: such a lane's last shift would
carry back what its owner still holds, so it is not sent) — and the
*measured* per-rank traffic of real cold executions, and checks that the
measured and as-run columns coincide word for word (dense terms exact;
sparse-chunk terms exact in expectation).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.harness.reporting import format_table
from repro.model.costs import fusedmm_cost, home_hops
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
            key = f"{name}/{el.value}"
            model = fusedmm_cost(key, n, r, p, c, phi)
            saved = home_hops(key, "b", n, r, p, c, phi)
            rows.append(
                [key, p, c,
                 int(model.words), int(model.words - saved.words), int(meas_w),
                 model.messages, model.messages - saved.messages, meas_m]
            )
        return rows

    rows = run()

    write_result(
        "table3_comm_model.txt",
        f"Table III — measured vs analytic cold FusedMMB communication "
        f"(n={n}, r=64, phi={phi:.4f}); as run = Table III − home_hops\n"
        + format_table(
            ["variant", "p", "c", "Table III words", "as-run words",
             "measured words", "Table III msgs", "as-run msgs", "measured msgs"],
            rows,
        ),
    )

    for row in rows:
        _, _, _, _, ow, mw, _, om, mm = row
        assert abs(mw - ow) <= max(2, 0.002 * ow), row
        assert mm == om, row
