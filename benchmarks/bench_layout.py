"""The probe behind ``layout``: natural vs permuted distribution.

The paper load-balances its real-world matrices with a random row and
column permutation (§VI).  ``repro.model.resolve`` permutes an operand
when its busiest of ``p`` equal row or column blocks holds more than
``LAYOUT_IMBALANCE`` x the mean nonzeros *and* the permutation narrows the
union proxy (the most distinct columns any row block touches plus the
most distinct rows any column block touches — what need lists grow
with).  This script measures both layouts of every input on every
family x comm mode, whatever the rule says:

* **inputs**: ``rmat`` scales 10-14 (edge factor 8, the ``rmat_25d``
  generator), an Erdos-Renyi matrix, the five Table V profiles
  *un-permuted* (``realworld_standin(permute=False)``) and a banded matrix
  with hub rows (skewed, but the band is locality the natural blocks
  already exploit);
* per (input, family, comm, layout), one warm ``fusedmm_a``: rank-max and
  total (rank-summed) words, max / mean FLOPs over the ranks, peak
  panel-buffer bytes, and ``fusedmm_a`` ms (median of ``--ops`` warm
  calls).  Outputs are checked equal to rounding.

Sessions are forced into a layout the way ``tests/test_layout.py`` does:
``Session(S, dataclasses.replace(resolved, layout=...))``.

``--quick`` (the CI ``pool-stress`` lane): two small inputs, two cases;
asserts the equality checks only, never a timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import time

import numpy as np

import repro
from bench_placement import host_block
from repro.harness.reporting import format_table
from repro.model.resolve import LAYOUT_IMBALANCE
from repro.session import Session
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import REALWORLD_PROFILES, realworld_standin
from repro.sparse.stats import layout_statistics

#: (family, elision, comm) on p = 8, c = 2: every family, both comm modes
#: where the family has need lists
CASES = [
    ("1.5d-dense-shift", "replication-reuse", "dense"),
    ("1.5d-sparse-shift", "replication-reuse", "dense"),
    ("1.5d-sparse-shift", "replication-reuse", "sparse"),
    ("2.5d-dense-replicate", "replication-reuse", "dense"),
    ("2.5d-sparse-replicate", "none", "dense"),
    ("2.5d-sparse-replicate", "none", "sparse"),
]
P, C, R = 8, 2, 64


def banded_with_hubs(n, half_width, hubs, hub_degree, seed=0) -> CooMatrix:
    """A band of ``2 * half_width + 1`` diagonals plus ``hubs`` rows of
    ``hub_degree`` random columns each, all in the first eighth of the rows."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), 2 * half_width + 1)
    cols = (rows + np.tile(np.arange(-half_width, half_width + 1), n)) % n
    hub_rows = np.repeat(rng.choice(n // 8, hubs, replace=False), hub_degree)
    hub_cols = rng.integers(0, n, hubs * hub_degree)
    return CooMatrix(
        np.concatenate([rows, hub_rows]), np.concatenate([cols, hub_cols]),
        np.ones(len(rows) + len(hub_rows)), (n, n),
    )


def inputs(quick: bool):
    if quick:
        return [("rmat(9)", repro.rmat(9, 8, seed=7)),
                ("banded+hubs 2048", banded_with_hubs(2048, 2, 4, 128))]
    found = [(f"rmat({s})", repro.rmat(s, 8, seed=7)) for s in range(10, 15)]
    found.append(("ER 8192 x 8/row", repro.erdos_renyi(8192, 8192, 8, seed=7)))
    found += [
        (f"{name} (2^11, unpermuted)", realworld_standin(name, 11, 7, permute=False))
        for name in REALWORLD_PROFILES
    ]
    found.append(("banded+hubs 16384", banded_with_hubs(16384, 2, 16, 512)))
    return found


def measure(S, layout, A, B, ops, family, elision, comm):
    """One warm ``fusedmm_a``'s counts, then ``ops`` timed calls."""
    with repro.plan(S, R, p=P, c=C, algorithm=family, elision=elision, comm=comm) as sess:
        resolved = sess.explain()  # resolves only: no rank spawned
    forced = dataclasses.replace(resolved, layout=layout)
    with Session(S, forced) as sess:
        sess.fusedmm_a(A, B)
        sess.reset_profile()
        out, report = sess.fusedmm_a(A, B)
        flops = [prof.total().flops for prof in report.per_rank]
        counts = dict(
            words=report.comm_words,
            total=sess.metrics()[-1]["comm_words"],
            flop_skew=max(flops) / statistics.mean(flops),
            peak=report.peak_buffer_bytes,
        )
        samples = []
        for _ in range(ops):
            t0 = time.perf_counter()
            sess.fusedmm_a(A, B)
            samples.append((time.perf_counter() - t0) * 1e3)
    return out, dict(counts, ms=statistics.median(samples)), resolved.layout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke")
    parser.add_argument("--ops", type=int, default=8)
    args = parser.parse_args(argv)
    cases = CASES[-2:] if args.quick else CASES
    ops = 2 if args.quick else args.ops

    print(host_block())
    print(f"p={P} c={C} r={R}; LAYOUT_IMBALANCE = {LAYOUT_IMBALANCE}; "
          f"cells read natural -> permuted\n")
    rows = []
    for label, S in inputs(args.quick):
        stats = layout_statistics(S, P)
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((S.nrows, R)), rng.standard_normal((S.ncols, R))
        for family, elision, comm in cases:
            (nat_out, nat, says), (per_out, per, _) = (
                measure(S, layout, A, B, ops, family, elision, comm)
                for layout in ("natural", "permuted")
            )
            np.testing.assert_allclose(per_out, nat_out, rtol=1e-10, atol=1e-12)
            rows.append([
                label, S.nnz,
                round(max(stats["row_imbalance"], stats["col_imbalance"]), 2),
                f"{stats['union_natural']}->{stats['union_permuted']}", says,
                f"{family}/{comm}",
                f"{nat['words']}->{per['words']}", round(per["words"] / nat["words"], 3),
                f"{nat['total']}->{per['total']}",
                f"{nat['flop_skew']:.2f}->{per['flop_skew']:.2f}",
                f"{nat['peak']}->{per['peak']}",
                f"{nat['ms']:.1f}->{per['ms']:.1f}", round(per["ms"] / nat["ms"], 2),
            ])
    print(format_table(
        ["input", "nnz", "imbalance", "union proxy", "resolve()", "family/comm",
         "rank-max words", "x", "total words", "FLOP max/mean", "peak bytes",
         "fusedmm_a ms", "x"],
        rows,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
