"""The probe that sized ``PACK_GRAIN_FLOPS``: packed vs spread rank threads.

A thread-backend session's ranks share one GIL.  When a local kernel call
is ~100 us of work, every GIL-releasing numpy call hands the GIL to a
thread on the *other* core and the second core buys context switches, not
parallelism; when a call is milliseconds of work the kernels genuinely
overlap.  ``repro.model.resolve`` decides ``placement`` from the grain —
FLOPs of one local kernel call of a propagation phase,
``2 * nnz * r / (p * phases)`` — against one constant, and this script is
where that constant was measured:

* **grid**: family x (n, nnz/row, r) x p — one resident session per
  placement, ``fusedmm_a`` timed over ``--ops`` calls (best of
  ``--repeats`` medians), ``packed / spread`` against the grain.  Outputs
  are checked bitwise equal.
* **ALS**: ``getrusage`` per sweep of the ``als_sweep`` shape in both
  placements — voluntary context switches (``ru_nvcsw``), system and user
  seconds — the mechanism behind the ratio.

Sessions are forced into a placement the way ``tests/test_placement.py``
does it: ``Session(S, dataclasses.replace(resolved, placement=...))``.
On a host with one allowed core nothing can be pinned and every ratio
reads ~1.  Numpy kernels only where numba is absent: compiled kernels are
faster per call, so their crossover sits at a higher grain.

``--quick`` (the CI ``pool-stress`` lane): three grid points, one small
ALS sweep; asserts the bitwise checks only, never a timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import platform
import resource
import statistics
import time

import numpy as np

import repro
from repro.apps import als as als_module
from repro.apps.als import DistributedALS
from repro.harness.reporting import format_table
from repro.kernels.registry import available_kernel_backends
from repro.model.resolve import PACK_GRAIN_FLOPS
from repro.session import Session

#: (family, p, c, elision): all four families at p = 8, both 1.5D families
#: at p = 2, 4, 16
CONFIGS = [
    ("1.5d-dense-shift", 8, 2, "replication-reuse"),
    ("1.5d-sparse-shift", 8, 2, "replication-reuse"),
    ("2.5d-dense-replicate", 8, 2, "replication-reuse"),
    ("2.5d-sparse-replicate", 8, 2, "none"),
    ("1.5d-dense-shift", 2, 1, "replication-reuse"),
    ("1.5d-sparse-shift", 2, 1, "replication-reuse"),
    ("1.5d-dense-shift", 4, 2, "replication-reuse"),
    ("1.5d-sparse-shift", 4, 2, "replication-reuse"),
    ("1.5d-dense-shift", 16, 4, "replication-reuse"),
    ("1.5d-sparse-shift", 16, 4, "replication-reuse"),
]
#: (n, nnz/row, r): 2 * nnz * r doubles from 0.5 M to 33.5 M FLOPs
SHAPES = [
    (2048, 8, 16),
    (2048, 8, 32),
    (4096, 8, 32),
    (4096, 16, 32),
    (4096, 16, 64),
    (8192, 16, 64),
    (8192, 16, 128),
]
QUICK_CONFIGS = [("1.5d-sparse-shift", 4, 2, "replication-reuse")]
QUICK_SHAPES = [(1024, 8, 16), (2048, 8, 32), (2048, 16, 64)]


def placed(S, r, placement, **knobs) -> Session:
    """The session ``auto`` would build if the threshold put it on
    ``placement``'s side."""
    with repro.plan(S, r, **knobs) as planned:  # resolves only: no rank spawned
        resolved = planned.explain()
    return Session(S, dataclasses.replace(resolved, placement=placement))


def host_block() -> str:
    cores = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    )
    return (
        f"host: {platform.machine()} {platform.system()} {platform.release()}, "
        f"cpu_count={os.cpu_count()}, allowed cores={cores}, "
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"kernel backends {list(available_kernel_backends())}, "
        f"sched_setaffinity={'yes' if hasattr(os, 'sched_setaffinity') else 'no'}"
    )


def time_fusedmm(sess: Session, A, B, ops: int, repeats: int):
    """Best-of-``repeats`` median ms of ``ops`` warm ``fusedmm_a`` calls,
    and the output."""
    out, _ = sess.fusedmm_a(A, B)  # builds the distribution, spawns the pool
    sess.fusedmm_a(A, B)
    medians = []
    for _ in range(repeats):
        samples = []
        for _ in range(ops):
            t0 = time.perf_counter()
            sess.fusedmm_a(A, B)
            samples.append((time.perf_counter() - t0) * 1e3)
        medians.append(statistics.median(samples))
    return min(medians), out


def grid(configs, shapes, ops: int, repeats: int):
    rows = []
    for (name, p, c, elision), (n, per_row, r) in itertools.product(configs, shapes):
        S = repro.erdos_renyi(n, n, per_row, seed=7)
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((n, r)), rng.standard_normal((n, r))
        knobs = dict(p=p, c=c, algorithm=name, elision=elision)
        ms, outs = {}, {}
        for placement in ("spread", "packed"):
            with placed(S, r, placement, **knobs) as sess:
                ms[placement], outs[placement] = time_fusedmm(sess, A, B, ops, repeats)
                grain = sess.explain().why["placement"]["grain_flops"]
        assert np.array_equal(outs["spread"], outs["packed"]), (name, p, n, r)
        rows.append(
            [name, p, c, n, per_row, r, int(grain), ms["spread"], ms["packed"],
             ms["packed"] / ms["spread"],
             "packed" if grain < PACK_GRAIN_FLOPS else "spread"]
        )
    rows.sort(key=lambda row: row[6])
    return rows


def als_rusage(n: int, per_row: int, r: int, cg_iters: int, sweeps: int):
    """Per-sweep wall seconds and ``getrusage`` deltas of one ALS run per
    placement (factors checked bitwise equal)."""
    rng = np.random.default_rng(7)
    rank = max(r // 2, 1)
    P = rng.standard_normal((n, rank)) / np.sqrt(rank)
    Q = rng.standard_normal((n, rank)) / np.sqrt(rank)
    pattern = repro.erdos_renyi(n, n, per_row, seed=7, values="ones")
    C_obs = pattern.with_values(
        np.einsum("ij,ij->i", P[pattern.rows], Q[pattern.cols])
    )
    rows, factors = [], {}
    real_plan = als_module.plan
    try:
        for placement in ("spread", "packed"):
            als_module.plan = lambda S, r_, **knobs: placed(S, r_, placement, **knobs)
            als = DistributedALS(
                p=8, c=2, algorithm="1.5d-sparse-shift", lam=0.05, cg_iters=cg_iters
            )
            als.run(C_obs, r, outer_iters=1, seed=1)  # warm the allocator
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            res = als.run(C_obs, r, outer_iters=sweeps, seed=1)
            wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            factors[placement] = (res.A, res.B)
            rows.append(
                [placement, wall / sweeps,
                 (after.ru_nvcsw - before.ru_nvcsw) // sweeps,
                 (after.ru_nivcsw - before.ru_nivcsw) // sweeps,
                 (after.ru_stime - before.ru_stime) / sweeps,
                 (after.ru_utime - before.ru_utime) / sweeps]
            )
    finally:
        als_module.plan = real_plan
    for x, y in zip(factors["spread"], factors["packed"]):
        assert np.array_equal(x, y)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: 3 points")
    parser.add_argument("--ops", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)

    print(host_block())
    print(f"PACK_GRAIN_FLOPS = {PACK_GRAIN_FLOPS}\n")
    if args.quick:
        rows = grid(QUICK_CONFIGS, QUICK_SHAPES, ops=4, repeats=1)
    else:
        rows = grid(CONFIGS, SHAPES, args.ops, args.repeats)
    print(
        format_table(
            ["family", "p", "c", "n", "nnz/row", "r", "grain", "spread ms",
             "packed ms", "packed/spread", "resolve() says"],
            rows,
        )
    )
    below = [row[9] for row in rows if row[6] < PACK_GRAIN_FLOPS]
    above = [row[9] for row in rows if row[6] >= PACK_GRAIN_FLOPS]
    for label, ratios in (("grain < threshold", below), ("grain >= threshold", above)):
        if ratios:
            print(
                f"{label}: {len(ratios)} points, packed/spread "
                f"{min(ratios):.2f}-{max(ratios):.2f}, median "
                f"{statistics.median(ratios):.2f}, packed faster at "
                f"{sum(ratio < 1.0 for ratio in ratios)}"
            )

    shape = (256, 8, 8, 3, 1) if args.quick else (4096, 16, 32, 10, 3)
    print(
        "\nALS, 1.5d-sparse-shift p=8 c=2, n={} nnz/row={} r={} cg_iters={}, "
        "per sweep over {} sweep(s):".format(*shape)
    )
    print(
        format_table(
            ["placement", "wall s", "ru_nvcsw", "ru_nivcsw", "ru_stime s",
             "ru_utime s"],
            als_rusage(*shape),
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
