"""Hash every kernel output of fixed call sequences, for a bitwise A/B of
two checkouts.

Writes ``{sequence: [sha256 of each output, ...]}`` as JSON:

* ``identity/<family>/<elision>/<comm>`` — the 11 outputs of each cell of
  the identity matrix (``tests/test_identity_counts.run_cell``);
* ``third-slot/q2``, ``third-slot/q3`` — a 2.5D sparse-replicating
  need-list sequence on problems inside the third-slot budget
  (``SparsePlan25D.third_slot``): alternating FusedMMs, standalone
  kernels, new values and a changed operand;
* with ``--e2e``, ``e2e/<workload>/seed<s>`` — three ops of the
  ``er_comm``, ``rmat_25d`` and ``small_auto`` benchmark workloads at
  seeds 7 and 11 (the first op cold, the others warm) — and
  ``apps/als/seed<s>`` — the factors ``A`` and ``B`` after two sweeps of
  the ``als_sweep`` benchmark workload at seeds 7 and 11: the
  application path, CG row-dot all-reduces included — and
  ``apps/gat/seed<s>`` — the forward output of a GAT layer without
  elision and with replication reuse on a graph drawn at seeds 7 and 11:
  the edge-softmax all-reduces along the fiber and along the layer — and
  ``baselines/petsc/p<p>`` — the ``petsc_like_fusedmm_surrogate`` output
  at p = 4, 7 and 16: the baseline's two personalized all-to-alls.

Run it from the root of each checkout — copy this file into the other
one if it lacks it — and compare the two files::

    PYTHONPATH=src python tests/hash_outputs.py new.json --e2e
    diff old.json new.json && echo bitwise-equal

Hashes are of the raw output bytes, so compare runs on one machine only.
The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "benchmarks" / "e2e"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro  # noqa: E402
from repro.session import Session  # noqa: E402
from tests.test_identity_counts import CELLS, run_cell  # noqa: E402


def _sha(out) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


def third_slot_sequence(p: int, n: int, nnz_per_row: float) -> list:
    """The outputs of one need-list call sequence on ER(n, nnz_per_row)."""
    r = 8
    S = repro.erdos_renyi(n, n, nnz_per_row=nnz_per_row, seed=3)
    rng = np.random.default_rng(4)
    A, B = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    resolved = repro.plan(
        S, r, p=p, c=2, algorithm="2.5d-sparse-replicate", comm="sparse"
    ).explain()
    outs = []
    with Session(S, dataclasses.replace(resolved, layout="natural")) as sess:
        for _ in range(2):
            outs.append(sess.fusedmm_a(A, B)[0])
            outs.append(sess.fusedmm_b(A, B)[0])
        outs.append(sess.sddmm(A, B)[0].vals)
        outs.append(sess.spmm_a(B)[0])
        outs.append(sess.spmm_b(A)[0])
        sess.update_values(np.random.default_rng(5).standard_normal(S.nnz))
        outs.append(sess.fusedmm_b(A, B)[0])
        outs.append(sess.fusedmm_a(A + 1.0, B)[0])
        outs.append(sess.fusedmm_b(A + 1.0, B)[0])
    return outs


def e2e_sequence(name: str, seed: int) -> list:
    """The outputs of three ops of one benchmark workload (full size)."""
    from e2ebench.workloads import BUILDERS

    w = BUILDERS[name](seed, False)
    outs = []
    with w.config.plan() as sess:
        for i in range(3):
            outs.extend(w.op(sess, *w.operands[i % len(w.operands)]))
    return outs


def als_sequence(seed: int) -> list:
    """The factors of two sweeps of the ``als_sweep`` workload (full size)."""
    from e2ebench.workloads import BUILDERS

    w = BUILDERS["als_sweep"](seed, False)
    res = w.als.run(w.C_obs, w.r, outer_iters=2, seed=w.run_seed)
    return [res.A, res.B]


def gat_sequence(seed: int) -> list:
    """The forward output of both GAT variants at p = 8, c = 2."""
    from repro.apps.gat import DistributedGAT
    from repro.types import Elision

    n, r = 2048, 32
    S = repro.erdos_renyi(n, n, 8, seed=seed, values="ones")
    X = np.random.default_rng(seed).standard_normal((n, r))
    outs = []
    for el in (Elision.NONE, Elision.REPLICATION_REUSE):
        with DistributedGAT(
            p=8, c=2, n_heads=4, r_in=r, r_head=r // 4, elision=el, seed=seed
        ) as gat:
            outs.append(gat.forward(S, X).output)
    return outs


def petsc_sequence(p: int) -> list:
    """The output of the PETSc-like FusedMM surrogate on ``p`` ranks."""
    from repro.baselines.petsc_like import petsc_like_fusedmm_surrogate

    n, r = 1024, 32
    S = repro.erdos_renyi(n, n, 8, seed=3)
    B = np.random.default_rng(4).standard_normal((n, r))
    return [petsc_like_fusedmm_surrogate(S, B, p)[0]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument(
        "--e2e", action="store_true",
        help="also hash the er_comm, rmat_25d, small_auto and als_sweep"
        " workloads, a GAT forward pass and the PETSc-like baseline",
    )
    args = ap.parse_args()
    sequences = {}
    for cell in CELLS:
        outs, _ = run_cell(*cell, overlap="off")
        sequences["identity/" + "/".join(cell)] = outs
    sequences["third-slot/q2"] = third_slot_sequence(8, 256, 1.0)
    sequences["third-slot/q3"] = third_slot_sequence(18, 512, 0.5)
    if args.e2e:
        for name in ("er_comm", "rmat_25d", "small_auto"):
            for seed in (7, 11):
                sequences[f"e2e/{name}/seed{seed}"] = e2e_sequence(name, seed)
        for seed in (7, 11):
            sequences[f"apps/als/seed{seed}"] = als_sequence(seed)
        for seed in (7, 11):
            sequences[f"apps/gat/seed{seed}"] = gat_sequence(seed)
        for p in (4, 7, 16):
            sequences[f"baselines/petsc/p{p}"] = petsc_sequence(p)
    hashes = {key: [_sha(out) for out in outs] for key, outs in sequences.items()}
    pathlib.Path(args.out).write_text(json.dumps(hashes, indent=1) + "\n")
    total = sum(len(v) for v in hashes.values())
    print(f"{total} outputs in {len(hashes)} sequences -> {args.out}")


if __name__ == "__main__":
    main()
