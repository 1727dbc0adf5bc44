#!/usr/bin/env python
"""Collaborative filtering with distributed ALS (paper Section VI-E).

Builds a synthetic ratings matrix from a hidden low-rank model, observes a
sparse random sample of it, and factorizes the observations with the
batched-CG ALS whose query vectors are FusedMM calls.  The driver is
built on the session-handle API: each engine plans its resident
distributions once (values + indicator pattern, plus the lazily-built
transposed siblings for the FusedMMB phases) and runs all
``20 x outer_iters`` FusedMM calls against them.  Compares the 1.5D
dense-shifting engine against the 1.5D sparse-shifting engine — the
paper's Figure 9 pairing.

Run:  python examples/collaborative_filtering_als.py
"""

import numpy as np

from repro.apps.als import DistributedALS
from repro.runtime.cost import CORI_KNL
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, Phase


def make_ratings(n_users=3000, n_items=2000, rank=12, obs_per_user=20, seed=0):
    """Hidden low-rank preference model observed at random entries."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n_users, rank))
    V = rng.standard_normal((n_items, rank))
    pattern = erdos_renyi(n_users, n_items, obs_per_user, seed=seed + 1)
    ratings = np.einsum("ij,ij->i", U[pattern.rows], V[pattern.cols])
    ratings += 0.05 * rng.standard_normal(len(ratings))  # observation noise
    return CooMatrix(pattern.rows, pattern.cols, ratings, (n_users, n_items), dedupe=False)


def main() -> None:
    rank, p, c = 12, 8, 2
    C = make_ratings()
    print(f"observations: {C.nnz:,} ratings of a {C.nrows}x{C.ncols} matrix\n")

    for algorithm, elision in (
        ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION),
        ("1.5d-sparse-shift", Elision.REPLICATION_REUSE),
    ):
        als = DistributedALS(
            p=p, c=c, algorithm=algorithm, elision=elision, lam=0.05, cg_iters=10
        )
        result = als.run(C, rank, outer_iters=3, seed=7)
        rep = result.report
        print(f"== {algorithm} / {elision.value} on p={p}, c={c} ==")
        print("  loss per sweep:", " -> ".join(f"{x:.1f}" for x in result.loss_history))
        pred = np.einsum("ij,ij->i", result.A[C.rows], result.B[C.cols])
        rmse = float(np.sqrt(np.mean((pred - C.vals) ** 2)))
        print(f"  training RMSE: {rmse:.4f}")
        fused_comm = rep.modeled_comm_seconds(CORI_KNL, Phase.REPLICATION) + \
            rep.modeled_comm_seconds(CORI_KNL, Phase.PROPAGATION)
        print(f"  modeled kernel comm (all CG FusedMMs and the loss SDDMM, "
              f"S distributed once): {fused_comm*1e3:8.3f} ms\n")


if __name__ == "__main__":
    main()
