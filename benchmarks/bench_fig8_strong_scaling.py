"""Figure 8: strong scaling on the five Table V matrices vs PETSc.

Paper shape to reproduce (256 nodes, r=128):

* every communication-avoiding algorithm beats the PETSc-like 1D baseline
  by a widening margin as p grows (>=10x at the paper's scale);
* the sparse-shifting 1.5D algorithm wins on the *sparse* matrices
  (amazon-large, uk-2002 at ~16 nnz/row) while the dense-shifting /
  dense-replicating algorithms win on the *dense* eukarya (~111 nnz/row);
* communication elision gives up to 1.6x over the unoptimized sequence.

Matrices are R-MAT stand-ins with the Table V nonzeros-per-row profiles
(see DESIGN.md substitutions).  Times are on the paper's schedule, every
hop of every propagation ring shipped; the "as-run best" columns price
the traffic the runs moved, read-only lanes skipping their hop home.
"""

from __future__ import annotations

from collections import defaultdict

from repro.harness.reporting import format_table
from repro.harness.strong_scaling import strong_scaling_experiment
from repro.sparse.generate import realworld_standin

from conftest import write_result

MATRICES = ("amazon-large", "uk-2002", "eukarya", "arabic-2005", "twitter7")


def test_fig8_strong_scaling(scale):
    mat_scale = 11 if scale == "small" else 13
    p_list = [4, 16] if scale == "small" else [4, 16, 64]
    r = 128  # the paper's embedding width; sets phi ~ 0.13 for amazon-like
    # and ~0.87 for eukarya-like, which is what separates the regimes

    matrices = {name: realworld_standin(name, scale=mat_scale, seed=1) for name in MATRICES}

    def run():
        return strong_scaling_experiment(
            matrices, p_list, r=r, calls=1, max_c=16, include_petsc=True
        )

    results = run()

    rows = []
    best_at = {}
    for res in results:
        best = res.best_variant()
        as_run = res.best_as_run()
        best_at[(res.matrix, res.p)] = res
        rows.append(
            [res.matrix, res.p, best.label, best.best_c,
             best.modeled_seconds, res.petsc_seconds,
             res.petsc_seconds / best.modeled_seconds,
             as_run.label, as_run.as_run_seconds]
        )
    write_result(
        "fig8_strong_scaling.txt",
        "Figure 8 — strong scaling on Table V stand-ins "
        "(modeled seconds per FusedMM, cori-knl; PETSc = 2 SpMM calls)\n"
        + format_table(
            ["matrix", "p", "best variant", "c*", "best time", "petsc", "speedup",
             "as-run best", "as-run time"],
            rows,
        ),
    )

    p_hi = p_list[-1]
    for name in MATRICES:
        res = best_at[(name, p_hi)]
        best = res.best_variant()
        # the communication-avoiding algorithms beat the 1D baseline, and
        # the margin grows with p (paper: >=10x at 256 nodes)
        assert res.petsc_seconds > best.modeled_seconds
        lo = best_at[(name, p_list[0])]
        assert (
            res.petsc_seconds / best.modeled_seconds
            > 0.8 * lo.petsc_seconds / lo.best_variant().modeled_seconds
        )
        # elision helps: best eliding dense-shift variant vs its unoptimized self
        per = {v.label: v for v in res.variants}
        none_t = per["1.5d-dense-shift/none"].modeled_seconds
        elided = min(
            per["1.5d-dense-shift/replication-reuse"].modeled_seconds,
            per["1.5d-dense-shift/local-kernel-fusion"].modeled_seconds,
        )
        assert elided <= none_t

    # sparse matrices favour sparse movement; the dense eukarya favours
    # dense movement (phi at r=128: ~0.13 for amazon-like, ~0.87 for
    # eukarya-like — the two sides of the paper's 1/3 boundary)
    assert "sparse" in best_at[("amazon-large", p_hi)].best_variant().algorithm
    euk = best_at[("eukarya", p_hi)].best_variant()
    assert "dense" in euk.algorithm
