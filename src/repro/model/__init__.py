"""Analytical alpha-beta communication model (paper Tables III and IV).

:mod:`repro.model.costs` encodes the paper's closed-form words/messages for
every FusedMM algorithm; :mod:`repro.model.optimal` derives the optimal
replication factors, the best-algorithm predictor behind Figures 6 and 7 and
the joint ``(row, c, comm)`` candidate table a session's ``auto`` knobs are
decided from;
:mod:`repro.model.calibrate` replaces the assumed compute flop rate with a
measured, per-host, per-kernel-backend one (the ``kernels="auto"`` policy);
:mod:`repro.model.resolve` is the one function that turns ``repro.plan``'s
knobs into a frozen :class:`~repro.model.resolve.ResolvedPlan` with the
candidates and model terms behind every ``auto`` on record.
"""

# NOTE: only the policy function is lifted to the package namespace —
# importing calibrate.calibrate here would shadow the submodule name
from repro.model.calibrate import choose_kernel_backend
from repro.model.costs import (
    CostBreakdown,
    expected_unique,
    fusedmm_cost,
    fusedmm_cost_paper,
    fusedmm_cost_sparse,
    sparse_comm_discount,
    PAPER_COST_ROWS,
)
from repro.model.optimal import (
    optimal_c_continuous,
    best_feasible_c,
    cheapest_candidate,
    choose_comm_mode,
    joint_candidates,
    predict_best_algorithm,
    predicted_times,
)

__all__ = [
    "choose_kernel_backend",
    "CostBreakdown",
    "expected_unique",
    "fusedmm_cost",
    "fusedmm_cost_paper",
    "fusedmm_cost_sparse",
    "sparse_comm_discount",
    "PAPER_COST_ROWS",
    "optimal_c_continuous",
    "best_feasible_c",
    "cheapest_candidate",
    "choose_comm_mode",
    "joint_candidates",
    "predict_best_algorithm",
    "predicted_times",
]
