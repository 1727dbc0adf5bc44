"""Sparse-aware communication subsystem.

Need-list planning plus neighborhood collectives: instead of moving dense
replicas of A/B and dense partial outputs, ranks exchange only the rows
the sparse matrix's structure actually touches (SpComm3D-style), with the
per-rank index lists computed once per sparsity structure and cached.

Layers:

* :mod:`repro.comm_sparse.plan` — :class:`CommPlan` / :class:`PeerExchange`
  with exact word accounting, and the :class:`PackedIndex` of a packed
  panel;
* :mod:`repro.comm_sparse.planner` — layout-aware need-list planners for
  the 1.5D sparse-shifting and 2.5D sparse-replicating algorithms (one
  plan per exchange, built in packed-panel coordinates), plus the
  structure-fingerprint plan cache;
* :mod:`repro.comm_sparse.collectives` — the packed need-list
  all-gather / reduce-scatter built on the point-to-point layer, with
  traffic attributed through the ordinary :class:`RankProfile` hooks.

Selected via ``comm="sparse"`` (or ``comm="auto"``) on the public API.
"""

from repro.comm_sparse.collectives import TAG_SPARSE_AG, TAG_SPARSE_RS
from repro.comm_sparse.plan import (
    CommPlan,
    PackedIndex,
    PeerExchange,
    dense_rows_moved,
)
from repro.comm_sparse.planner import (
    SparsePlan15D,
    SparsePlan25D,
    cached_comm_plans,
    clear_plan_cache,
    plan_cache_stats,
    plan_sparse_replicate_25d,
    plan_sparse_shift_15d,
)

__all__ = [
    "CommPlan",
    "PackedIndex",
    "PeerExchange",
    "SparsePlan15D",
    "SparsePlan25D",
    "TAG_SPARSE_AG",
    "TAG_SPARSE_RS",
    "plan_sparse_shift_15d",
    "plan_sparse_replicate_25d",
    "cached_comm_plans",
    "plan_cache_stats",
    "clear_plan_cache",
    "dense_rows_moved",
]
