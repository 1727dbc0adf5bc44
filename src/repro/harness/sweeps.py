"""Parameter sweeps: best-algorithm map (Figure 6) and optimal
replication factors (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.harness.weak_scaling import run_variant, weak_scaling_problem
from repro.model.optimal import optimal_c_continuous, predict_best_algorithm
from repro.runtime.cost import CORI_KNL, MachineParams
from repro.sparse.generate import erdos_renyi
from repro.types import Elision

#: The contenders of Figure 6 (the four eliding variants + 2.5D sparse).
FIG6_VARIANTS: Tuple[Tuple[str, Elision], ...] = (
    ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION),
    ("1.5d-dense-shift", Elision.REPLICATION_REUSE),
    ("1.5d-sparse-shift", Elision.REPLICATION_REUSE),
    ("2.5d-dense-replicate", Elision.REPLICATION_REUSE),
    ("2.5d-sparse-replicate", Elision.NONE),
)


@dataclass
class BestAlgorithmCell:
    r: int
    nnz_per_row: float
    predicted: str
    observed: str
    phi: float
    #: the observed winner on the traffic the runs moved
    as_run: str


def best_algorithm_map(
    p: int,
    m: int,
    r_values: Sequence[int],
    nnz_per_row_values: Sequence[float],
    machine: MachineParams = CORI_KNL,
    variants: Sequence[Tuple[str, Elision]] = FIG6_VARIANTS,
    max_c: Optional[int] = 8,
    seed: int = 0,
) -> List[BestAlgorithmCell]:
    """Figure 6: predicted vs observed fastest algorithm over (r, nnz/row).

    "Observed" runs every variant for real and picks the one with the
    lowest modeled time on measured traffic, on the paper's every-hop
    schedule (:class:`~repro.harness.weak_scaling.VariantResult`);
    "as_run" picks it on the traffic the runs moved; "predicted"
    evaluates the Table III formulas.
    """
    rng = np.random.default_rng(seed)
    cells: List[BestAlgorithmCell] = []
    keys = [f"{a}/{e.value}" for (a, e) in variants]
    for k in nnz_per_row_values:
        S = erdos_renyi(m, m, k, seed=seed)
        for r in r_values:
            A = rng.standard_normal((m, r))
            B = rng.standard_normal((m, r))
            predicted = predict_best_algorithm(
                m, r, S.nnz, p, machine, keys=keys, max_c=max_c
            )
            runs = [
                v
                for v in (
                    run_variant(a, e, S, A, B, p, machine=machine, max_c=max_c)
                    for (a, e) in variants
                )
                if v is not None
            ]
            observed = min(runs, key=lambda v: v.modeled_seconds)
            as_run = min(runs, key=lambda v: v.as_run_seconds)
            cells.append(
                BestAlgorithmCell(
                    r=r,
                    nnz_per_row=k,
                    predicted=predicted,
                    observed=observed.label,
                    phi=S.nnz / (m * r),
                    as_run=as_run.label,
                )
            )
    return cells


@dataclass
class ReplicationFactorRow:
    variant: str
    p: int
    predicted_c: float
    observed_c: int


def replication_factor_sweep(
    p_list: Sequence[int],
    r: int = 32,
    base_log2: int = 10,
    base_nnz_row: int = 8,
    machine: MachineParams = CORI_KNL,
    max_c: Optional[int] = None,
    seed: int = 0,
) -> List[ReplicationFactorRow]:
    """Figure 7: predicted vs observed optimal c for the three 1.5D
    dense-shifting variants under weak scaling setup 1."""
    rng = np.random.default_rng(seed)
    rows: List[ReplicationFactorRow] = []
    variants = [
        ("1.5d-dense-shift", Elision.NONE),
        ("1.5d-dense-shift", Elision.REPLICATION_REUSE),
        ("1.5d-dense-shift", Elision.LOCAL_KERNEL_FUSION),
    ]
    for p in p_list:
        S = weak_scaling_problem(1, p, base_log2, base_nnz_row, seed=seed)
        n = S.ncols
        phi = S.nnz / (n * r)
        A = rng.standard_normal((n, r))
        B = rng.standard_normal((n, r))
        for (a, e) in variants:
            res = run_variant(a, e, S, A, B, p, machine=machine, max_c=max_c)
            rows.append(
                ReplicationFactorRow(
                    variant=f"{a}/{e.value}",
                    p=p,
                    predicted_c=optimal_c_continuous(f"{a}/{e.value}", p, phi),
                    observed_c=res.best_c,
                )
            )
    return rows
