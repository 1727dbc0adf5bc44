"""Strong-scaling experiments on real-world matrix stand-ins (Figure 8).

A fixed matrix is run at increasing processor counts; every algorithm
variant reports its best-over-c modeled time for ``calls`` FusedMM
invocations, alongside the PETSc-like baseline timed on ``2 * calls``
back-to-back SpMM calls (the paper's surrogate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.petsc_like import petsc_like_spmm
from repro.harness.weak_scaling import FIG4_VARIANTS, VariantResult, run_variant
from repro.runtime.cost import CORI_KNL, MachineParams
from repro.runtime.profile import RankProfile, RunReport
from repro.sparse.coo import CooMatrix
from repro.types import Elision


@dataclass
class StrongScalingResult:
    matrix: str
    p: int
    variants: List[VariantResult]
    petsc_seconds: Optional[float]

    def best_variant(self) -> VariantResult:
        return min(self.variants, key=lambda v: v.modeled_seconds)

    def best_as_run(self) -> VariantResult:
        """The best variant on the traffic the runs moved."""
        return min(self.variants, key=lambda v: v.as_run_seconds)


def petsc_baseline_seconds(
    S: CooMatrix,
    B: np.ndarray,
    p: int,
    machine: MachineParams,
    calls: int,
    use_measured_compute: bool = False,
) -> float:
    """``2 * calls`` PETSc-like SpMM invocations, modeled on ``machine``."""
    profiles = [RankProfile() for _ in range(p)]
    for _ in range(2 * calls):
        _, report = petsc_like_spmm(S, B, p, profiles=profiles)
    report = RunReport(per_rank=profiles, label=f"petsc x{2*calls}")
    return report.modeled_total_seconds(machine, measured_compute=use_measured_compute)


def strong_scaling_experiment(
    matrices: Dict[str, CooMatrix],
    p_list: Sequence[int],
    r: int = 32,
    variants: Sequence[Tuple[str, Elision]] = FIG4_VARIANTS,
    machine: MachineParams = CORI_KNL,
    calls: int = 1,
    max_c: Optional[int] = 16,
    include_petsc: bool = True,
    seed: int = 0,
) -> List[StrongScalingResult]:
    """Figure 8: per matrix x node count, all variants + PETSc baseline."""
    rng = np.random.default_rng(seed)
    out: List[StrongScalingResult] = []
    for name, S in matrices.items():
        A = rng.standard_normal((S.nrows, r))
        B = rng.standard_normal((S.ncols, r))
        for p in p_list:
            runs = (
                run_variant(a, e, S, A, B, p, machine=machine, calls=calls, max_c=max_c)
                for (a, e) in variants
            )
            vres = [v for v in runs if v is not None]
            petsc = (
                petsc_baseline_seconds(S, B, p, machine, calls)
                if include_petsc
                else None
            )
            out.append(
                StrongScalingResult(
                    matrix=name, p=p, variants=vres, petsc_seconds=petsc
                )
            )
    return out
