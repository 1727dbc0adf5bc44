"""PETSc-like 1D block-row SpMM baseline (paper Section VI-A).

PETSc's ``MatMatMult`` is the only distributed SpMM among the established
libraries the paper surveyed.  Its defining properties, reproduced here:

* all matrices live in a **1D block-row** distribution (the library
  "requires a 1D block row distribution for all matrices");
* **no replication** of any operand, hence communication that does not
  decrease with the processor count;
* a sparsity-aware fetch: each rank determines the distinct off-rank
  columns of its S rows and retrieves exactly those rows of B from their
  owners with a request and a response (PETSc's symbolic phase +
  scatter), two personalized all-to-alls on the runtime's
  ``Communicator.alltoallv`` — the baseline composes collectives and
  moves no data of its own.

The paper benchmarks two back-to-back PETSc SpMM calls as the FusedMM
surrogate (SDDMM and SpMM have identical FLOPs and communication);
:func:`petsc_like_fusedmm_surrogate` does the same.

The local product stays SciPy's public ``csr @ dense`` (an oracle
independent of the rank kernels' raw CSR product).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import TAG_APP, track
from repro.runtime.comm import Communicator
from repro.runtime.profile import RankProfile, RunReport
from repro.runtime.spmd import run_spmd
from repro.sparse.coo import CooMatrix, SparseBlock
from repro.sparse.partition import block_of, block_ranges, partition_coo_rows
from repro.types import Phase


@dataclass
class PetscLocal:
    """One rank's state: a block row of S (global column ids) and B rows."""

    rows: np.ndarray  # local row ids
    cols: np.ndarray  # GLOBAL column ids
    vals: np.ndarray
    n_local_rows: int
    B: np.ndarray  # this rank's block row of B
    out: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PetscPlan:
    m: int
    n: int
    r: int
    p: int
    row_offsets: np.ndarray = field(repr=False)
    col_offsets: np.ndarray = field(repr=False)  # B row ownership


def petsc_plan(m: int, n: int, r: int, p: int) -> PetscPlan:
    return PetscPlan(m, n, r, p, block_ranges(m, p), block_ranges(n, p))


def petsc_distribute(plan: PetscPlan, S: CooMatrix, B: np.ndarray) -> List[PetscLocal]:
    parts = partition_coo_rows(S.rows, S.cols, S.vals, plan.row_offsets)
    locals_: List[PetscLocal] = []
    for rank in range(plan.p):
        nrows = int(plan.row_offsets[rank + 1] - plan.row_offsets[rank])
        empty = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            np.empty(0, np.int64),
        )
        lr, lc, lv, _ = parts.get(rank, empty)
        locals_.append(
            PetscLocal(
                rows=lr,
                cols=lc,
                vals=lv,
                n_local_rows=nrows,
                B=B[
                    int(plan.col_offsets[rank]) : int(plan.col_offsets[rank + 1])
                ].copy(),
            )
        )
    return locals_


def _rank_spmm(comm: Communicator, plan: PetscPlan, local: PetscLocal) -> None:
    """One distributed SpMM: fetch needed B rows, multiply locally.

    The fetch is two personalized all-to-alls (``comm.alltoallv``): index
    requests (1 word per index) go to the owning ranks, which answer
    with the dense rows (r words per row).  Every rank addresses every
    other rank in both, empty or not, so a rank receives ``2·(p − 1)``
    messages per SpMM.  Fiber/propagation phase names do not apply to
    this 1D baseline, so all its traffic is attributed to
    ``Phase.PROPAGATION``.
    """
    rank = comm.rank
    prof = comm.profile
    base = int(plan.col_offsets[rank])

    needed = np.unique(local.cols)
    owners = block_of(needed, plan.col_offsets)
    asked = [owners == q for q in range(comm.size)]

    with track(comm, Phase.PROPAGATION):
        # 1) index requests to every owner (this rank's own kept local)
        requests = comm.alltoallv([needed[mine] for mine in asked], tag=TAG_APP)
        # 2) each request answered with the dense rows it names
        replies = comm.alltoallv(
            [local.B[idx - base] for idx in requests], tag=TAG_APP + 1
        )
        # 3) assemble the gathered B rows in `needed` order
        gathered = np.empty((len(needed), plan.r))
        for mine, rows in zip(asked, replies):
            gathered[mine] = rows

    with track(comm, Phase.COMPUTATION):
        # remap global columns onto the compacted gathered rows and multiply
        compact = np.searchsorted(needed, local.cols)
        blk = SparseBlock(
            local.rows, compact, local.vals,
            (local.n_local_rows, max(len(needed), 1)),
        )
        out = np.zeros((local.n_local_rows, plan.r))
        if blk.nnz:
            out += blk.csr() @ gathered
        prof.add_flops(2 * blk.nnz * plan.r)
        local.out = out


def petsc_like_spmm(
    S: CooMatrix,
    B: np.ndarray,
    p: int,
    profiles: Optional[List[RankProfile]] = None,
) -> Tuple[np.ndarray, RunReport]:
    """Distributed ``S @ B`` with the PETSc-like baseline on ``p`` ranks."""
    m, n = S.shape
    r = B.shape[1]
    plan = petsc_plan(m, n, r, p)
    locals_ = petsc_distribute(plan, S, B)

    def body(comm: Communicator) -> None:
        _rank_spmm(comm, plan, locals_[comm.rank])

    _, report = run_spmd(p, body, profiles=profiles, label=f"petsc-like p={p}")
    out = np.zeros((m, r))
    for rank, loc in enumerate(locals_):
        out[int(plan.row_offsets[rank]) : int(plan.row_offsets[rank + 1])] = loc.out
    return out, report


def petsc_like_fusedmm_surrogate(
    S: CooMatrix, B: np.ndarray, p: int
) -> Tuple[np.ndarray, RunReport]:
    """Two back-to-back SpMM calls — the paper's FusedMM stand-in for PETSc."""
    profiles = [RankProfile() for _ in range(p)]
    _, _ = petsc_like_spmm(S, B, p, profiles=profiles)
    out, report = petsc_like_spmm(S, B, p, profiles=profiles)
    return out, report
