"""Optimal replication factors and algorithm selection (paper Table IV,
Figures 6 and 7).

``optimal_c_continuous`` reproduces Table IV's closed forms; because real
grids only admit certain ``c`` (divisors of p; perfect-square constraint
for 2.5D), ``best_feasible_c`` minimizes the Table III cost over the
feasible set, optionally capped (the paper caps c at 8 for weak scaling
and 16 for strong scaling due to memory).

``predict_best_algorithm`` is the "Predicted" panel of Figure 6: evaluate
every algorithm at its best feasible replication factor and pick the
cheapest.  With the paper's formulas, the 1.5D dense-shift (local kernel
fusion) vs 1.5D sparse-shift (replication reuse) boundary falls at
``phi = 1/3`` — the paper's "3 nnz(S)/r = 1" line.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.algorithms.registry import feasible_replication_factors, supports_sparse_comm
from repro.errors import ReproError
from repro.model.costs import (
    PAPER_COST_ROWS,
    CostBreakdown,
    fusedmm_buffer_words,
    fusedmm_cost,
    fusedmm_cost_sparse,
    fusedmm_flops,
)
from repro.runtime.cost import CORI_KNL, MachineParams
from repro.types import Elision


def optimal_c_continuous(key: str, p: int, phi: float) -> float:
    """Table IV's optimal replication factor (continuous relaxation)."""
    table = {
        "1.5d-dense-shift/none": math.sqrt(p),
        "1.5d-dense-shift/replication-reuse": math.sqrt(2 * p),
        "1.5d-dense-shift/local-kernel-fusion": math.sqrt(p / 2),
        "1.5d-sparse-shift/none": math.sqrt(3 * p * phi),
        "1.5d-sparse-shift/replication-reuse": math.sqrt(6 * p * phi),
        "2.5d-dense-replicate/none": (p * (1 + 3 * phi) ** 2 / 4) ** (1 / 3),
        "2.5d-dense-replicate/replication-reuse": (p * (1 + 3 * phi) ** 2) ** (1 / 3),
        # NOTE: the paper's Table IV prints cbrt(p / (2 phi / 3)^2) here,
        # but the argmin of its own Table III expression
        # nr/sqrt(p) * (4/sqrt(c) + 3 phi (c-1)/sqrt(p)) is
        # cbrt(p / (3 phi / 2)^2); the printed denominator appears to be a
        # transcription slip (the same "sparser input benefits from higher
        # replication" scaling holds either way).  We use the true argmin.
        "2.5d-sparse-replicate/none": (p / (3 * phi / 2) ** 2) ** (1 / 3)
        if phi > 0
        else float(p),
    }
    if key not in table:
        raise ReproError(f"unknown row {key!r}; options: {PAPER_COST_ROWS}")
    return table[key]


def _algorithm_of(key: str) -> str:
    return key.split("/", 1)[0]


def best_feasible_c(
    key: str,
    n: int,
    r: int,
    p: int,
    phi: float,
    machine: MachineParams = CORI_KNL,
    max_c: Optional[int] = None,
) -> Tuple[int, CostBreakdown]:
    """Minimize the Table III cost over the feasible replication factors.

    For the 1.5D sparse-shifting layout, ``c`` is additionally capped so
    the r-strips stay non-degenerate (``p/c <= r``) — the constraint that
    forced the paper's minimum replication factor of 2 at 256 nodes with
    r = 128.
    """
    algorithm = _algorithm_of(key)
    feasible: Iterable[int] = feasible_replication_factors(algorithm, p)
    if max_c is not None:
        feasible = [c for c in feasible if c <= max_c]
    if algorithm == "1.5d-sparse-shift":
        ok = [c for c in feasible if p // c <= max(r, 1)]
        feasible = ok or list(feasible)[-1:]  # degenerate fallback
    best: Optional[Tuple[int, CostBreakdown]] = None
    for c in feasible:
        cost = fusedmm_cost(key, n, r, p, c, phi)
        if best is None or cost.time(machine) < best[1].time(machine):
            best = (c, cost)
    if best is None:
        raise ReproError(f"no feasible replication factor for {key} at p={p}")
    return best


def comm_mode_scores(
    algorithm: str,
    n: int,
    r: int,
    nnz: int,
    p: int,
    c: int,
    machine: MachineParams = CORI_KNL,
    elision: Elision = Elision.NONE,
    margin: float = 0.95,
    memory_weight: float = 0.25,
    compute_gamma: Optional[float] = None,
) -> Dict[str, Any]:
    """The dense-vs-sparse communication decision with its terms on record.

    Compares the Table III cost of the algorithm's FusedMM row against
    its need-list sparse-communication variant
    (:func:`repro.model.costs.fusedmm_cost_sparse`) at the run's actual
    ``(p, c)``.  ``margin`` is hysteresis against the need-list planning
    overhead: sparse must be predicted at least ``1 - margin`` cheaper to
    win, so near-saturated inputs (every row touched) stay on the dense
    ring collectives.

    Each side is additionally charged a *memory term* — its peak panel
    footprint (:func:`repro.model.costs.fusedmm_buffer_words`) billed at
    ``memory_weight * beta`` per word, modeling the zero-fill/scatter
    memory pass a resident panel costs (memory bandwidth is faster than
    the wire, hence the fraction).  This matters mostly for the 2.5D
    sparse-replicating family, whose sparse path swaps piece-sized ring
    buffers for strip-wide packed panels: at high need-list coverage the
    footprint can outgrow the traffic saving, and the memory term steers
    ``comm="auto"`` back to dense.

    ``compute_gamma`` adds the per-call local-compute time (at a
    *measured* seconds-per-FLOP from the kernel calibration, see
    :func:`repro.model.costs.compute_seconds`) to both scores.  Compute
    is the same on both sides, but the ``margin`` hysteresis is
    multiplicative, so a realistic compute floor shrinks the *relative*
    gap between the variants: the faster the measured kernels, the more
    the communication difference dominates the decision — exactly the
    regime shift a compiled backend causes.

    Returns ``{"dense": {"seconds", "buffer_words"}, "sparse": {...},
    "margin", "picked"}``; raises :class:`~repro.errors.ReproError` for
    a row the model cannot price (no sparse path, unprinted row,
    infeasible ``c``).
    """
    phi = nnz / (float(n) * r) if n and r else 0.0
    key = f"{algorithm}/{elision.value}"
    costs = {
        "dense": fusedmm_cost(key, n, r, p, c, phi),
        "sparse": fusedmm_cost_sparse(key, n, r, p, c, phi),
    }
    mem_beta = memory_weight * machine.beta
    t_comp = (
        compute_gamma * fusedmm_flops(nnz, r, p) if compute_gamma is not None else 0.0
    )
    out: Dict[str, Any] = {}
    for mode, cost in costs.items():
        buf = fusedmm_buffer_words(key, n, r, p, c, phi, sparse_comm=mode == "sparse")
        out[mode] = {
            "seconds": cost.time(machine) + mem_beta * buf + t_comp,
            "buffer_words": buf,
        }
    sparse_wins = out["sparse"]["seconds"] < margin * out["dense"]["seconds"]
    out.update(margin=margin, picked="sparse" if sparse_wins else "dense")
    return out


def choose_comm_mode(
    algorithm: str,
    n: int,
    r: int,
    nnz: int,
    p: int,
    c: int,
    machine: MachineParams = CORI_KNL,
    elision: Elision = Elision.NONE,
    margin: float = 0.95,
    memory_weight: float = 0.25,
    compute_gamma: Optional[float] = None,
) -> str:
    """Pick ``"dense"`` or ``"sparse"`` communication for a kernel run:
    :func:`comm_mode_scores`' pick, and ``"dense"`` wherever it cannot
    price the row (families without a sparse path always answer dense).
    """
    if not supports_sparse_comm(algorithm):
        return "dense"
    try:
        scores = comm_mode_scores(
            algorithm, n, r, nnz, p, c, machine, elision, margin, memory_weight,
            compute_gamma,
        )
    except ReproError:
        return "dense"
    return scores["picked"]


def predicted_times(
    n: int,
    r: int,
    nnz: int,
    p: int,
    machine: MachineParams = CORI_KNL,
    keys: Iterable[str] = PAPER_COST_ROWS,
    max_c: Optional[int] = None,
    include_compute: bool = True,
) -> Dict[str, Tuple[int, float]]:
    """Modeled FusedMM time per cost row at its best feasible ``c``.

    Returns ``{key: (best_c, seconds)}``.  Compute time (gamma model) is
    identical across rows, so it does not change the ranking; include it
    for realistic totals, exclude it to study communication alone.
    """
    phi = nnz / (float(n) * r)
    flops = fusedmm_flops(nnz, r, p) if include_compute else 0.0
    out: Dict[str, Tuple[int, float]] = {}
    for key in keys:
        try:
            c, cost = best_feasible_c(key, n, r, p, phi, machine, max_c=max_c)
        except ReproError:
            continue
        out[key] = (c, cost.time(machine, flops=flops))
    return out


def cheapest_row(times: Dict[str, Tuple[int, float]]) -> str:
    """The row of a :func:`predicted_times` table with the least seconds
    (first in table order on a tie)."""
    if not times:
        raise ReproError("no algorithm is feasible for these parameters")
    return min(times.items(), key=lambda kv: kv[1][1])[0]


def predict_best_algorithm(
    n: int,
    r: int,
    nnz: int,
    p: int,
    machine: MachineParams = CORI_KNL,
    keys: Iterable[str] = PAPER_COST_ROWS,
    max_c: Optional[int] = None,
) -> str:
    """The Figure 6 "Predicted" map: cheapest row at its best feasible c."""
    return cheapest_row(predicted_times(n, r, nnz, p, machine, keys=keys, max_c=max_c))
