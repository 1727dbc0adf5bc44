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

``joint_candidates`` is what a session's ``auto`` knobs are decided from:
every ``(row, c, comm)`` priced as that communication mode moves data
(Table III for the ring collectives, its need-list variant for
``comm="sparse"``), so family, replication factor and mode are one
arg-min (``cheapest_candidate``) instead of three sequential ones.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.registry import feasible_replication_factors, supports_sparse_comm
from repro.errors import ReproError
from repro.model.costs import (
    PAPER_COST_ROWS,
    CostBreakdown,
    fusedmm_buffer_words,
    fusedmm_cost,
    fusedmm_cost_sparse,
    fusedmm_flops,
    row_key,
)
from repro.runtime.cost import CORI_KNL, MachineParams
from repro.types import Elision

#: a need-list candidate must be predicted this fraction of a dense one's
#: seconds (or less) to win — hysteresis against need-list planning
SPARSE_MARGIN = 0.95

#: what a 2.5D ``comm="dense"`` candidate at q = 1 says about its price
Q1_DENSE_CAVEAT = (
    "q = 1: the dense Table III row charges the one-rank ring's self-shift, "
    "which the run does not move; measured words are lower"
)


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


def feasible_c(
    algorithm: str, p: int, r: int, max_c: Optional[int] = None
) -> List[int]:
    """The replication factors the model may pick for ``algorithm`` (none
    when ``max_c`` is below every feasible one).

    For the 1.5D sparse-shifting layout, ``c`` is additionally capped so
    the r-strips stay non-degenerate (``p/c <= r``) — the constraint that
    forced the paper's minimum replication factor of 2 at 256 nodes with
    r = 128.
    """
    feasible = list(feasible_replication_factors(algorithm, p))
    if max_c is not None:
        feasible = [c for c in feasible if c <= max_c]
    if algorithm == "1.5d-sparse-shift":
        ok = [c for c in feasible if p // c <= max(r, 1)]
        feasible = ok or feasible[-1:]  # degenerate fallback
    return feasible


def best_feasible_c(
    key: str,
    n: int,
    r: int,
    p: int,
    phi: float,
    machine: MachineParams = CORI_KNL,
    max_c: Optional[int] = None,
) -> Tuple[int, CostBreakdown]:
    """Minimize the Table III cost over the feasible replication factors
    (:func:`feasible_c`: the sparse-shifting strip cap applies)."""
    best: Optional[Tuple[int, CostBreakdown]] = None
    for c in feasible_c(_algorithm_of(key), p, r, max_c):
        cost = fusedmm_cost(key, n, r, p, c, phi)
        if best is None or cost.time(machine) < best[1].time(machine):
            best = (c, cost)
    if best is None:
        raise ReproError(f"no feasible replication factor for {key} at p={p}")
    return best


def joint_candidates(
    rows: Iterable[str],
    n: int,
    r: int,
    nnz: int,
    p: int,
    machine: MachineParams = CORI_KNL,
    c: Optional[int] = None,
    comm: Optional[Sequence[str]] = None,
    margin: float = SPARSE_MARGIN,
    memory_weight: float = 0.25,
    compute_gamma: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Every ``(row, c, comm)`` a plan could resolve to, priced — the one
    table behind ``algorithm="auto"``, ``c=None`` and ``comm="auto"``.

    One record per cost row of ``rows`` x replication factor (``c``, or
    every :func:`feasible_c` when ``None``) x communication mode
    (``comm``, or dense plus — where the family has need lists — sparse
    when ``None``), in that order.  ``seconds`` is the row as the mode
    moves data — Table III (:func:`~repro.model.costs.fusedmm_cost`) for
    dense ring collectives, its need-list variant
    (:func:`~repro.model.costs.fusedmm_cost_sparse`) for sparse — plus
    two terms:

    * a *memory term*: the peak panel footprint
      (:func:`~repro.model.costs.fusedmm_buffer_words`) billed at
      ``memory_weight * beta`` per word, modeling the zero-fill/scatter
      memory pass a resident panel costs (memory bandwidth is faster than
      the wire, hence the fraction).  It matters mostly for the 2.5D
      sparse-replicating family, whose sparse path swaps piece-sized ring
      buffers for strip-wide packed panels: at high need-list coverage
      the footprint can outgrow the traffic saving.
    * with ``compute_gamma``, the per-call local-compute time at a
      *measured* seconds-per-FLOP (the kernel calibration of
      :mod:`repro.model.calibrate`).  It is the same for
      every candidate, but the margin below is multiplicative, so a
      realistic compute floor shrinks the *relative* gap: the faster the
      measured kernels, the more communication dominates the decision.

    ``score`` is what :func:`cheapest_candidate` minimizes: ``seconds``
    for a sparse candidate, ``margin * seconds`` for a dense one —
    hysteresis against the need-list planning overhead, so sparse must be
    predicted at least ``1 - margin`` cheaper than a dense candidate to
    beat it and near-saturated inputs stay on the ring collectives.

    A 2.5D dense candidate at ``q = 1`` carries a ``caveat``: Table III
    charges the one-rank ring's self-shift, which the run does not move.

    Raises :class:`~repro.errors.ReproError` for a candidate the model
    cannot price (an infeasible explicit ``c``, ``"sparse"`` for a family
    without need lists, an unprinted row).
    """
    phi = nnz / (float(n) * r) if n and r else 0.0
    mem_beta = memory_weight * machine.beta
    t_comp = (
        compute_gamma * fusedmm_flops(nnz, r, p) if compute_gamma is not None else 0.0
    )
    table: List[Dict[str, Any]] = []
    for key in rows:
        algorithm = _algorithm_of(key)
        factors = feasible_c(algorithm, p, r) if c is None else [c]
        modes = comm or ("dense", "sparse")[: 1 + supports_sparse_comm(algorithm)]
        for kc, mode in itertools.product(factors, modes):
            sparse = mode == "sparse"
            cost = (fusedmm_cost_sparse if sparse else fusedmm_cost)(
                key, n, r, p, kc, phi
            )
            buf = fusedmm_buffer_words(key, n, r, p, kc, phi, sparse_comm=sparse)
            seconds = cost.time(machine) + mem_beta * buf + t_comp
            record = {
                "row": key,
                "c": kc,
                "comm": mode,
                "seconds": seconds,
                "score": seconds if sparse else margin * seconds,
                "words": cost.words,
                "messages": cost.messages,
                "buffer_words": buf,
            }
            if not sparse and algorithm.startswith("2.5d") and kc == p:
                record["caveat"] = Q1_DENSE_CAVEAT
            table.append(record)
    return table


def cheapest_candidate(table: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The record of a :func:`joint_candidates` table with the least
    ``score`` (first in table order on a tie, so dense beats sparse)."""
    if not table:
        raise ReproError("no (algorithm, c, comm) candidate for these parameters")
    return min(table, key=lambda record: record["score"])


def choose_comm_mode(
    algorithm: str,
    n: int,
    r: int,
    nnz: int,
    p: int,
    c: int,
    machine: MachineParams = CORI_KNL,
    elision: Elision = Elision.NONE,
    margin: float = SPARSE_MARGIN,
    memory_weight: float = 0.25,
    compute_gamma: Optional[float] = None,
) -> str:
    """Pick ``"dense"`` or ``"sparse"`` communication for a kernel run at
    a fixed ``(algorithm, c)``: the cheapest of the two
    :func:`joint_candidates`, and ``"dense"`` wherever the model cannot
    price the row (families without a sparse path always answer dense).
    """
    if not supports_sparse_comm(algorithm):
        return "dense"
    try:
        table = joint_candidates(
            [row_key(algorithm, elision)], n, r, nnz, p, machine, c=c,
            margin=margin, memory_weight=memory_weight, compute_gamma=compute_gamma,
        )
    except ReproError:
        return "dense"
    return cheapest_candidate(table)["comm"]


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
