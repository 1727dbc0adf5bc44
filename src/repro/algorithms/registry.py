"""Algorithm registry: name -> class, feasibility helpers.

Mirrors the paper's Figure 2 design space.  The 1.5D sparse-replicating
dense-shifting corner is deliberately absent: the paper rules it out as
"inferior to the 2.5D sparse replicating algorithm".
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.algorithms.base import DistributedAlgorithm
from repro.algorithms.dense_repl_25d import DenseReplicate25D
from repro.algorithms.dense_shift_15d import DenseShift15D
from repro.algorithms.sparse_repl_25d import SparseReplicate25D
from repro.algorithms.sparse_shift_15d import SparseShift15D
from repro.runtime.grid import feasible_c_15d, feasible_c_25d
from repro.types import Elision, NameRegistry

ALGORITHMS: Dict[str, Type[DistributedAlgorithm]] = {
    DenseShift15D.name: DenseShift15D,
    SparseShift15D.name: SparseShift15D,
    DenseReplicate25D.name: DenseReplicate25D,
    SparseReplicate25D.name: SparseReplicate25D,
}

_REGISTRY = NameRegistry("algorithm", tuple(sorted(ALGORITHMS)), fold_case=False)


def _family(name: str) -> Type[DistributedAlgorithm]:
    """The class registered under ``name`` (typed error for unknown names)."""
    return ALGORITHMS[_REGISTRY.validate(name)]


def make_algorithm(name: str, p: int, c: int) -> DistributedAlgorithm:
    """Instantiate an algorithm family by registry name."""
    return _family(name)(p, c)


def supported_elisions(name: str) -> Tuple[Elision, ...]:
    return _family(name).elisions


def supports_sparse_comm(name: str) -> bool:
    """Whether algorithm ``name`` implements need-list sparse communication
    (``comm="sparse"``, :mod:`repro.comm_sparse`)."""
    return _family(name).supports_sparse_comm


def feasible_replication_factors(name: str, p: int) -> Tuple[int, ...]:
    """Replication factors ``c`` admissible for algorithm ``name`` on ``p``
    ranks (1.5D: c | p; 2.5D: additionally p/c a perfect square)."""
    if _REGISTRY.validate(name).startswith("2.5d"):
        return feasible_c_25d(p)
    return feasible_c_15d(p)
