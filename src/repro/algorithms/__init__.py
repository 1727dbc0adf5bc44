"""Distributed-memory algorithms for SDDMM, SpMM and FusedMM.

Four sparsity-agnostic families, mirroring the paper's Figure 2 taxonomy:

================================  ===========================  =============
family                            replicates                   propagates
================================  ===========================  =============
``1.5d-dense-shift``              one dense matrix             other dense
``1.5d-sparse-shift``             one dense matrix             sparse matrix
``2.5d-dense-replicate``          one dense matrix             sparse + dense
``2.5d-sparse-replicate``         sparse matrix (values)       both dense
================================  ===========================  =============

Every family implements one *unified* kernel parameterized by
:class:`~repro.types.Mode` (the paper's Algorithms 1 and 2), plus FusedMM
drivers with the applicable elision strategies.
"""

from repro.algorithms.dense_repl_25d import DenseReplicate25D
from repro.algorithms.dense_shift_15d import DenseShift15D
from repro.algorithms.fused import native_procedure
from repro.algorithms.registry import (
    ALGORITHMS,
    feasible_replication_factors,
    make_algorithm,
    supported_elisions,
    supports_sparse_comm,
)
from repro.algorithms.sparse_repl_25d import SparseReplicate25D
from repro.algorithms.sparse_shift_15d import SparseShift15D

__all__ = [
    "supports_sparse_comm",
    "DenseShift15D",
    "SparseShift15D",
    "DenseReplicate25D",
    "SparseReplicate25D",
    "native_procedure",
    "ALGORITHMS",
    "make_algorithm",
    "supported_elisions",
    "feasible_replication_factors",
]
