"""Shared enumerations and small value types used across the library.

The vocabulary follows the paper directly:

* :class:`Mode` selects which kernel the *unified* distributed algorithms
  compute (Algorithms 1 and 2 of the paper take the same ``Mode`` input).
* :class:`Elision` selects the FusedMM communication-eliding strategy
  (Section IV-B of the paper).
* :class:`Phase` labels communication/computation for the time and traffic
  breakdowns reported in the paper's Figure 5 and Figure 9.

:class:`NameRegistry` is the one name -> implementation registry: the
execution backends, the kernel backends and the algorithm families each
bind their public functions to an instance of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Type

from repro.errors import ReproError


class Mode(enum.Enum):
    """Kernel computed by a unified distributed algorithm.

    ``SDDMM``  : ``R = S * (A @ B.T)`` sampled at the nonzeros of ``S``.
    ``SPMM_A`` : ``A = S @ B``   (output has the shape of ``A``).
    ``SPMM_B`` : ``B = S.T @ A`` (output has the shape of ``B``).
    """

    SDDMM = "sddmm"
    SPMM_A = "spmm_a"
    SPMM_B = "spmm_b"


class Elision(enum.Enum):
    """Communication-eliding strategy for a FusedMM (SDDMM then SpMM) pair.

    ``NONE``              : two unified kernel calls back to back.
    ``REPLICATION_REUSE`` : replicate one dense input once, reuse it for
                            both the SDDMM and the SpMM (raises the optimal
                            replication factor, Section IV-B(1)).
    ``LOCAL_KERNEL_FUSION`` : one propagation round performing the local
                            SDDMM and local SpMM together (lowers the
                            optimal replication factor, Section IV-B(2)).
                            Only the 1.5D dense-shifting algorithm admits
                            this strategy (it is the only one that keeps
                            entire rows of A and B on one processor).
    """

    NONE = "none"
    REPLICATION_REUSE = "replication-reuse"
    LOCAL_KERNEL_FUSION = "local-kernel-fusion"


class CommMode(enum.Enum):
    """Communication mode of a distributed kernel run.

    ``DENSE``  : ring collectives move full dense replicas / partials
                 (the paper's baseline collective costs).
    ``SPARSE`` : need-list neighborhood collectives move only the rows the
                 sparse matrix's structure touches (SpComm3D-style), with
                 per-rank index lists planned once per structure and
                 cached (:mod:`repro.comm_sparse`).  Supported by the
                 sparse-shifting / sparse-replicating families.
    ``AUTO``   : pick dense or sparse per the alpha-beta model's predicted
                 communication volume for the operands' sparsity.
    """

    DENSE = "dense"
    SPARSE = "sparse"
    AUTO = "auto"


class FusedVariant(enum.Enum):
    """Which FusedMM operation is requested.

    ``FUSED_A`` : ``FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)``
    ``FUSED_B`` : ``FusedMMB(S, A, B) = SpMMB(SDDMM(A, B, S), A)``
    """

    FUSED_A = "fusedmm_a"
    FUSED_B = "fusedmm_b"


class Phase(enum.Enum):
    """Cost-attribution phases used by the paper's breakdown plots.

    ``REPLICATION`` : all-gather / reduce-scatter traffic along the fiber
                      axis of the processor grid (replication of inputs or
                      reduction of replicated outputs).
    ``PROPAGATION`` : cyclic shifts of matrix blocks within a grid layer.
    ``COMPUTATION`` : local SDDMM / SpMM kernel execution.
    ``OTHER``       : everything else (application-side work, distributed
                      dot products, edge softmax, ...).
    """

    REPLICATION = "replication"
    PROPAGATION = "propagation"
    COMPUTATION = "computation"
    OTHER = "other"


#: All algorithm family identifiers, as used by the registry and the
#: analytical model.  These names mirror the legend of Figures 4 and 8.
ALGORITHM_FAMILIES = (
    "1.5d-dense-shift",
    "1.5d-sparse-shift",
    "2.5d-dense-replicate",
    "2.5d-sparse-replicate",
)


@dataclass(frozen=True)
class NameRegistry:
    """The names one pluggable seam accepts, and the two checks every entry
    point applies to them in the same order.

    :meth:`validate` never looks at the environment, so a caller's feature
    guards sit between it and :meth:`ensure_available` — every guard is
    testable without the optional dependency installed.  ``requires`` maps
    a name to ``(probe, hint)``: ``probe()`` says whether the name can run
    here (names without an entry always can) and ``hint`` is the install
    hint the ``unavailable`` error carries.  ``fold_case`` matches knob
    values a user types (``" MPI "``) case-insensitively; algorithm names,
    which also key the cost tables verbatim, match exactly.
    """

    what: str
    names: Tuple[str, ...]
    unknown: Type[ReproError] = ReproError
    unavailable: Type[ReproError] = ReproError
    requires: Dict[str, Tuple[Callable[[], bool], str]] = field(default_factory=dict)
    fold_case: bool = True

    def validate(self, name: str, also: Tuple[str, ...] = ()) -> str:
        """Canonicalize ``name``; ``also`` admits a knob's extra spellings
        (``"auto"``) that are not registry entries."""
        key = str(name).strip().lower() if self.fold_case else name
        if key not in self.names and key not in also:
            raise self.unknown(
                f"unknown {self.what} {name!r}; options: "
                + ", ".join(self.names + also)
            )
        return key

    def available(self) -> Tuple[str, ...]:
        """The registered names that can run here, in registry order."""
        return tuple(
            n for n in self.names if n not in self.requires or self.requires[n][0]()
        )

    def ensure_available(self, name: str) -> None:
        """Raise the ``unavailable`` error if validated ``name`` cannot run."""
        if name not in self.available():
            raise self.unavailable(self.requires[name][1])
