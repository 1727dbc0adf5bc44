"""The model contract between the serving front-end and the kernels.

A :class:`ServeModel` owns the mapping from typed requests to the dense
operand panels the resident kernels eat — the "batched sparse inference"
unit of work (Gale et al., *Sparse GPU Kernels for Deep Learning*): many
requests for the same model coalesce into **one** panel and one
``Session`` call, and per-request results are sliced back out of the one
output.  Concrete models live next to their applications:
:class:`repro.apps.als.AlsServeModel` (top-k recommendation via
``spmm_a`` on the resident item-factor matrix) and
:class:`repro.apps.gat.GatServeModel` (edge scoring via ``sddmm`` on the
resident adjacency).

The contract deliberately keeps the *whole* numeric path inside the
model: the batcher/fleet layers never look at panels or outputs, so a
batch of one flows through byte-for-byte the same code as a batch of
``batch_width`` — which is what makes the serving path's
batched-vs-unbatched bitwise-equality tests meaningful.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.serve.request import Request
from repro.session import Session

__all__ = ["ServeModel"]


class ServeModel(ABC):
    """Request <-> panel codec plus session factory for one served model.

    Attributes
    ----------
    model_id:
        Routing key; requests carry it and the server keeps one fleet
        per id.
    batch_width:
        The largest number of requests one panel holds.  The batcher
        never hands ``encode`` more than this many requests.
    """

    model_id: str
    batch_width: int

    @abstractmethod
    def make_session(self) -> Session:
        """Plan the model's one resident session (called once, by the
        model's fleet)."""

    @abstractmethod
    def encode(self, requests: Sequence[Request]) -> np.ndarray:
        """Coalesce up to ``batch_width`` requests into one dense panel."""

    @abstractmethod
    def dispatch(self, sess: Session, panel: np.ndarray) -> Any:
        """Run the panel's single kernel call; returns its raw output."""

    @abstractmethod
    def decode(self, raw: Any, requests: Sequence[Request]) -> List[Any]:
        """Slice the call's raw output into one result per request."""

    def tenant_values(self, tenant_id: str) -> Optional[np.ndarray]:
        """Per-tenant sparse values for ``Session.update_values`` (shared
        structure, tenant-specific values).  ``None`` means the tenant
        uses the planned default values; unknown tenants should raise."""
        if tenant_id != "default":
            raise KeyError(tenant_id)
        return None

    def admit(self, pending: Sequence[Request], req: Request) -> bool:
        """Whether ``req`` may join a batch already holding ``pending``.

        Models whose panels key requests by a shared axis override this
        to defer colliding requests to the next batch (e.g. two scoring
        requests for the same graph node cannot share one panel row)."""
        return True
