"""repro.serve — micro-batched multi-tenant inference front-end.

The serving subsystem turns per-user requests into the dense operand
panels the resident kernels already eat: requests for the same model
coalesce into one panel and **one** ``Session`` call, run on the model's
resident session, one synchronous call per batch, admission control,
per-request deadlines on the session's watchdog/outcome machinery, and
p50/p95/p99 + throughput reporting.

Layers (each its own module):

* :mod:`~repro.serve.request` — typed requests, completions, futures
* :mod:`~repro.serve.model` — the request <-> panel codec contract
  (concrete models: :class:`repro.apps.als.AlsServeModel`,
  :class:`repro.apps.gat.GatServeModel`)
* :mod:`~repro.serve.batcher` — coalescing windows + admission control
* :mod:`~repro.serve.fleet` — one resident session per model, one call
  per batch, per-tenant value rebinding
* :mod:`~repro.serve.stats` — latency percentiles, batch histograms,
  throughput, outcome counts
* :mod:`~repro.serve.server` — the front door, :class:`Server`

The package imports nothing from :mod:`repro.apps` (the concrete models
build on it, not the other way round); the load generator that drives
both is the script ``benchmarks/bench_serve.py``.
"""

from repro.errors import ServeOverload, SessionBusyError
from repro.serve.batcher import MicroBatcher
from repro.serve.fleet import SessionFleet
from repro.serve.model import ServeModel
from repro.serve.request import (
    AlsTopKRequest,
    Completion,
    GatEdgeScoreRequest,
    Request,
    ServeFuture,
)
from repro.serve.server import Server
from repro.serve.stats import ServeStats

__all__ = [
    "Server",
    "ServeModel",
    "MicroBatcher",
    "SessionFleet",
    "ServeStats",
    "Request",
    "AlsTopKRequest",
    "GatEdgeScoreRequest",
    "Completion",
    "ServeFuture",
    "ServeOverload",
    "SessionBusyError",
]
