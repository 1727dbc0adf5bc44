"""Serving statistics: request-latency percentiles, throughput, outcomes.

One :class:`ServeStats` accumulates every :class:`Completion` the fleet
delivers plus the admission-control rejects, and snapshots into a
JSON-ready dict: p50/p95/p99 end-to-end request latency, queue-wait
percentiles, a batch-size histogram, throughput (settled requests per
second of serving wall time) and per-outcome counts.  Session-side
per-call records (PR 6/7 ``Session.metrics()``) are merged in by the
server at drain time, so the snapshot ties request-level tails back to
the kernel calls that produced them.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serve.request import OUTCOMES, Completion

__all__ = ["ServeStats", "percentiles"]

#: the percentile levels every latency summary reports
PCTS = (50.0, 95.0, 99.0)


def percentiles(samples: List[float]) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` (zeros when empty)."""
    if not samples:
        return {f"p{int(q)}": 0.0 for q in PCTS}
    arr = np.asarray(samples, dtype=np.float64)
    vals = np.percentile(arr, PCTS)
    return {f"p{int(q)}": float(v) for q, v in zip(PCTS, vals)}


class ServeStats:
    """Accumulator for one server's lifetime (reset with :meth:`reset`)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.latency_ms: List[float] = []
        self.queue_ms: List[float] = []
        self.service_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.outcomes: Counter = Counter()
        self.batches = 0
        self.session_records: List[dict] = []
        self._t_first: Optional[float] = None
        self._t_last: Optional[float] = None

    # -- recording ------------------------------------------------------

    def record(self, completion: Completion) -> None:
        """One settled request (every outcome, including rejects)."""
        now = time.perf_counter()
        if self._t_first is None:
            self._t_first = now
        self._t_last = now
        self.outcomes[completion.outcome] += 1
        if completion.outcome == "rejected":
            return
        self.latency_ms.append(completion.latency_ms)
        self.queue_ms.append(completion.queue_ms)
        self.service_ms.append(completion.service_ms)
        self.batch_sizes.append(completion.batch_size)

    def record_batch(self) -> None:
        self.batches += 1

    # -- reporting ------------------------------------------------------

    @property
    def served(self) -> int:
        """Requests that reached a session (everything but rejects)."""
        return len(self.latency_ms)

    def throughput_rps(self) -> float:
        """Settled requests per second of observed serving wall time."""
        if self._t_first is None or self._t_last is None:
            return 0.0
        span = self._t_last - self._t_first
        if span <= 0:
            # all settlements landed in one clock tick (tiny smoke runs):
            # report the count rather than an infinite rate
            return float(self.served)
        return self.served / span

    def batch_histogram(self) -> Dict[str, int]:
        """``{batch_size: count-of-requests}`` with string keys (JSON)."""
        hist = Counter(self.batch_sizes)
        return {str(k): int(v) for k, v in sorted(hist.items())}

    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return float(np.mean(self.batch_sizes))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready summary of everything recorded so far."""
        out: Dict[str, Any] = {
            "served": self.served,
            "batches": self.batches,
            "throughput_rps": self.throughput_rps(),
            "latency_ms": percentiles(self.latency_ms),
            "queue_ms": percentiles(self.queue_ms),
            "service_ms": percentiles(self.service_ms),
            "batch_size_mean": self.mean_batch_size(),
            "batch_size_hist": self.batch_histogram(),
            "outcomes": {k: int(self.outcomes.get(k, 0)) for k in OUTCOMES},
        }
        if self.session_records:
            calls = self.session_records
            out["session_calls"] = {
                "count": len(calls),
                "wall_ms": percentiles([r["wall_ms"] for r in calls]),
                "outcomes": dict(
                    Counter(r.get("outcome", "ok") for r in calls)
                ),
                "retries": int(sum(r.get("retries", 0) for r in calls)),
            }
        return out
