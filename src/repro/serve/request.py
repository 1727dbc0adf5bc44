"""Typed per-user serving requests and their completions.

A request names a *model* (which fleet of resident sessions serves it), a
*tenant* (which per-tenant values are bound onto the model's shared
sparse structure) and an optional end-to-end latency budget.  The two
workloads mirror the paper's applications:

* :class:`AlsTopKRequest` — collaborative-filtering inference: one user
  id in, the user's top-``k`` item scores out, seen interactions masked.
* :class:`GatEdgeScoreRequest` — GAT edge scoring: one node id in, the
  attention scores of the node's out-edges out.

Clients get a :class:`ServeFuture` back from
:meth:`repro.serve.Server.submit` and wait on it for a
:class:`Completion` carrying the value plus the request's observability
record (queue wait, service time, batch size, outcome).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.errors import ReproError

__all__ = [
    "Request",
    "AlsTopKRequest",
    "GatEdgeScoreRequest",
    "Completion",
    "ServeFuture",
    "OUTCOMES",
]

#: every terminal request outcome the stats layer counts.  ``ok`` /
#: ``retried`` / ``degraded`` / ``timeout`` / ``failed`` mirror the
#: session's per-call metrics outcomes (PR 7); ``rejected`` is the
#: admission-control outcome (the request never reached a session).
OUTCOMES = ("ok", "retried", "degraded", "timeout", "failed", "rejected")


@dataclass
class Request:
    """Base serving request.

    ``deadline_ms`` is the request's *end-to-end* budget measured from
    submission: it bounds queue wait plus service time.  The batcher
    propagates the batch's largest remaining budget onto the session's
    ``deadline_ms`` watchdog, and a request whose own budget has lapsed
    by settle time is completed with outcome ``"timeout"`` — without
    poisoning the other requests coalesced into the same batch.
    """

    model_id: str
    tenant_id: str = "default"
    deadline_ms: Optional[float] = None


@dataclass
class AlsTopKRequest(Request):
    """Top-``k`` item recommendation for one user (seen items masked)."""

    user: int = 0
    k: int = 10
    exclude_seen: bool = True


@dataclass
class GatEdgeScoreRequest(Request):
    """Attention scores of one node's out-edges.

    ``features`` optionally carries fresh input features for the node
    (shape ``(r_in,)``); the model projects them through its head.  When
    omitted, the model's resident projected features are used.
    """

    node: int = 0
    features: Optional[np.ndarray] = None


@dataclass
class Completion:
    """Terminal record of one request: value + observability fields."""

    request: Request
    outcome: str
    value: Any = None
    error: Optional[str] = None
    #: time spent waiting for a batch slot (submit -> dispatch), ms
    queue_ms: float = 0.0
    #: time from dispatch to settle (the batch's session call), ms
    service_ms: float = 0.0
    #: end-to-end submit -> settle, ms
    latency_ms: float = 0.0
    #: how many requests shared this request's panel
    batch_size: int = 0
    #: retries the underlying session call used
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome in ("ok", "retried", "degraded")


class ServeFuture:
    """Client-side handle for one submitted request.

    Settled exactly once by the server's dispatch path; ``result()``
    blocks until then.  Unlike a :class:`~repro.session.Session` call,
    waiting on this from any thread is safe — settlement happens on the
    serving side, the client only observes it.
    """

    __slots__ = ("request", "_event", "_completion")

    def __init__(self, request: Request) -> None:
        self.request = request
        self._event = threading.Event()
        self._completion: Optional[Completion] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Completion:
        """Block until the request settles; returns its :class:`Completion`.

        Never raises on a failed request — inspect ``completion.outcome``
        — but does raise :class:`~repro.errors.ReproError` if ``timeout``
        seconds pass without settlement (a driver bug or a dead server,
        not a request-level failure).
        """
        if not self._event.wait(timeout):
            raise ReproError(
                f"request did not settle within {timeout}s — is the server "
                "running (background=True) or being flushed (flush/drain)?"
            )
        assert self._completion is not None
        return self._completion

    def _settle(self, completion: Completion) -> None:
        self._completion = completion
        self._event.set()


@dataclass
class Envelope:
    """A queued request with its server-side timestamps (internal)."""

    request: Request
    future: ServeFuture
    t_submit: float  # perf_counter at admission
    t_dispatch: float = 0.0  # perf_counter when its batch launched

    def remaining_ms(self, now: float) -> Optional[float]:
        """Budget left at ``now`` (None if the request has no deadline)."""
        if self.request.deadline_ms is None:
            return None
        return self.request.deadline_ms - (now - self.t_submit) * 1e3

    def expired(self, now: float) -> bool:
        rem = self.remaining_ms(now)
        return rem is not None and rem <= 0.0


def batch_deadline_ms(envelopes: List[Envelope], now: float) -> Optional[float]:
    """The session-call deadline for one coalesced batch.

    The *largest* remaining per-request budget: the watchdog must not
    kill the batch while any member could still meet its deadline, and
    members whose budgets lapse earlier are individually timed out at
    settle.  ``None`` (no watchdog) if any member is deadline-free.
    """
    worst: Optional[float] = None
    for env in envelopes:
        rem = env.remaining_ms(now)
        if rem is None:
            return None
        worst = rem if worst is None else max(worst, rem)
    if worst is None:
        return None
    # the watchdog rejects non-positive horizons; an already-expired
    # batch still runs (members are classified at settle) on a floor
    return max(worst, 1e-3)
