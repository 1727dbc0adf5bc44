"""Session fleet: one resident session per model, one call per batch.

A :class:`SessionFleet` owns one resident :class:`~repro.session.Session`
for a single model.  Each batch runs as one synchronous session call
(``spmm_a`` / ``sddmm``) and is settled before :meth:`SessionFleet.dispatch`
returns, so every admitted request completes on the batch that carries
it.  A second round-robin session per model was measured slower, closed
and open loop, and is not offered.

Multi-tenancy rides on ``Session.update_values``: all tenants of a model
share one planned sparse *structure* (comm plans and packed indexes stay
valid); when the dispatched batch's tenant differs from the session's
currently-bound tenant, only the values are rebound in place.

Per-request deadlines propagate onto the session's watchdog: the batch's
session call is armed with the largest remaining member budget
(``Session.set_deadline`` → pool watchdog), and members whose own budget
lapsed by settle time are completed with outcome ``"timeout"`` — the
rest of the batch settles normally.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.errors import ReproError
from repro.serve.model import ServeModel
from repro.serve.request import Completion, Envelope, batch_deadline_ms
from repro.session import Session

__all__ = ["SessionFleet"]


class SessionFleet:
    """The resident session of one model."""

    def __init__(
        self,
        model: ServeModel,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> None:
        self.model = model
        self.on_complete = on_complete or (lambda completion: None)
        self.session: Session = model.make_session()
        self._bound_tenant = "default"
        self._closed = False

    def dispatch(self, batch: List[Envelope]) -> None:
        """Run one coalesced batch on the session and deliver every
        member's completion through ``on_complete``."""
        if self._closed:
            raise ReproError("fleet is closed")
        if not batch:
            return
        now = time.perf_counter()
        for env in batch:
            env.t_dispatch = now
        requests = [env.request for env in batch]
        sess = self.session
        try:
            tenant = requests[0].tenant_id
            if tenant != self._bound_tenant:
                vals = self.model.tenant_values(tenant)
                if vals is not None:
                    sess.update_values(vals)
                self._bound_tenant = tenant
            sess.set_deadline(batch_deadline_ms(batch, now))
            raw = self.model.dispatch(sess, self.model.encode(requests))
        except Exception as exc:  # noqa: BLE001 - terminal for the batch
            self._complete(batch, Session.failure_outcome(exc), 0, error=exc)
            return
        # the call's own metrics record carries the session's outcome for it
        record = sess.metrics()[-1]
        try:
            results = self.model.decode(raw, requests)
        except Exception as exc:  # noqa: BLE001 - the call ran; decoding raised
            self._complete(batch, "failed", record["retries"], error=exc)
            return
        self._complete(batch, record["outcome"], record["retries"], results)

    def _complete(
        self,
        batch: List[Envelope],
        outcome: str,
        retries: int,
        results: Optional[List] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Deliver one completion per member: ``results[i]`` under the
        batch ``outcome``, ``"timeout"`` for a member whose own budget
        lapsed, or ``error`` for all."""
        now = time.perf_counter()
        for i, env in enumerate(batch):
            member, value, err_msg = outcome, None, None
            if error is not None:
                err_msg = repr(error)
            elif env.expired(now):
                member = "timeout"
                err_msg = (
                    f"request deadline of {env.request.deadline_ms}ms "
                    "lapsed before settlement"
                )
            else:
                value = results[i]
            completion = Completion(
                request=env.request,
                outcome=member,
                value=value,
                error=err_msg,
                queue_ms=(env.t_dispatch - env.t_submit) * 1e3,
                service_ms=(now - env.t_dispatch) * 1e3,
                latency_ms=(now - env.t_submit) * 1e3,
                batch_size=len(batch),
                retries=retries,
            )
            env.future._settle(completion)
            self.on_complete(completion)

    def session_metrics(self) -> List[dict]:
        """The session's per-call metrics records."""
        return self.session.metrics()

    def close(self) -> None:
        """Drain and join the session (thread-leak gated by its
        counter-asserted pool join)."""
        if self._closed:
            return
        self.session.close()
        self._closed = True
