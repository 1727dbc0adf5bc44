"""Session fleet: one resident session per model with pipelined dispatch.

A :class:`SessionFleet` owns one resident :class:`~repro.session.Session`
for a single model.  Batches are dispatched with the session's *async*
entry points (``spmm_a_async`` / ``sddmm_async``), and the previous batch
is settled only **after** the next one is launched: the launch path stages
the new panel's dense scatter while the old batch's SPMD ranks are still
computing, so the fleet double-buffers (driver scatter of batch ``k+1``
hidden under batch ``k``'s run).  A second round-robin session per model
was measured slower, closed and open loop, and is not offered.

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
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ReproError
from repro.serve.model import ServeModel
from repro.serve.request import Completion, Envelope, batch_deadline_ms
from repro.session import Session, SessionFuture

__all__ = ["SessionFleet", "Ticket"]


@dataclass
class Ticket:
    """One in-flight batch: its envelopes and the session future."""

    envelopes: List[Envelope]
    future: SessionFuture
    tenant_id: str
    deadline_ms: Optional[float] = None
    settled: bool = field(default=False)


class SessionFleet:
    """The resident session of one model and its in-flight batch."""

    def __init__(
        self,
        model: ServeModel,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> None:
        self.model = model
        self.on_complete = on_complete or (lambda completion: None)
        self.session: Session = model.make_session()
        self._bound_tenant = "default"
        self._ticket: Optional[Ticket] = None
        self._closed = False

    # -- dispatch -------------------------------------------------------

    def dispatch(self, batch: List[Envelope]) -> None:
        """Launch one coalesced batch on the session.

        Any previously in-flight batch is settled *after* the new launch
        (see module docstring), and every settlement is delivered through
        ``on_complete``.
        """
        if self._closed:
            raise ReproError("fleet is closed")
        if not batch:
            return
        prev, self._ticket = self._ticket, None
        now = time.perf_counter()
        for env in batch:
            env.t_dispatch = now
        deadline = batch_deadline_ms(batch, now)

        try:
            ticket = self._launch(batch, deadline)
        except Exception:
            # the raised error belongs to the *previous* in-flight batch
            # (launching waits it out internally): settle it as failed,
            # then give this batch one clean attempt on the recovered
            # session — a predecessor's fault must not poison it
            if prev is not None:
                self._settle(prev)
                prev = None
            try:
                ticket = self._launch(batch, deadline)
            except Exception as exc:  # noqa: BLE001 - terminal for batch
                self._fail_batch(batch, exc)
                return
        self._ticket = ticket
        if prev is not None:
            # already finalized inside the launch's pipeline wait; this
            # just classifies and delivers — it does not block the pipe
            self._settle(prev)

    def _launch(self, batch: List[Envelope], deadline: Optional[float]) -> Ticket:
        sess = self.session
        tenant = batch[0].request.tenant_id
        if tenant != self._bound_tenant:
            vals = self.model.tenant_values(tenant)
            if vals is not None:
                sess.update_values(vals)
            self._bound_tenant = tenant
        sess.set_deadline(deadline)
        panel = self.model.encode([env.request for env in batch])
        future = self.model.dispatch(sess, panel)
        return Ticket(
            envelopes=batch, future=future, tenant_id=tenant, deadline_ms=deadline
        )

    # -- settlement -----------------------------------------------------

    def _settle(self, ticket: Ticket) -> None:
        """Wait the ticket's call, decode, classify and deliver."""
        if ticket.settled:
            return
        ticket.settled = True
        requests = [env.request for env in ticket.envelopes]
        error: Optional[BaseException] = None
        results: List = []
        try:
            raw, _report = ticket.future.result()
            results = self.model.decode(raw, requests)
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
        now = time.perf_counter()
        # the settled future carries its call's own metrics record — failed
        # calls included — with the session's outcome for it
        record = ticket.future.metrics
        batch_outcome, retries = record["outcome"], record["retries"]
        if error is not None and batch_outcome not in ("timeout", "failed"):
            batch_outcome = "failed"  # the call ran; decoding its output raised
        for i, env in enumerate(ticket.envelopes):
            if error is None and env.expired(now):
                outcome = "timeout"
                value = None
                err_msg: Optional[str] = (
                    f"request deadline of {env.request.deadline_ms}ms "
                    "lapsed before settlement"
                )
            else:
                outcome = batch_outcome
                value = results[i] if error is None else None
                err_msg = repr(error) if error is not None else None
            self._deliver(env, outcome, value, err_msg, ticket, now, retries)

    def _fail_batch(self, batch: List[Envelope], exc: BaseException) -> None:
        now = time.perf_counter()
        outcome = Session.failure_outcome(exc)
        ticket = Ticket(
            envelopes=batch, future=None,  # type: ignore[arg-type]
            tenant_id=batch[0].request.tenant_id,
        )
        for env in batch:
            self._deliver(env, outcome, None, repr(exc), ticket, now, 0)

    def _deliver(
        self,
        env: Envelope,
        outcome: str,
        value,
        err_msg: Optional[str],
        ticket: Ticket,
        now: float,
        retries: int,
    ) -> None:
        completion = Completion(
            request=env.request,
            outcome=outcome,
            value=value,
            error=err_msg,
            queue_ms=(env.t_dispatch - env.t_submit) * 1e3,
            service_ms=(now - env.t_dispatch) * 1e3,
            latency_ms=(now - env.t_submit) * 1e3,
            batch_size=len(ticket.envelopes),
            retries=retries,
        )
        env.future._settle(completion)
        self.on_complete(completion)

    # -- draining / lifecycle -------------------------------------------

    def settle_all(self) -> None:
        """Settle the in-flight batch, if any (the fleet goes quiescent)."""
        ticket, self._ticket = self._ticket, None
        if ticket is not None:
            self._settle(ticket)

    def session_metrics(self) -> List[dict]:
        """The session's per-call metrics records.  Finalizes an in-flight
        call, so call on a quiescent fleet (after :meth:`settle_all`)."""
        return self.session.metrics()

    def close(self) -> None:
        """Settle the outstanding batch, then drain and join the session
        (thread-leak gated by its counter-asserted pool join)."""
        if self._closed:
            return
        self.settle_all()
        self.session.close()
        self._closed = True
