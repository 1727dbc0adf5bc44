"""The serving front door: ``repro.serve.Server``.

Glues the layers together: typed requests (:mod:`repro.serve.request`)
are admitted into per-model micro-batchers (:mod:`repro.serve.batcher`),
released batches run on each model's resident session
(:mod:`repro.serve.fleet`), and every settlement feeds the stats layer
(:mod:`repro.serve.stats`).

Two driving modes:

* ``background=True`` (production shape): a single dispatcher thread
  owns every session — satisfying the sessions' single-caller contract —
  waking on submissions and coalescing-window expiries.  Clients on any
  number of threads ``submit()`` and wait their
  :class:`~repro.serve.request.ServeFuture`.
* ``background=False`` (deterministic shape, for tests and closed-loop
  benchmarks): nothing runs until the caller invokes :meth:`flush` /
  :meth:`drain`, so batch composition is exactly reproducible.

Example::

    model = AlsServeModel(user_factors, item_factors, seen=C_obs, p=4)
    with Server(model, window_ms=2.0, max_queue=256) as srv:
        fut = srv.submit(AlsTopKRequest(model_id="als", user=7, k=10))
        completion = fut.result(timeout=30)
        items, scores = completion.value
    print(srv.stats()["latency_ms"])   # {'p50': ..., 'p95': ..., 'p99': ...}
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError, ServeOverload
from repro.serve.batcher import MicroBatcher
from repro.serve.fleet import SessionFleet
from repro.serve.model import ServeModel
from repro.serve.request import Completion, Envelope, Request, ServeFuture
from repro.serve.stats import ServeStats

__all__ = ["Server"]


class Server:
    """Micro-batched multi-tenant inference front-end.

    Parameters
    ----------
    models:
        One :class:`~repro.serve.model.ServeModel` or an iterable of them
        (one batcher + one resident session per model id; each batch is
        one synchronous session call).
    window_ms:
        Coalescing window: a pending request waits at most this long for
        batch-mates before its batch is released.
    max_queue:
        Admission bound per model; exceeding it raises
        :class:`~repro.errors.ServeOverload` from :meth:`submit`.
    default_deadline_ms:
        End-to-end budget stamped onto requests that carry none
        (``None`` = no deadline).
    background:
        Start the dispatcher thread (see module docstring).
    """

    def __init__(
        self,
        models: Union[ServeModel, Iterable[ServeModel]],
        window_ms: float = 2.0,
        max_queue: int = 64,
        default_deadline_ms: Optional[float] = None,
        background: bool = True,
    ) -> None:
        if isinstance(models, ServeModel):
            models = [models]
        models = list(models)
        if not models:
            raise ReproError("a server needs at least one model")
        self.default_deadline_ms = default_deadline_ms
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stats = ServeStats()
        self._stats_lock = threading.Lock()
        self._batchers: Dict[str, MicroBatcher] = {}
        self._fleets: Dict[str, SessionFleet] = {}
        for model in models:
            if model.model_id in self._batchers:
                raise ReproError(f"duplicate model id {model.model_id!r}")
            self._batchers[model.model_id] = MicroBatcher(
                model, window_ms=window_ms, max_queue=max_queue
            )
            self._fleets[model.model_id] = SessionFleet(
                model, on_complete=self._on_complete
            )
        self._closed = False
        self._stop = False
        self._flush_requested = False
        self._dispatching = False
        self._thread: Optional[threading.Thread] = None
        if background:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatch", daemon=True
            )
            self._thread.start()

    # -- client side ----------------------------------------------------

    def submit(self, request: Request) -> ServeFuture:
        """Admit one request; returns its :class:`ServeFuture`.

        Raises :class:`~repro.errors.ServeOverload` when the model's
        queue is at capacity (the reject is counted in :meth:`stats`;
        the request was not enqueued).
        """
        if self._closed:
            raise ReproError("server is closed")
        batcher = self._batchers.get(request.model_id)
        if batcher is None:
            raise ReproError(
                f"unknown model {request.model_id!r}; serving "
                f"{sorted(self._batchers)}"
            )
        if request.deadline_ms is None:
            request.deadline_ms = self.default_deadline_ms
        env = Envelope(
            request=request, future=ServeFuture(request),
            t_submit=time.perf_counter(),
        )
        with self._cond:
            try:
                batcher.offer(env)
            except ServeOverload:
                with self._stats_lock:
                    self._stats.record(
                        Completion(request=request, outcome="rejected")
                    )
                raise
            self._cond.notify()
        return env.future

    # -- dispatch (background thread / inline flush) --------------------

    def _on_complete(self, completion: Completion) -> None:
        with self._stats_lock:
            self._stats.record(completion)

    def _take_ready(self, force: bool) -> List[Tuple[str, List[Envelope]]]:
        """Pop every releasable batch (caller holds the lock)."""
        batches: List[Tuple[str, List[Envelope]]] = []
        for mid, batcher in self._batchers.items():
            while len(batcher) and (force or batcher.ready()):
                batch = batcher.take_batch()
                if not batch:
                    break
                batches.append((mid, batch))
        return batches

    def _run_batches(self, batches: List[Tuple[str, List[Envelope]]]) -> None:
        for mid, batch in batches:
            self._fleets[mid].dispatch(batch)
            with self._stats_lock:
                self._stats.record_batch()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop:
                    pending = any(len(b) for b in self._batchers.values())
                    if pending and self._flush_requested:
                        break
                    if any(b.ready() for b in self._batchers.values()):
                        break
                    horizons = [
                        b.next_flush_in_s()
                        for b in self._batchers.values()
                        if len(b)
                    ]
                    self._cond.wait(
                        timeout=min(horizons) if horizons else None
                    )
                batches = self._take_ready(
                    force=self._stop or self._flush_requested
                )
                # flush() waiters need the queues empty AND the kernel
                # calls below finished before they may touch the sessions
                self._dispatching = bool(batches)
                self._cond.notify_all()
                if self._stop and not batches:
                    return
            # kernel calls run outside the lock: submissions keep flowing
            # while a batch executes
            try:
                self._run_batches(batches)
            finally:
                with self._cond:
                    self._dispatching = False
                    self._cond.notify_all()

    def flush(self) -> None:
        """Release every pending request as batches *now*, bypassing the
        coalescing window.  Batches still respect ``batch_width`` and
        tenant/admit compatibility.

        Inline mode (``background=False``) dispatches on the calling
        thread — the deterministic manual clock tick.  Background mode
        asks the dispatcher thread to do it (sessions are single-caller)
        and waits until the queues are empty.
        """
        if self._thread is not None:
            with self._cond:
                self._flush_requested = True
                self._cond.notify_all()
                # wait out both the queues and any batch the dispatcher
                # is currently running: on return every batch has settled
                # and only drain/close touch the sessions, never two
                # threads at once
                while (
                    any(len(b) for b in self._batchers.values())
                    or self._dispatching
                ):
                    self._cond.wait(timeout=0.05)
                self._flush_requested = False
            return
        while True:
            with self._lock:
                batches = self._take_ready(force=True)
            if not batches:
                return
            self._run_batches(batches)

    def drain(self) -> None:
        """Flush: on return every admitted request has a completion and
        the session metrics are folded into :meth:`stats`.  In background
        mode, call only while no new submissions race the drain.
        """
        self.flush()
        self._refresh_session_records()

    def _refresh_session_records(self) -> None:
        records: List[dict] = []
        for mid, fleet in self._fleets.items():
            for rec in fleet.session_metrics():
                records.append({**rec, "model_id": mid})
        with self._stats_lock:
            self._stats.session_records = records

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot (see :class:`~repro.serve.stats.ServeStats`).

        Request-level fields are live; the ``session_calls`` block
        reflects the fleets as of the last :meth:`drain`/:meth:`close`.
        """
        with self._stats_lock:
            return self._stats.snapshot()

    def pending(self) -> int:
        """Requests admitted but not yet dispatched (all models)."""
        with self._lock:
            return sum(len(b) for b in self._batchers.values())

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop the dispatcher, flush everything, and join every
        session's worker pool (thread-leak gated).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            self._thread.join(timeout=60.0)
            if self._thread.is_alive():  # pragma: no cover - watchdog path
                raise ReproError("serve dispatcher failed to stop in 60s")
            self._thread = None
        self.flush()
        for fleet in self._fleets.values():
            fleet.close()
        self._refresh_session_records()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
