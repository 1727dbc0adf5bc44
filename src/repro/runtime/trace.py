"""Per-rank span tracing: Chrome trace-event export and timeline analysis.

The counters in :mod:`repro.runtime.profile` answer *how much* time and
traffic each paper phase cost; they cannot answer *when* — which receive
a rank waited on, or whether it sat idle in the pool queue.  This module
adds the missing time axis:

* :class:`Tracer` — a per-rank ring buffer of timestamped events.  Each
  SPMD rank owns at most one tracer (attached to its
  :class:`~repro.runtime.profile.RankProfile`); when tracing is off the
  attribute is ``None`` and every instrumentation site is a single
  ``is not None`` check, so the untraced hot path stays untaxed.
* :func:`export_chrome_trace` — serializes tracers to Chrome trace-event
  JSON (one "thread" per rank) loadable in Perfetto / ``chrome://tracing``.
* :class:`TimelineStats` — derived occupancy analysis: the per-rank
  idle / compute / exposed-communication split.

Event model: two kinds of tuple events, ``(kind, name, cat, t0, t1)``
with ``perf_counter`` timestamps.

``"span"``
    A closed begin/end interval on the rank's own timeline (phase blocks,
    kernels, queue waits, blocking receives).  Spans are recorded at their
    *end*, so within one tracer they appear in end-time order and properly
    nested spans can be reconstructed by a tail scan (see
    :meth:`RankTimeline.from_events`).
``"inst"``
    A zero-duration marker (sends, buffer acquisitions); ``t1`` is unused.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.types import Phase

Event = Tuple[str, str, str, float, float]

#: default ring-buffer capacity (events per rank); old events are dropped
#: first so a trace always covers the *end* of a run
DEFAULT_CAPACITY = 1 << 16


class Tracer:
    """Low-overhead per-rank event recorder.

    Events live in a bounded :class:`~collections.deque`; once full, the
    oldest events are evicted and counted in :attr:`dropped`.  Recording is
    two timestamp reads plus one tuple append — cheap enough to leave on
    around every tracked region — and the *disabled* path costs nothing at
    all because call sites guard on ``profile.tracer is not None``.

    Not thread safe by design, mirroring :class:`RankProfile`: each rank's
    thread owns its tracer exclusively.
    """

    __slots__ = ("rank", "events", "dropped", "_capacity")

    def __init__(self, rank: int = 0, capacity: int = DEFAULT_CAPACITY) -> None:
        self.rank = rank
        self._capacity = int(capacity)
        self.events: "deque[Event]" = deque(maxlen=self._capacity)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def _append(self, event: Event) -> None:
        if len(self.events) == self._capacity:
            self.dropped += 1
        self.events.append(event)

    def span(self, name: str, cat: str, t0: float, t1: float) -> None:
        """Record a closed interval on this rank's timeline."""
        self._append(("span", name, cat, t0, t1))

    def instant(self, name: str, cat: str, ts: Optional[float] = None) -> None:
        """Record a zero-duration marker."""
        if ts is None:
            ts = time.perf_counter()
        self._append(("inst", name, cat, ts, ts))

    @contextmanager
    def region(self, name: str, cat: str = "region") -> Iterator[None]:
        """Context manager recording the enclosed block as a span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.span(name, cat, t0, time.perf_counter())

    # -- introspection -----------------------------------------------------

    def latest(self, cat: Optional[str] = None) -> Optional[str]:
        """Name of the most recently recorded event (newest first,
        optionally restricted to one category).

        Spans are recorded at their *end*, so for a rank that is blocked
        mid-phase this names the last thing it finished — the
        blocked-state dumps pair it with the profile's still-open phase
        to localize a hang.  Cross-thread reads are safe for this
        diagnostic use (a deque append is atomic under the GIL).
        """
        for kind, name, ecat, _t0, _t1 in reversed(self.events):
            if cat is None or ecat == cat:
                return name
        return None


def _coerce_tracers(source: Any) -> List[Tracer]:
    """Accept a RunReport, a profile/tracer sequence, or a single Tracer."""
    if isinstance(source, Tracer):
        return [source]
    per_rank = getattr(source, "per_rank", None)
    if per_rank is not None:
        source = per_rank
    if not isinstance(source, (list, tuple)):
        raise ReproError(
            "expected a RunReport, a sequence of RankProfile/Tracer, or a Tracer"
        )
    tracers: List[Tracer] = []
    for item in source:
        if isinstance(item, Tracer):
            tracers.append(item)
        else:
            tr = getattr(item, "tracer", None)
            if tr is not None:
                tracers.append(tr)
    return tracers


def export_chrome_trace(
    source: Any, path: Optional[str] = None, label: str = ""
) -> Dict[str, Any]:
    """Serialize traced ranks to a Chrome trace-event JSON document.

    ``source`` is a :class:`~repro.runtime.profile.RunReport` (with traced
    profiles), a sequence of profiles or tracers, or a single tracer.
    Returns the document as a dict; with ``path`` it is also written to
    disk, ready for Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.

    Layout: every rank becomes a thread (``pid`` 0, ``tid`` = rank) with a
    ``thread_name`` metadata record.  Spans become complete events
    (``ph: "X"``) and markers become instant events.
    Timestamps are microseconds relative to the earliest recorded event.
    """
    tracers = _coerce_tracers(source)
    if not tracers:
        raise ReproError(
            "no tracers to export — run with trace='on' (the trace knob on "
            "repro.plan / the Session / the one-shot API)"
        )

    t_zero = min(
        (ev[3] for tr in tracers for ev in tr.events),
        default=0.0,
    )

    def us(ts: float) -> float:
        return round((ts - t_zero) * 1e6, 3)

    events: List[Dict[str, Any]] = []
    for tr in tracers:
        tid = tr.rank
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": f"rank {tid}"},
            }
        )
        for kind, name, cat, t0, t1 in tr.events:
            if kind == "span":
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": cat,
                        "pid": 0,
                        "tid": tid,
                        "ts": us(t0),
                        "dur": round(max(0.0, t1 - t0) * 1e6, 3),
                    }
                )
            else:  # "inst"
                events.append(
                    {
                        "ph": "i",
                        "name": name,
                        "cat": cat,
                        "pid": 0,
                        "tid": tid,
                        "ts": us(t0),
                        "s": "t",
                    }
                )

    doc: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if label:
        doc["otherData"] = {"label": label}
    dropped = sum(tr.dropped for tr in tracers)
    if dropped:
        doc.setdefault("otherData", {})["dropped_events"] = dropped
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc


# ---------------------------------------------------------------------------
# derived timeline analysis
# ---------------------------------------------------------------------------


_COMM_PHASE_NAMES = (
    Phase.REPLICATION.value,
    Phase.PROPAGATION.value,
    Phase.OTHER.value,
)


@dataclass
class RankTimeline:
    """Occupancy decomposition of one rank's traced timeline.

    ``span_seconds`` is the first-to-last extent of the rank's recorded
    events.  The per-category seconds are *self time* of the phase spans
    (a nested computation span does not double-count against the enclosing
    replication span), so ``compute + exposed_comm + other + idle``
    equals ``span_seconds`` up to events outside any phase.
    """

    rank: int
    span_seconds: float
    compute_seconds: float
    exposed_comm_seconds: float
    other_seconds: float
    idle_seconds: float

    @classmethod
    def from_events(cls, rank: int, events: Sequence[Event]) -> "RankTimeline":
        if not events:
            return cls(rank, 0.0, 0.0, 0.0, 0.0, 0.0)

        # Phase spans are recorded at their *end* and are properly nested,
        # so a span's children (if any) are the contiguous tail of the
        # already-seen spans it contains: any earlier pending span that is
        # not contained ended before this one started and can never be a
        # child of a later span either.  One tail scan per span therefore
        # yields exact self times.
        self_time: Dict[str, float] = {}
        pending: List[Tuple[float, float, float]] = []  # (t0, t1, child_time)
        t_min = min(ev[3] for ev in events)
        t_max = max(max(ev[3], ev[4]) for ev in events)

        for kind, name, cat, t0, t1 in events:
            if kind != "span" or cat != "phase":
                continue
            child = 0.0
            while pending and pending[-1][0] >= t0:
                c0, c1, _ = pending.pop()
                child += c1 - c0
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child
            pending.append((t0, t1, child))

        span_seconds = t_max - t_min
        compute = self_time.get(Phase.COMPUTATION.value, 0.0)
        exposed = sum(self_time.get(n, 0.0) for n in _COMM_PHASE_NAMES)
        other = sum(
            v
            for n, v in self_time.items()
            if n != Phase.COMPUTATION.value and n not in _COMM_PHASE_NAMES
        )
        idle = max(0.0, span_seconds - compute - exposed - other)

        return cls(
            rank=rank,
            span_seconds=span_seconds,
            compute_seconds=compute,
            exposed_comm_seconds=exposed,
            other_seconds=other,
            idle_seconds=idle,
        )


@dataclass
class TimelineStats:
    """Occupancy analysis over all traced ranks of a run: the fractions
    of the ranks' summed span time spent computing, blocked on
    communication and idle."""

    per_rank: List[RankTimeline]

    @classmethod
    def from_tracers(cls, tracers: Sequence[Tracer]) -> "TimelineStats":
        return cls(
            per_rank=[RankTimeline.from_events(tr.rank, tr.events) for tr in tracers]
        )

    @classmethod
    def from_report(cls, report: Any) -> "TimelineStats":
        tracers = _coerce_tracers(report)
        if not tracers:
            raise ReproError("report has no traced ranks — run with trace='on'")
        return cls.from_tracers(tracers)

    @property
    def idle_fraction(self) -> float:
        span = sum(r.span_seconds for r in self.per_rank)
        if span <= 0.0:
            return 0.0
        return sum(r.idle_seconds for r in self.per_rank) / span

    @property
    def compute_fraction(self) -> float:
        span = sum(r.span_seconds for r in self.per_rank)
        if span <= 0.0:
            return 0.0
        return sum(r.compute_seconds for r in self.per_rank) / span

    @property
    def exposed_comm_fraction(self) -> float:
        span = sum(r.span_seconds for r in self.per_rank)
        if span <= 0.0:
            return 0.0
        return sum(r.exposed_comm_seconds for r in self.per_rank) / span

    def to_dict(self) -> Dict[str, Any]:
        return {
            "compute_fraction": self.compute_fraction,
            "exposed_comm_fraction": self.exposed_comm_fraction,
            "idle_fraction": self.idle_fraction,
            "per_rank": [
                {
                    "rank": r.rank,
                    "span_seconds": r.span_seconds,
                    "compute_seconds": r.compute_seconds,
                    "exposed_comm_seconds": r.exposed_comm_seconds,
                    "other_seconds": r.other_seconds,
                    "idle_seconds": r.idle_seconds,
                }
                for r in self.per_rank
            ],
        }

    def summary(self) -> str:
        lines = [
            "TimelineStats"
            f" compute={self.compute_fraction:.1%}"
            f" exposed_comm={self.exposed_comm_fraction:.1%}"
            f" idle={self.idle_fraction:.1%}"
        ]
        for r in self.per_rank:
            lines.append(
                f"  rank {r.rank}: span={r.span_seconds:.4f}s"
                f" compute={r.compute_seconds:.4f}s"
                f" exposed={r.exposed_comm_seconds:.4f}s"
                f" idle={r.idle_seconds:.4f}s"
            )
        return "\n".join(lines)
