"""In-memory span recorder for the benchmark's own boundaries.

One driver thread opens and closes spans, so nesting is a stack.  A span
is (name, start, end, parent, workload id); spans stay in memory and are
written as Chrome trace-event JSON (Perfetto-loadable) when the run ends.
Every timing the benchmark takes goes through :meth:`Recorder.span`, with
the recorder on or off, so the traced and untraced passes run the same
code and differ only in whether the span is kept.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class _Timed:
    """Context manager returned by :meth:`Recorder.span`; ``.ms`` is the
    wall time of the block whether or not the span was recorded."""

    __slots__ = ("_rec", "_name", "_span", "_t0", "ms")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self._rec = rec
        self._name = name
        self._span: Optional[Span] = None
        self.ms = 0.0

    def __enter__(self) -> "_Timed":
        rec = self._rec
        self._t0 = time.perf_counter()
        if rec.enabled:
            parent = rec._stack[-1] if rec._stack else None
            self._span = Span(self._name, self._t0, parent)
            rec._stack.append(len(rec.spans))
            rec.spans.append(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        self.ms = (t1 - self._t0) * 1e3
        if self._span is not None:
            self._span.end = t1
            self._rec._stack.pop()
        return False


class Recorder:
    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str) -> _Timed:
        return _Timed(self, name)

    def self_ms(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out

    def self_ms_by_name(self) -> Dict[str, List[float]]:
        by_name: Dict[str, List[float]] = {}
        for span, self_ms in zip(self.spans, self.self_ms()):
            by_name.setdefault(span.name, []).append(self_ms)
        return by_name

    def well_nested(self) -> bool:
        """Every span closed, and inside the span that caused it."""
        if self._stack:
            return False
        for s in self.spans:
            if s.end < s.start:
                return False
            if s.parent is not None:
                parent = self.spans[s.parent]
                if s.start < parent.start or s.end > parent.end:
                    return False
        return True

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: open in https://ui.perfetto.dev."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.name.split(":", 1)[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"workload": self.workload, "id": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
