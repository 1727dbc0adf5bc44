"""Per-rank cost accounting: wall time, traffic and FLOPs per phase.

The paper reports three cost phases for its FusedMM algorithms (Figure 5 /
Figure 9): *replication* (fiber-axis all-gathers and reduce-scatters),
*propagation* (cyclic shifts within a grid layer) and *computation* (local
kernels).  Every distributed algorithm in this library wraps its work in
``with profile.track(Phase.X):`` blocks; the communicator attributes message
and word counts to whichever phase is active on the calling rank.

Two complementary views hang off the same tracked regions: **counters**
(this module) accumulate per-phase totals — seconds, words, messages,
FLOPs — while **spans** (an optional
:class:`~repro.runtime.trace.Tracer` attached to the profile when the
``trace="on"`` knob is set) record each region's begin/end timestamps for
timeline export and occupancy analysis.  Counters are always on and feed
:class:`RunReport`; spans are off by default and cost nothing when off.

Counting convention (matches the paper's analysis): one *word* is one matrix
element or one index, i.e. 8 bytes.  A COO nonzero in flight therefore costs
3 words (row, column, value); a dense block of ``k`` elements costs ``k``
words.  Collective costs follow from the ring implementations in
:mod:`repro.runtime.comm`, which realize the textbook (Chan et al.) costs
the paper assumes: an all-gather over ``c`` ranks of a length-``W`` result
delivers ``(c-1)/c * W`` words to each rank in ``c-1`` messages.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.types import Phase


@dataclass
class PhaseCounters:
    """Accumulated cost of a single phase on a single rank.

    ``seconds`` is wall time spent *inside* the phase's tracked blocks —
    for communication phases that is the time blocked on the transfer.
    ``home_words`` / ``home_messages`` are the hops home this rank's
    read-only ring lanes took without a message where the schedule Table
    III prices ships them (every hop of a ring of two or more ranks, a
    chunk as its whole triple): what the rank would also have received
    on it.
    """

    seconds: float = 0.0
    words_sent: int = 0
    words_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    flops: int = 0
    home_words: int = 0
    home_messages: int = 0

    def merge(self, other: "PhaseCounters") -> None:
        self.seconds += other.seconds
        self.words_sent += other.words_sent
        self.words_received += other.words_received
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.flops += other.flops
        self.home_words += other.home_words
        self.home_messages += other.home_messages


class RankProfile:
    """Mutable cost log owned by one SPMD rank.

    Not thread safe by design: each rank owns exactly one profile and only
    that rank's thread writes to it.
    """

    def __init__(self) -> None:
        self.phase: Phase = Phase.OTHER
        self.counters: Dict[Phase, PhaseCounters] = {p: PhaseCounters() for p in Phase}
        #: high-water mark of resident panel-buffer bytes (gather panels,
        #: partial-output accumulators) reported by the rank's BufferPool
        self.peak_buffer_bytes: int = 0
        #: fiber replications served from the BufferPool's replica memo
        #: (an earlier dispatch's panel of an unchanged source block)
        self.replica_hits: int = 0
        #: optional :class:`repro.runtime.trace.Tracer`; ``None`` (tracing
        #: off) keeps every instrumentation site a single attribute check
        self.tracer = None
        #: optional rank hook ``site(kind, name)`` the worker pool attaches:
        #: ``"phase"`` entry, algorithm ``"region"``, ``"buffer"``
        #: acquisition; ``None`` keeps each site one attribute check
        self.site = None
        #: kernel backend (e.g.
        #: :class:`repro.kernels.backend_numba.NumbaKernels`) attached by
        #: the session; ``None`` runs every local kernel on the numpy one
        self.kernels = None

    @contextmanager
    def track(self, phase: Phase) -> Iterator[None]:
        """Attribute wall time and traffic inside the block to ``phase``.

        Phase entry is a named site (:attr:`site`).
        """
        if self.site is not None:
            self.site("phase", phase.value)
        previous = self.phase
        self.phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.counters[phase].seconds += end - start
            self.phase = previous
            if self.tracer is not None:
                self.tracer.span(phase.value, "phase", start, end)

    # -- hooks used by the communicator and the local kernels ------------

    def on_send(self, words: int) -> None:
        ctr = self.counters[self.phase]
        ctr.words_sent += words
        ctr.messages_sent += 1

    def on_recv(self, words: int) -> None:
        ctr = self.counters[self.phase]
        ctr.words_received += words
        ctr.messages_received += 1

    def on_home_hop(self, words: int) -> None:
        """A read-only ring lane took its home payload instead of the
        ``words``-word message that would have brought it back."""
        ctr = self.counters[self.phase]
        ctr.home_words += words
        ctr.home_messages += 1

    def add_flops(self, flops: int) -> None:
        self.counters[self.phase].flops += flops

    def note_buffer_bytes(self, resident_bytes: int) -> None:
        """Record the current resident panel-buffer footprint; keeps the max."""
        if resident_bytes > self.peak_buffer_bytes:
            self.peak_buffer_bytes = int(resident_bytes)

    # -- cross-process sync (mpi backend) ---------------------------------

    def counter_state(self):
        """Picklable snapshot of the accumulated counters.

        Process backends ship this across rank boundaries (tracers and
        fault views are deliberately excluded — they are local-process
        objects), so every replicated driver holds identical per-rank
        totals after a call.  Restore with :meth:`set_counter_state`.
        """
        return (
            {ph.value: astuple(ctr) for ph, ctr in self.counters.items()},
            self.peak_buffer_bytes,
            self.replica_hits,
        )

    def set_counter_state(self, state) -> None:
        """Overwrite the counters with a :meth:`counter_state` snapshot
        taken by this rank's authoritative process."""
        phase_state, peak, hits = state
        for ph in Phase:
            values = phase_state.get(ph.value)
            if values is not None:
                self.counters[ph] = PhaseCounters(*values)
        self.peak_buffer_bytes = int(peak)
        self.replica_hits = int(hits)

    # -- convenience ------------------------------------------------------

    def total(self) -> PhaseCounters:
        out = PhaseCounters()
        for ctr in self.counters.values():
            out.merge(ctr)
        return out


@dataclass
class RunReport:
    """Aggregated cost report for one distributed run.

    ``per_rank`` holds the individual :class:`RankProfile` objects.  The
    reduction methods implement the paper's convention: *communication cost*
    is the maximum over ranks of time spent sending and receiving, so all
    maxima here are per-rank maxima, not sums.
    """

    per_rank: list = field(default_factory=list)
    label: str = ""
    #: the resolved communication mode of the run ("dense" / "sparse"),
    #: so ``comm="auto"`` decisions are observable from the report
    comm_mode: str = ""
    #: the resolved kernel backend the local kernels ran on ("numpy" /
    #: "numba"), so ``kernels="auto"`` decisions are observable too
    kernel_backend: str = ""

    # -- raw reductions ---------------------------------------------------

    def max_over_ranks(self, phase: Phase, attr: str) -> float:
        """Maximum of one counter attribute over all ranks for ``phase``."""
        if not self.per_rank:
            return 0.0
        return max(getattr(p.counters[phase], attr) for p in self.per_rank)

    def phase_words(self, phase: Phase) -> int:
        """Max words *received* by any rank during ``phase``."""
        return int(self.max_over_ranks(phase, "words_received"))

    def phase_messages(self, phase: Phase) -> int:
        return int(self.max_over_ranks(phase, "messages_received"))

    def phase_seconds(self, phase: Phase) -> float:
        return self.max_over_ranks(phase, "seconds")

    def phase_flops(self, phase: Phase) -> int:
        return int(self.max_over_ranks(phase, "flops"))

    @property
    def comm_words(self) -> int:
        """Max per-rank words received over all communication phases."""
        if not self.per_rank:
            return 0
        return int(
            max(
                p.counters[Phase.REPLICATION].words_received
                + p.counters[Phase.PROPAGATION].words_received
                + p.counters[Phase.OTHER].words_received
                for p in self.per_rank
            )
        )

    @property
    def comm_messages(self) -> int:
        if not self.per_rank:
            return 0
        return int(
            max(
                p.counters[Phase.REPLICATION].messages_received
                + p.counters[Phase.PROPAGATION].messages_received
                + p.counters[Phase.OTHER].messages_received
                for p in self.per_rank
            )
        )

    @property
    def peak_buffer_bytes(self) -> int:
        """Max per-rank panel-buffer high-water mark (memory footprint)."""
        if not self.per_rank:
            return 0
        return int(max(p.peak_buffer_bytes for p in self.per_rank))

    @property
    def compute_seconds(self) -> float:
        return self.phase_seconds(Phase.COMPUTATION)

    _COMM_PHASES = (Phase.REPLICATION, Phase.PROPAGATION, Phase.OTHER)

    @property
    def exposed_comm_seconds(self) -> float:
        """Max per-rank wall time spent *blocked* on communication (every
        transfer is waited where it is posted, so this is all of it)."""
        if not self.per_rank:
            return 0.0
        return max(
            sum(p.counters[ph].seconds for ph in self._COMM_PHASES)
            for p in self.per_rank
        )

    @property
    def flops(self) -> int:
        if not self.per_rank:
            return 0
        return int(max(p.total().flops for p in self.per_rank))

    # -- modeled times -----------------------------------------------------

    def modeled_comm_seconds(
        self, machine, phase: Optional[Phase] = None, table3: bool = False
    ) -> float:
        """alpha-beta time of the communication measured in this run.

        ``machine`` is a :class:`repro.runtime.cost.MachineParams`.  With
        ``phase=None`` all communication phases are included.  With
        ``table3=True`` the hops home the run's read-only lanes skipped
        are priced as if shipped: the every-hop schedule of the paper's
        algorithms, which Table III prices.
        """
        phases: Iterable[Phase]
        if phase is None:
            phases = (Phase.REPLICATION, Phase.PROPAGATION, Phase.OTHER)
        else:
            phases = (phase,)

        def rank_time(p: RankProfile) -> float:
            t = 0.0
            for ph in phases:
                ctr = p.counters[ph]
                messages, words = ctr.messages_received, ctr.words_received
                if table3:
                    messages += ctr.home_messages
                    words += ctr.home_words
                t += machine.alpha * messages
                t += machine.beta * words
            return t

        return max(rank_time(p) for p in self.per_rank)

    def modeled_compute_seconds(self, machine) -> float:
        """gamma time of the FLOPs measured in this run."""
        return max(p.total().flops for p in self.per_rank) * machine.gamma

    def modeled_total_seconds(
        self, machine, measured_compute: bool = False, table3: bool = False
    ) -> float:
        """Total modeled runtime: communication (alpha-beta) + computation.

        With ``measured_compute=True``, wall-clock local-kernel time from
        this process is used instead of ``gamma * flops``; ``table3`` is
        :meth:`modeled_comm_seconds`'.
        """
        compute = (
            self.compute_seconds
            if measured_compute
            else self.modeled_compute_seconds(machine)
        )
        return self.modeled_comm_seconds(machine, table3=table3) + compute

    # -- structured export -------------------------------------------------

    def to_dict(self, per_rank: bool = False) -> Dict[str, object]:
        """Structured metrics record: one JSON-ready dict per run.

        This is the schema benchmarks and serving consumers share instead
        of hand-rolled field sets.  All reductions follow the paper's
        per-rank-maximum convention; ``per_rank=True`` additionally
        inlines the raw per-rank counter tables.
        """
        out: Dict[str, object] = {
            "label": self.label,
            "comm_mode": self.comm_mode,
            "kernel_backend": self.kernel_backend,
            "nranks": len(self.per_rank),
            "phases": {
                ph.value: {
                    "seconds": self.phase_seconds(ph),
                    "words": self.phase_words(ph),
                    "messages": self.phase_messages(ph),
                    "flops": self.phase_flops(ph),
                }
                for ph in Phase
            },
            "comm_words": self.comm_words,
            "comm_messages": self.comm_messages,
            "compute_seconds": self.compute_seconds,
            "exposed_comm_seconds": self.exposed_comm_seconds,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "flops": self.flops,
        }
        if per_rank:
            out["per_rank"] = [
                {
                    "rank": r,
                    "peak_buffer_bytes": p.peak_buffer_bytes,
                    "phases": {
                        ph.value: {
                            "seconds": p.counters[ph].seconds,
                            "words_sent": p.counters[ph].words_sent,
                            "words_received": p.counters[ph].words_received,
                            "messages_sent": p.counters[ph].messages_sent,
                            "messages_received": p.counters[ph].messages_received,
                            "flops": p.counters[ph].flops,
                        }
                        for ph in Phase
                    },
                }
                for r, p in enumerate(self.per_rank)
            ]
        return out

    def to_json(self, per_rank: bool = False, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` serialized with :func:`json.dumps`."""
        return json.dumps(self.to_dict(per_rank=per_rank), indent=indent)

    def summary(self) -> str:
        """Human-readable per-phase summary table."""
        lines = [f"RunReport({self.label or 'unnamed'})"]
        for ph in Phase:
            lines.append(
                f"  {ph.value:<12} time={self.phase_seconds(ph):9.4f}s"
                f" words={self.phase_words(ph):>12d}"
                f" msgs={self.phase_messages(ph):>6d}"
                f" flops={self.phase_flops(ph):>14d}"
            )
        if self.comm_mode:
            lines.append(f"  comm mode    {self.comm_mode}")
        if self.kernel_backend:
            lines.append(f"  kernels      {self.kernel_backend}")
        if self.peak_buffer_bytes:
            lines.append(f"  peak buffers {self.peak_buffer_bytes} bytes/rank")
        return "\n".join(lines)
