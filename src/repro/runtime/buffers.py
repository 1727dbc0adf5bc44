"""Per-rank reusable panel buffers with peak-footprint accounting.

The distributed kernels acquire their large transient panels — gathered
dense strips, partial-output accumulators, circulating pieces — from a
:class:`BufferPool` instead of calling ``np.zeros``/``np.empty`` in the
hot path.  Buffers are keyed by a caller-chosen label and reused across
phases and across repeated kernel invocations (the paper's "5 FusedMM
calls"), so steady-state runs perform no panel allocation at all; a
label's slot is reallocated only when the requested shape changes.

The pool doubles as the memory-footprint probe: every acquisition reports
the pool's total resident bytes to the owning rank's
:class:`~repro.runtime.profile.RankProfile`, whose ``peak_buffer_bytes``
high-water mark is what the benchmarks and the packed-buffer regression
tests assert on.  The metric counts the *locally allocated* panels —
gather targets, partial-output accumulators, circulating-piece seeds —
which all flow through the pool on both communication paths, so peaks
are compared like for like: a full-height ``m x sw`` gather panel versus
its ``len(union) x sw`` packed replacement.  Arrays materialized by the
message layer itself (ring-shift receives re-bind the circulating
reference to a fresh recv copy each phase) are transient per-message
storage and are deliberately outside the metric on every mode.

The pool also owns the rank's **replica memo** (:meth:`replica`): a
fiber-replicated panel built in an earlier dispatch is handed back
without its collective while its source block is the very same object
and nothing has re-acquired its slot since.  It is pool-owned because
both orientations of a session share one pool per rank, so a sibling's
acquisition of the same slot invalidates the memo it would overwrite.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.profile import RankProfile


class BufferPool:
    """Label-keyed ndarray slots owned by a single rank.

    Not thread safe by design (like :class:`RankProfile`): each SPMD rank
    owns exactly one pool and only that rank's thread touches it.
    Acquired buffers stay valid until the same label is acquired again
    with a different shape, which matches the kernels' usage: one buffer
    per logical role per kernel invocation.
    """

    def __init__(self, profile: Optional[RankProfile] = None) -> None:
        self._slots: Dict[str, np.ndarray] = {}
        self._profile = profile
        self._source = None  # live profile provider (e.g. a Communicator)
        # label -> (weakref to the source block, read-only panel, epoch)
        self._replicas: Dict[str, Tuple[weakref.ref, np.ndarray, int]] = {}
        self._epoch = 0  # dispatches seen (advanced by release_all)

    @property
    def profile(self) -> Optional[RankProfile]:
        """The profile footprints are reported to.

        Either a directly assigned :class:`RankProfile` or, after
        :meth:`follow`, whatever profile the followed communicator
        currently carries — so pools inside resident contexts keep
        reporting into the session's *current* accumulation window even
        after ``reset_profile`` swapped the profile objects.
        """
        if self._source is not None:
            return self._source.profile
        return self._profile

    @profile.setter
    def profile(self, profile: Optional[RankProfile]) -> None:
        self._profile = profile
        self._source = None

    def follow(self, source) -> None:
        """Report footprints to ``source.profile`` (read live per use)."""
        self._source = source

    def _acquire(self, label: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        profile = self.profile
        if profile is not None and profile.site is not None:
            profile.site("buffer", label)  # a named site, before any allocation
        buf = self._slots.get(label)
        # the slot is about to be overwritten: a replica it holds is no
        # longer what was gathered
        self._replicas.pop(label, None)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._slots[label] = buf
        else:
            buf.flags.writeable = True  # a stored replica was read-only
        if profile is not None:
            profile.note_buffer_bytes(self.total_bytes)
            if profile.tracer is not None:
                profile.tracer.instant(f"acquire {label}", "buffer")
        return buf

    def empty(self, label: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized buffer — for panels the caller fully overwrites
        (gathers whose need lists provably cover every row)."""
        return self._acquire(label, shape, dtype)

    def zeros(self, label: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A zeroed buffer — for accumulators.  Reuses the slot's memory,
        paying only the fill (no allocation / page-fault churn)."""
        buf = self._acquire(label, shape, dtype)
        buf.fill(0.0)
        return buf

    def take_like(self, label: str, template: np.ndarray) -> np.ndarray:
        """An uninitialized buffer shaped/typed like ``template``, with the
        template's contents copied in (pooled replacement for ``.copy()``)."""
        buf = self._acquire(label, template.shape, template.dtype)
        np.copyto(buf, template)
        return buf

    # -- cross-call replica reuse -----------------------------------------

    def replica(
        self, label: str, source: np.ndarray, gather: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The fiber replica of ``source``: ``gather()``'s panel, or the
        one an *earlier dispatch* stored under ``label``.

        A stored panel is handed back, without running ``gather`` (and so
        without its collective), when its source is the very same object
        as ``source`` and no acquisition of ``label`` has happened since.
        Resident inputs are replaced, never written in place, so the same
        object means the same values.  Within one dispatch nothing hits —
        reuse inside a call is the elision strategy's job.  ``label`` is
        the pool slot ``gather`` fills, or a label nothing acquires for an
        unpooled panel.  The decision is collective-consistent: every rank
        of a fiber rebinds its sources together and advances its epoch
        once per dispatch.
        """
        panel = self.held_replica(label, source)
        if panel is None:
            panel = self.keep_replica(label, source, gather())
        return panel

    def held_replica(self, label: str, source: np.ndarray) -> Optional[np.ndarray]:
        """The :meth:`replica` hit alone: the stored panel, or ``None``.

        A hit reports the pool's resident bytes to the profile exactly as
        an acquisition does, and counts one ``replica_hits``."""
        entry = self._replicas.get(label)
        if entry is None:
            return None
        if entry[2] == self._epoch or entry[0]() is not source:
            del self._replicas[label]  # the caller gathers afresh: free it first
            return None
        profile = self.profile
        if profile is not None:
            profile.replica_hits += 1
            profile.note_buffer_bytes(self.total_bytes)
        return entry[1]

    def keep_replica(
        self, label: str, source: np.ndarray, panel: np.ndarray
    ) -> np.ndarray:
        """Store ``panel`` as ``source``'s replica under ``label``, marked
        read-only (the slot turns writeable again on its next acquisition);
        returns it."""
        panel.flags.writeable = False
        self._replicas[label] = (weakref.ref(source), panel, self._epoch)
        return panel

    def drop_replicas(self) -> None:
        """Forget every stored replica (failure recovery: a fault may have
        left some ranks of a fiber with a replica and others without)."""
        self._replicas.clear()

    def release_all(self) -> None:
        """Mark a work-item boundary (context build / refresh): advances
        the dispatch epoch the replica memo's "earlier dispatch" rule
        reads."""
        self._epoch += 1

    @property
    def total_bytes(self) -> int:
        """Bytes currently resident across all slots."""
        return sum(b.nbytes for b in self._slots.values())

    def clear(self) -> None:
        self._slots.clear()
        self._replicas.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BufferPool(slots={len(self._slots)}, bytes={self.total_bytes})"
