"""Deterministic fault injection for the SPMD runtime.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers; this is
the only module that knows what a fault does.  A worker pool handed a
plan arms each rank with :meth:`FaultPlan.rank_view` — a
:class:`RankFaults`, the transport decorator the rank sends through and
the site hook its profiles call (ARCHITECTURE.md, "Robustness").  No
transport or communicator holds a plan, so the plane works over any
backend; unarmed, each site pays one ``is not None`` check.

Supported fault classes (``FaultSpec.action``):

``drop`` / ``delay`` / ``dup``
    Message faults, matched at the *sending* rank by ``(rank, tag, call
    index)``.  ``drop`` accounts the send but never delivers (the
    receiver hangs until a sibling aborts or a ``deadline_ms`` watchdog
    converts the hang into :class:`~repro.errors.SpmdTimeout`);
    ``delay`` sleeps ``delay_s`` before delivering; ``dup`` delivers the
    payload twice (a duplicated wire message).
``crash``
    Raise :class:`~repro.errors.InjectedCrash` on a chosen rank when it
    enters a named phase (``site`` matches the
    :class:`~repro.types.Phase` value) or named algorithm region.
``straggler``
    Sleep ``delay_s`` at a named phase/region on a chosen rank — the
    rank keeps running, its siblings see a stalled peer.
``exhaust``
    Raise :class:`~repro.errors.InjectedExhaustion` from a
    ``BufferPool`` acquisition (simulated allocation failure), matched
    by buffer label.

Determinism: triggers match by per-``(spec, rank)`` call counters, not
wall time, so the same plan on the same program fires at the same
operation every run.  Each spec arms after ``index`` matching events and
fires at most ``times`` times (default once — so a session-level retry
of the same call runs clean); ``times=None`` keeps a fault *sticky*,
which is how the degradation path (retry with conservative knobs that
avoid the faulted tag/region entirely) is exercised.

:meth:`FaultPlan.chaos` derives one deterministic fault from an integer
seed — the CI chaos lane sweeps a fixed seed matrix through it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectedCrash, InjectedExhaustion, ReproError
from repro.runtime.backend import MsgKey, Transport
from repro.runtime.comm import _isolate

#: message-plane actions (matched in RankFaults.deliver)
_MESSAGE_ACTIONS = ("drop", "delay", "dup")
#: site-plane actions (matched at phase entry / named regions / buffers)
_SITE_ACTIONS = ("crash", "straggler", "exhaust")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic trigger.

    ``rank=None`` matches every rank; ``tag=None`` (message actions) /
    ``site=None`` (site actions) matches every tag / phase / region /
    buffer label.  ``index`` skips that many matching events before the
    fault arms; ``times`` bounds how often it fires (``None`` = sticky).
    """

    action: str
    rank: Optional[int] = None
    tag: Optional[int] = None
    site: Optional[str] = None
    index: int = 0
    times: Optional[int] = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _MESSAGE_ACTIONS + _SITE_ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; options: "
                f"{_MESSAGE_ACTIONS + _SITE_ACTIONS}"
            )
        if self.index < 0:
            raise ReproError(f"fault index must be >= 0, got {self.index}")
        if self.times is not None and self.times < 1:
            raise ReproError(f"fault times must be >= 1 or None, got {self.times}")

    def matches_message(self, rank: int, tag: int) -> bool:
        return (
            self.action in _MESSAGE_ACTIONS
            and (self.rank is None or self.rank == rank)
            and (self.tag is None or self.tag == tag)
        )

    def matches_site(self, rank: int, kind: str, name: str) -> bool:
        if self.action not in _SITE_ACTIONS:
            return False
        if self.rank is not None and self.rank != rank:
            return False
        if self.action == "exhaust":
            if kind != "buffer":
                return False
        elif kind == "buffer":
            return False
        return self.site is None or self.site == name


class RankFaults(Transport):
    """One world rank armed with a :class:`FaultPlan`.

    A decorator of the pool's transport that the rank's communicators
    send through: :meth:`deliver` applies the rank's message faults and
    every other member forwards, so deadlines, abort and recovery act on
    the pool's transport.  Called as ``armed(kind, name)``, it is the
    site hook the pool attaches to each item's profile.  Built without a
    transport, it arms the sites only.
    """

    _transport: Optional[Transport] = None  # never recurse in __getattr__

    def __init__(self, plan: "FaultPlan", rank: int, transport=None) -> None:
        self._plan = plan
        self._rank = rank
        self._transport = transport

    def __call__(self, kind: str, name: str) -> None:
        self._plan.on_site(self._rank, kind, name)

    def deliver(self, dest: int, key: MsgKey, payload: Any) -> None:
        # the send was already counted: a dropped message is lost on the
        # wire, and dup's second delivery is its own copy
        spec = self._plan.on_send(self._rank, key[2])
        if spec is not None:
            if spec.action == "drop":
                return
            if spec.action == "delay":
                time.sleep(spec.delay_s)
            elif spec.action == "dup":
                self._transport.deliver(dest, key, payload)
                payload = _isolate(payload)
        self._transport.deliver(dest, key, payload)

    def collect(self, rank: int, key: MsgKey) -> Any:
        return self._transport.collect(rank, key)

    def abort(self) -> None:
        self._transport.abort()

    def reset(self) -> None:
        self._transport.reset()

    def __getattr__(self, name: str) -> Any:
        # nranks, abort_event, blocked, active_profiles: the pool's
        return getattr(self._transport, name)

    @property
    def deadline(self) -> Optional[float]:
        return self._transport.deadline

    @deadline.setter
    def deadline(self, horizon: Optional[float]) -> None:
        self._transport.deadline = horizon


class FaultPlan:
    """A deterministic, seeded set of fault triggers (see module doc).

    Thread safe: per-``(spec, rank)`` match counters and fired counts
    are updated under one lock — the lock is only ever taken by an armed
    rank, so fault-off runs pay nothing.
    """

    def __init__(self, specs: List[FaultSpec], seed: Optional[int] = None) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._matches: Dict[Tuple[int, int], int] = {}
        self._fired: Dict[int, int] = {}
        #: chronological log of fired faults: (rank, action, detail)
        self.fired_log: List[Tuple[int, str, str]] = []

    # -- construction helpers ------------------------------------------

    @classmethod
    def drop_message(cls, tag=None, rank=None, index=0, times=1) -> "FaultPlan":
        """Drop the ``index``-th matching send (receiver never sees it)."""
        return cls([FaultSpec("drop", rank=rank, tag=tag, index=index, times=times)])

    @classmethod
    def delay_message(
        cls, delay_s: float, tag=None, rank=None, index=0, times=1
    ) -> "FaultPlan":
        """Sleep ``delay_s`` before delivering a matching send."""
        return cls(
            [
                FaultSpec(
                    "delay", rank=rank, tag=tag, index=index, times=times,
                    delay_s=delay_s,
                )
            ]
        )

    @classmethod
    def duplicate_message(cls, tag=None, rank=None, index=0, times=1) -> "FaultPlan":
        """Deliver a matching send twice (duplicated wire message)."""
        return cls([FaultSpec("dup", rank=rank, tag=tag, index=index, times=times)])

    @classmethod
    def crash_at(cls, site=None, rank=None, index=0, times=1) -> "FaultPlan":
        """Raise :class:`InjectedCrash` entering a named phase/region."""
        return cls([FaultSpec("crash", rank=rank, site=site, index=index, times=times)])

    @classmethod
    def straggler(
        cls, delay_s: float, site=None, rank=None, index=0, times=1
    ) -> "FaultPlan":
        """Sleep ``delay_s`` entering a named phase/region (stalled peer)."""
        return cls(
            [
                FaultSpec(
                    "straggler", rank=rank, site=site, index=index, times=times,
                    delay_s=delay_s,
                )
            ]
        )

    @classmethod
    def exhaust_buffers(cls, label=None, rank=None, index=0, times=1) -> "FaultPlan":
        """Fail a matching :class:`BufferPool` acquisition."""
        return cls(
            [FaultSpec("exhaust", rank=rank, site=label, index=index, times=times)]
        )

    #: fault classes the CI chaos matrix sweeps (dup is covered by the
    #: transport-level unit tests; it corrupts FIFO channels by design)
    CHAOS_ACTIONS = ("crash", "drop", "straggler")

    @classmethod
    def chaos(
        cls,
        seed: int,
        nranks: int,
        actions: Tuple[str, ...] = CHAOS_ACTIONS,
        index_range: int = 3,
    ) -> "FaultPlan":
        """One deterministic fault derived from ``seed``.

        Picks an action, a target rank and a small call index with
        ``random.Random(seed)`` — the same seed always produces the same
        fault.  ``crash``/``straggler`` target the computation phase (all
        four algorithm families enter it); ``drop`` matches any tag, so
        it lands on whatever the targeted rank sends next.
        """
        rng = random.Random(seed)
        action = actions[rng.randrange(len(actions))]
        rank = rng.randrange(nranks)
        index = rng.randrange(index_range)
        if action == "drop":
            spec = FaultSpec("drop", rank=rank, index=index)
        elif action == "crash":
            spec = FaultSpec("crash", rank=rank, site="computation", index=index)
        elif action == "straggler":
            spec = FaultSpec(
                "straggler", rank=rank, site="computation", index=index,
                delay_s=0.05,
            )
        else:
            spec = FaultSpec(action, rank=rank, index=index)
        return cls([spec], seed=seed)

    def extended(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan firing both plans' specs (counters start fresh)."""
        return FaultPlan(self.specs + other.specs, seed=self.seed)

    # -- rank binding --------------------------------------------------

    def rank_view(self, rank: int, transport=None) -> RankFaults:
        """World rank ``rank`` armed with this plan, over ``transport``."""
        return RankFaults(self, rank, transport)

    # -- trigger machinery ---------------------------------------------

    def _arm(self, spec_id: int, spec: FaultSpec, rank: int) -> bool:
        """Count one matching event; True when the fault fires for it."""
        key = (spec_id, rank)
        with self._lock:
            seen = self._matches.get(key, 0)
            self._matches[key] = seen + 1
            if seen < spec.index:
                return False
            if spec.times is not None and self._fired.get(spec_id, 0) >= spec.times:
                return False
            self._fired[spec_id] = self._fired.get(spec_id, 0) + 1
            return True

    def _log(self, rank: int, action: str, detail: str) -> None:
        with self._lock:
            self.fired_log.append((rank, action, detail))

    def on_send(self, rank: int, tag: int) -> Optional[FaultSpec]:
        """Message-plane hook: the armed spec for this send, if any
        (:meth:`RankFaults.deliver` applies its action)."""
        for i, spec in enumerate(self.specs):
            if spec.matches_message(rank, tag) and self._arm(i, spec, rank):
                self._log(rank, spec.action, f"tag={tag}")
                return spec
        return None

    def on_site(self, rank: int, kind: str, name: str) -> None:
        """Site-plane hook: crash/straggle/exhaust at a named site."""
        for i, spec in enumerate(self.specs):
            if spec.matches_site(rank, kind, name) and self._arm(i, spec, rank):
                self._log(rank, spec.action, f"{kind}={name}")
                if spec.action == "crash":
                    raise InjectedCrash(
                        f"injected crash on rank {rank} at {kind} {name!r}"
                    )
                if spec.action == "exhaust":
                    raise InjectedExhaustion(
                        f"injected buffer-pool exhaustion on rank {rank} "
                        f"acquiring {name!r}"
                    )
                time.sleep(spec.delay_s)  # straggler

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{s.action}(rank={s.rank}, tag={s.tag}, site={s.site}, "
            f"index={s.index}, times={s.times})"
            for s in self.specs
        )
        return f"FaultPlan([{parts}], seed={self.seed})"
