"""Cached need-list communication plans (the sparse-comm analogue of CSR).

A :class:`CommPlan` describes, for ONE rank on ONE subcommunicator, which
rows of a local buffer travel to / arrive from every peer during a sparse
neighborhood collective.  Plans are computed once per sparse-matrix
structure by :mod:`repro.comm_sparse.planner` and reused across kernel
invocations — the communication analogue of the library caching CSR
structure in :class:`~repro.sparse.coo.SparseBlock` (and of the paper
amortizing sparse-matrix preprocessing across repeated FusedMM calls).
A gather's ``recv_rows`` (a reduction's ``send_rows``) are positions in
the rank's *packed* panel (:class:`PackedIndex`); the other side's rows
index the rank's resident piece.  The planners build every exchange once,
in these coordinates, and a reduction is its gather :meth:`reversed`.
Because both endpoints hold the plan, the per-iteration payloads carry
*values only*: no indices ever travel with the data, so a row of width
``w`` costs exactly ``w`` words on the wire.

Word accounting is exact and static: every :class:`PeerExchange` records
the row width of its leg, so :meth:`CommPlan.recv_words` predicts the
traffic a :class:`~repro.runtime.profile.RankProfile` will measure for the
collective, word for word (tests assert this equality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import CommError


@dataclass(frozen=True)
class PackedIndex:
    """Sorted union of needed rows plus a cached global->packed remap.

    A packed panel holds exactly the rows a rank's resident sparsity
    structure touches, in sorted order; ``lookup`` maps a row id of the
    original (full-height) row space to its position in the packed panel,
    or ``-1`` for rows outside the union.  Built once per sparsity
    structure by the planners and cached with the :class:`CommPlan` it
    accompanies, so neither kernels nor collectives ever re-derive the
    remap — the buffer-compaction analogue of caching CSR structure.
    """

    union: np.ndarray = None  # sorted row ids of the packed panel
    lookup: np.ndarray = None  # (domain,) row id -> packed position or -1

    @classmethod
    def from_rows(cls, rows: np.ndarray, domain: int) -> "PackedIndex":
        return cls.from_union(np.unique(np.asarray(rows, dtype=np.int64)), domain)

    @classmethod
    def from_union(cls, union: np.ndarray, domain: int) -> "PackedIndex":
        """Index over an already sorted, duplicate-free ``union`` (what a
        planner holds after its own ``np.unique``); checked in O(n)."""
        if len(union) and (union[0] < 0 or union[-1] >= domain):
            raise CommError(
                f"packed rows out of domain [0, {domain}): "
                f"[{union[0]}, {union[-1]}]"
            )
        if (union[1:] <= union[:-1]).any():
            raise CommError("packed union must be sorted and duplicate-free")
        lookup = np.full(domain, -1, dtype=np.int64)
        lookup[union] = np.arange(len(union), dtype=np.int64)
        return cls(union=union, lookup=lookup)

    @property
    def size(self) -> int:
        """Height of the packed panel (number of union rows)."""
        return int(len(self.union))

    @property
    def domain(self) -> int:
        """Height of the full panel this index packs."""
        return int(len(self.lookup))

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Packed positions of ``rows``; every row must be in the union."""
        pos = self.lookup[rows]
        if len(pos) and pos.min() < 0:
            bad = np.asarray(rows)[pos < 0][:4]
            raise CommError(f"rows {bad.tolist()} outside the packed union")
        return pos

    def panel_words(self, width: int) -> int:
        """Words of a packed panel of this height and the given width."""
        return self.size * int(width)


@dataclass(frozen=True)
class PeerExchange:
    """One rank <-> peer leg of a sparse neighborhood collective.

    ``send_rows`` index the *send* buffer (restricted to the optional
    ``send_cols`` window); ``recv_rows`` index the *recv* buffer.  A leg
    with no rows in a direction is skipped entirely — no message is sent,
    matching the sparse-collective contract that empty exchanges cost
    neither latency nor bandwidth.

    ``send_whole`` / ``recv_whole`` are set by the planners when the
    leg's rows are the *whole* packed panel in panel order, which the
    collectives then move as one column-window slice instead of a
    fancy-indexed gather / scatter.
    """

    peer: int
    send_rows: np.ndarray
    recv_rows: np.ndarray
    send_width: int
    recv_width: int
    send_cols: Optional[Tuple[int, int]] = None  # column window of the send buffer
    recv_cols: Optional[Tuple[int, int]] = None  # column window of the recv buffer
    send_whole: bool = False  # send_rows == arange(height of the send panel)
    recv_whole: bool = False  # recv_rows == arange(height of the recv panel)

    @property
    def send_words(self) -> int:
        return len(self.send_rows) * self.send_width

    @property
    def recv_words(self) -> int:
        return len(self.recv_rows) * self.recv_width

    def reversed(self) -> "PeerExchange":
        """Swap the send and recv roles (gather plan -> reduction plan)."""
        return PeerExchange(
            peer=self.peer,
            send_rows=self.recv_rows,
            recv_rows=self.send_rows,
            send_width=self.recv_width,
            recv_width=self.send_width,
            send_cols=self.recv_cols,
            recv_cols=self.send_cols,
            send_whole=self.recv_whole,
            recv_whole=self.send_whole,
        )


@dataclass(frozen=True)
class CommPlan:
    """Per-rank need-list plan for one sparse collective on one subcomm.

    ``peers`` lists every other rank of the subcommunicator in a
    deterministic order shared by all members, so paired sends and
    receives always line up without any runtime negotiation.
    """

    key: str  # label, e.g. "15d/fiber-gather"
    size: int  # subcommunicator size
    rank: int  # this rank's position in the subcommunicator
    peers: Tuple[PeerExchange, ...]

    def __post_init__(self) -> None:
        for px in self.peers:
            if px.peer == self.rank or not 0 <= px.peer < self.size:
                raise CommError(
                    f"plan {self.key!r}: peer {px.peer} invalid for rank "
                    f"{self.rank} of {self.size}"
                )

    # -- static traffic prediction ----------------------------------------

    def send_words(self) -> int:
        return sum(px.send_words for px in self.peers)

    def recv_words(self) -> int:
        return sum(px.recv_words for px in self.peers)

    def send_messages(self) -> int:
        return sum(1 for px in self.peers if len(px.send_rows))

    def recv_messages(self) -> int:
        return sum(1 for px in self.peers if len(px.recv_rows))

    def reversed(self, key: Optional[str] = None) -> "CommPlan":
        """The mirror plan: every leg's send and recv roles swapped.

        A need-list *gather* plan reversed is exactly the corresponding
        *reduction* plan (contributions flow back along the same edges),
        so planners build one direction and derive the other.
        """
        return CommPlan(
            key=key if key is not None else self.key + "/reversed",
            size=self.size,
            rank=self.rank,
            peers=tuple(px.reversed() for px in self.peers),
        )


def dense_rows_moved(plans) -> int:
    """Total rows received across a collection of plans (diagnostics)."""
    return sum(sum(len(px.recv_rows) for px in p.peers) for p in plans)
