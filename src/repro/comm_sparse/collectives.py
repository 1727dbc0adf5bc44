"""Sparse neighborhood collectives built on the point-to-point layer.

These are the v-suffixed, need-list-driven counterparts of the dense ring
collectives in :mod:`repro.runtime.comm`, over *packed* panels:

==================================  =====================================
collective                          words received per rank
==================================  =====================================
``isparse_allgatherv_packed``       ``sum_k |recv_rows_k| * width_k``
``isparse_reduce_scatterv_packed``  ``sum_k |recv_rows_k| * width_k``
==================================  =====================================

i.e. exactly the rows the rank's resident sparsity structure *needs*
(SpComm3D's observation), instead of the dense ring's ``(P-1)/P * W``.
Messages go directly between neighbors that share nonzeros — at most
``P - 1`` per rank, fewer when need lists are empty — and all traffic is
attributed to the caller's active profiling phase through the ordinary
``send``/``recv`` accounting hooks.

Both endpoints hold the (cached) :class:`~repro.comm_sparse.plan.CommPlan`
for the exchange, so payloads are value-only row blocks; index lists never
travel during iteration.  Sends are buffered (non-blocking) in the thread
backend, so posting every send before draining the receives is
deadlock-free regardless of the neighborhood's shape.  Each collective
returns a waitable :class:`PendingSparseExchange`; ``eager=True`` receives
at post time (the synchronous schedule), so ``post(...).wait()`` is the
blocking form.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.comm_sparse.plan import CommPlan, PackedIndex, PeerExchange
from repro.errors import CommError
from repro.runtime.buffers import BufferPool
from repro.runtime.comm import Communicator, PendingRecv

#: tags reserved for the sparse collectives (distinct from the dense
#: collectives' and algorithms' tag spaces).
TAG_SPARSE_AG = 40
TAG_SPARSE_RS = 41


def _window(buf: np.ndarray, cols: Optional[Tuple[int, int]]) -> np.ndarray:
    return buf if cols is None else buf[:, cols[0] : cols[1]]


def _check(comm: Communicator, plan: CommPlan) -> None:
    if plan.size != comm.size or plan.rank != comm.rank:
        raise CommError(
            f"plan {plan.key!r} built for rank {plan.rank}/{plan.size}, "
            f"used on rank {comm.rank}/{comm.size}"
        )


def _post_sends(
    comm: Communicator, plan: CommPlan, sendbuf: np.ndarray, tag: int
) -> None:
    for px in plan.peers:
        if not len(px.send_rows):
            continue
        window = _window(sendbuf, px.send_cols)
        if window.shape[1] != px.send_width:
            raise CommError(
                f"plan {plan.key!r}: send width {window.shape[1]} != planned "
                f"{px.send_width} for peer {px.peer}"
            )
        # every branch builds a fresh C-ordered block nothing else
        # references, handed over as-is: a whole-panel leg copies its
        # column window; the rest gather their rows — with ``take`` off a
        # full-width buffer (faster than the fancy index on contiguous
        # rows, slower on a strided window, which it first compacts)
        if px.send_whole:
            block = window.copy()
        elif window is sendbuf:
            block = sendbuf.take(px.send_rows, axis=0)
        else:
            block = window[px.send_rows]
        comm.send_owned(px.peer, block, tag)


class PendingSparseExchange:
    """Waitable handle for a posted need-list exchange.

    Created by :func:`isparse_allgatherv_packed` /
    :func:`isparse_reduce_scatterv_packed`: every send leg is already posted
    (sends are buffered), the receive legs are held either as
    :class:`~repro.runtime.comm.PendingRecv` handles (*deferred*: the
    transfer flies behind whatever the caller does before the wait, and
    the hidden part is accounted) or as already-received blocks (*eager*:
    blocking receives at post time, the synchronous schedule), and the
    target panel is :meth:`~repro.runtime.buffers.BufferPool.guard`-ed
    against pooled reuse until the wait.  :meth:`wait` validates and
    places / accumulates the legs in plan order — the same order either
    way, so eager and deferred exchanges are bitwise identical — releases
    the guard and returns the filled target.
    """

    __slots__ = (
        "_plan",
        "_target",
        "_legs",
        "_reduce",
        "_pool",
        "_done",
        "_comm",
        "_post_ts",
    )

    def __init__(
        self,
        comm: Communicator,
        plan: CommPlan,
        target: np.ndarray,
        legs: List[Tuple[PeerExchange, Union[PendingRecv, np.ndarray]]],
        reduce: bool,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self._plan = plan
        self._target = target
        self._legs = legs
        self._reduce = reduce
        self._pool = pool
        self._done = False
        self._comm = comm
        self._post_ts = time.perf_counter()
        if pool is not None:
            pool.guard(target)

    def wait(self) -> np.ndarray:
        if self._done:
            raise CommError(f"exchange {self._plan.key!r} waited more than once")
        self._done = True
        try:
            for px, leg in self._legs:
                block = leg.wait() if isinstance(leg, PendingRecv) else leg
                if block.shape != (len(px.recv_rows), px.recv_width):
                    raise CommError(
                        f"plan {self._plan.key!r}: received {block.shape} from "
                        f"peer {px.peer}, expected "
                        f"({len(px.recv_rows)}, {px.recv_width})"
                    )
                window = _window(self._target, px.recv_cols)
                # a leg the plan knows to be the whole panel moves by slice
                rows = slice(None) if px.recv_whole else px.recv_rows
                if self._reduce:
                    window[rows] += block
                else:
                    window[rows] = block
        finally:
            self._legs = []
            if self._pool is not None:
                self._pool.release(self._target)
            tracer = self._comm.profile.tracer
            if tracer is not None:
                # cat "exchange", not "comm": this is the post->complete
                # *lifetime* of the whole exchange (it ends at the wait,
                # not at arrival), so it must not count toward the
                # overlap-window occupancy the per-leg "comm" async
                # spans measure.
                tracer.async_span(
                    "reduce-exchange" if self._reduce else "gather-exchange",
                    "exchange",
                    self._post_ts,
                    time.perf_counter(),
                )
        return self._target


def _post_exchange(
    comm: Communicator,
    plan: CommPlan,
    sendbuf: np.ndarray,
    target: np.ndarray,
    tag: int,
    reduce: bool,
    pool: Optional[BufferPool],
    eager: bool,
) -> PendingSparseExchange:
    """Post every send leg, then the receive legs — blocking receives
    when ``eager`` (plain ``recv`` accounting: nothing is ever hidden),
    nonblocking handles otherwise."""
    _check(comm, plan)
    _post_sends(comm, plan, sendbuf, tag)
    take = comm.recv if eager else comm.irecv
    legs = [(px, take(px.peer, tag)) for px in plan.peers if len(px.recv_rows)]
    return PendingSparseExchange(comm, plan, target, legs, reduce, pool)


def _check_packed(plan: CommPlan, index: PackedIndex, panel: np.ndarray) -> None:
    if panel.shape[0] != index.size:
        raise CommError(
            f"plan {plan.key!r}: packed panel has {panel.shape[0]} rows, "
            f"index union has {index.size}"
        )


def isparse_allgatherv_packed(
    comm: Communicator,
    plan: CommPlan,
    index: PackedIndex,
    sendbuf: np.ndarray,
    out: np.ndarray,
    tag: int = TAG_SPARSE_AG,
    pool: Optional[BufferPool] = None,
    eager: bool = False,
) -> PendingSparseExchange:
    """Post a need-list all-gather into a *packed* panel.

    ``plan`` must be the :meth:`CommPlan.packed_recv` derivation whose
    ``recv_rows`` are packed positions of ``index``; ``out`` is a
    ``len(union) x width`` panel — no full-height buffer exists on the
    receive side, and because every union row is either locally owned or
    covered by exactly one peer leg, ``out`` may be allocated with
    ``np.empty`` (no zero-fill bandwidth is ever paid).

    Every send leg is posted immediately and a waitable handle returned;
    the caller runs local work (the own-rows copy, a kernel) between post
    and ``wait()``, hiding the exchange behind it unless ``eager``.
    ``out`` must not be read before the wait returns it; pass ``pool`` to
    have the panel guarded against pooled reuse while in flight (the
    double-buffer no-aliasing invariant).
    """
    _check_packed(plan, index, out)
    return _post_exchange(
        comm, plan, sendbuf, out, tag, reduce=False, pool=pool, eager=eager
    )


def isparse_reduce_scatterv_packed(
    comm: Communicator,
    plan: CommPlan,
    index: PackedIndex,
    contrib: np.ndarray,
    base: np.ndarray,
    tag: int = TAG_SPARSE_RS,
    pool: Optional[BufferPool] = None,
    eager: bool = False,
) -> PendingSparseExchange:
    """Post a need-list reduce-scatter out of a *packed* contribution panel.

    ``plan`` must be the :meth:`CommPlan.packed_send` derivation whose
    ``send_rows`` are packed positions of ``index``; ``contrib`` is the
    ``len(union) x width`` partial-output panel holding exactly the rows
    this rank's nonzeros touched; the rows destined to peer ``k``
    (``send_rows_k``, through the optional column window) are shipped to
    ``k``, and contributions arriving from peer ``k`` are added into
    ``base[recv_rows_k]``.  ``base`` stays in the owner's local (unpacked)
    row space and is seeded by the caller with its own contribution, so
    the result equals the dense reduce-scatter on the touched rows;
    ``recv_rows`` are unique per peer by construction, making the
    in-place ``+=`` exact.

    The outgoing contribution legs are posted (and deep-copied) up front,
    so the caller is free to build/seed ``base`` — or reuse ``contrib``
    — before waiting; peer contributions are accumulated into ``base`` in
    plan order at ``wait()``, eager or not.
    """
    _check_packed(plan, index, contrib)
    return _post_exchange(
        comm, plan, contrib, base, tag, reduce=True, pool=pool, eager=eager
    )
