"""Sparse neighborhood collectives built on the point-to-point layer.

These are the v-suffixed, need-list-driven counterparts of the dense ring
collectives in :mod:`repro.runtime.comm`, over *packed* panels:

=================================  =====================================
collective                         words received per rank
=================================  =====================================
``sparse_allgatherv_packed``       ``sum_k |recv_rows_k| * width_k``
``sparse_reduce_scatterv_packed``  ``sum_k |recv_rows_k| * width_k``
=================================  =====================================

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
deadlock-free regardless of the neighborhood's shape.  Both collectives
block: they return once every leg has been received and placed /
accumulated, in plan order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.comm_sparse.plan import CommPlan, PackedIndex
from repro.errors import CommError
from repro.runtime.comm import Communicator

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


def _exchange(
    comm: Communicator,
    plan: CommPlan,
    sendbuf: np.ndarray,
    target: np.ndarray,
    tag: int,
    reduce: bool,
) -> np.ndarray:
    """Post every send leg, then receive each leg and place (or, with
    ``reduce``, accumulate) it into ``target`` in plan order."""
    _check(comm, plan)
    _post_sends(comm, plan, sendbuf, tag)
    for px in plan.peers:
        if not len(px.recv_rows):
            continue
        block = comm.recv(px.peer, tag)
        if block.shape != (len(px.recv_rows), px.recv_width):
            raise CommError(
                f"plan {plan.key!r}: received {block.shape} from peer "
                f"{px.peer}, expected ({len(px.recv_rows)}, {px.recv_width})"
            )
        window = _window(target, px.recv_cols)
        # a leg the plan knows to be the whole panel moves by slice
        rows = slice(None) if px.recv_whole else px.recv_rows
        if reduce:
            window[rows] += block
        else:
            window[rows] = block
    return target


def _check_packed(plan: CommPlan, index: PackedIndex, panel: np.ndarray) -> None:
    if panel.shape[0] != index.size:
        raise CommError(
            f"plan {plan.key!r}: packed panel has {panel.shape[0]} rows, "
            f"index union has {index.size}"
        )


def sparse_allgatherv_packed(
    comm: Communicator,
    plan: CommPlan,
    index: PackedIndex,
    sendbuf: np.ndarray,
    out: np.ndarray,
    tag: int = TAG_SPARSE_AG,
) -> np.ndarray:
    """Need-list all-gather into a *packed* panel; returns ``out``.

    ``plan``'s ``recv_rows`` are packed positions of ``index`` (as the
    planners build every gather); ``out`` is a ``len(union) x width``
    panel — no full-height buffer exists on the receive side, and
    because every union row is either locally owned or covered by
    exactly one peer leg, ``out`` may be allocated with ``np.empty``
    (no zero-fill bandwidth is ever paid).  The peer legs
    fill every row the caller's own-rows copy does not.
    """
    _check_packed(plan, index, out)
    return _exchange(comm, plan, sendbuf, out, tag, reduce=False)


def sparse_reduce_scatterv_packed(
    comm: Communicator,
    plan: CommPlan,
    index: PackedIndex,
    contrib: np.ndarray,
    base: np.ndarray,
    tag: int = TAG_SPARSE_RS,
) -> np.ndarray:
    """Need-list reduce-scatter out of a *packed* contribution panel;
    returns ``base``.

    ``plan``'s ``send_rows`` are packed positions of ``index`` (as the
    planners build every reduction); ``contrib`` is the ``len(union) x
    width`` partial-output panel holding exactly the rows
    this rank's nonzeros touched; the rows destined to peer ``k``
    (``send_rows_k``, through the optional column window) are shipped to
    ``k``, and contributions arriving from peer ``k`` are added into
    ``base[recv_rows_k]``.  ``base`` stays in the owner's local (unpacked)
    row space and must already hold the caller's own contribution, so
    the result equals the dense reduce-scatter on the touched rows (own
    rows first, then each peer's in plan order); ``recv_rows`` are unique
    per peer by construction, making the in-place ``+=`` exact.
    """
    _check_packed(plan, index, contrib)
    return _exchange(comm, plan, contrib, base, tag, reduce=True)
