"""Graph Attention Network forward pass (paper §VI-E).

A GAT layer replaces the GNN adjacency ``S`` with attention weights

    S' = softmax_row( LeakyReLU( S * (A_GAT) ) ),
    (A_GAT)_ij = a^T (H_i || H_j) = <a_L, H_i> + <a_R, H_j>,

then aggregates ``out = sigma(S' @ H)``.  The paper's observation: the
sampled computation of ``A_GAT`` has the *identical communication pattern*
to an SDDMM (only the local per-edge function changes), and aggregation is
an SpMMA — so a GAT forward pass is a FusedMM workload interrupted by the
edge softmax.  That softmax is also why the paper excludes the local
kernel fusion strategy for GATs: rows must be normalized between the
SDDMM and the SpMM, so the two local kernels cannot be fused.

This implementation runs on the 1.5D dense-shifting algorithm.  Both
variants are rank-side procedures on **one** resident session
(:func:`repro.plan`): the adjacency is distributed once, cached across
forward passes / training epochs (re-invoking the layer never re-ships
the graph, re-spawns a rank or rebuilds a context), and the session owns
the worker pool, the profiles and the kernel backend.

* ``Elision.NONE`` — each head is a single
  :meth:`~repro.session.Session.run_rank` dispatch: an SDDMM kernel
  (custom edge op), the edge softmax — one all-reduce of per-row
  ``(max, scaled sum)`` records along the fiber, measured as OTHER-phase
  communication — and an SpMMA aggregation directly on the normalized
  scores.  No edge values round-trip through the driver between the
  kernels;
* ``Elision.REPLICATION_REUSE`` — one dispatch for the whole forward
  pass, on the session's resident *transposed* adjacency: one all-gather
  of the node features serves both the score round and the aggregation
  round *of every head* (the aggregation accumulates into the circulating
  buffer — no terminal reduce-scatter), with each head's softmax
  all-reduce running along the layer between the rounds.  This
  cross-round, cross-head communication elision cannot be expressed as
  independent per-kernel session calls, which is exactly why the paper
  treats it as its own strategy.

Either way the data moves only through the family: its ``replicate``
and its ``rank_kernel`` rounds (SDDMM with the GAT edge op, SpMMA or
SpMMB on the softmaxed scores).  This module composes them and adds
only the edge softmax's all-reduce.

Multi-head attention concatenates per-head outputs, each with its own
``W``, ``a_L``, ``a_R`` (random weights — the paper benchmarks the
forward-pass workload, not training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import TAG_APP, frozen
from repro.errors import ReproError
from repro.kernels.sddmm import GatScoreOp
from repro.runtime.profile import RunReport
from repro.serve.model import ServeModel
from repro.serve.request import GatEdgeScoreRequest, Request
from repro.session import Session, plan
from repro.sparse.coo import CooMatrix
from repro.types import Elision, Mode, Phase


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


@dataclass
class GatHead:
    """Parameters of one attention head."""

    W: np.ndarray  # (r_in, r_head)
    a_left: np.ndarray  # (r_head,)
    a_right: np.ndarray  # (r_head,)


def make_heads(
    n_heads: int, r_in: int, r_head: int, seed: int = 0
) -> List[GatHead]:
    """Random head parameters (Glorot-ish scale)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(r_in)
    return [
        GatHead(
            W=rng.standard_normal((r_in, r_head)) * scale,
            a_left=rng.standard_normal(r_head) * scale,
            a_right=rng.standard_normal(r_head) * scale,
        )
        for _ in range(n_heads)
    ]


@dataclass
class GatResult:
    output: np.ndarray  # (n, n_heads * r_head)
    report: RunReport


def gat_forward_reference(
    S: CooMatrix,
    X: np.ndarray,
    heads: List[GatHead],
    negative_slope: float = 0.2,
    apply_elu: bool = True,
) -> np.ndarray:
    """Serial reference GAT forward pass (ground truth for tests)."""
    outs = []
    for h in heads:
        H = X @ h.W
        uL = H @ h.a_left
        uR = H @ h.a_right
        e = leaky_relu(uL[S.rows] + uR[S.cols], negative_slope)
        # row softmax over the nonzeros
        rowmax = np.full(S.nrows, -np.inf)
        np.maximum.at(rowmax, S.rows, e)
        ex = np.exp(e - np.where(np.isfinite(rowmax), rowmax, 0.0)[S.rows])
        rowsum = np.zeros(S.nrows)
        np.add.at(rowsum, S.rows, ex)
        attn = ex / rowsum[S.rows]
        agg = S.with_values(attn).to_scipy() @ H
        outs.append(elu(agg) if apply_elu else agg)
    return np.concatenate(outs, axis=1)


def _lse_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two ``(segments, 2)`` arrays of softmax records ``(max, sum of
    exp(e - max))``: the larger max, both sums rescaled to it.  An empty
    segment's record ``(-inf, 0)`` merges as the identity, without NaN."""
    top = np.maximum(a[:, 0], b[:, 0])
    ref = np.where(np.isfinite(top), top, 0.0)
    total = a[:, 1] * np.exp(a[:, 0] - ref) + b[:, 1] * np.exp(b[:, 0] - ref)
    return np.stack((top, total), axis=1)


def _edge_softmax(comm, scores: Dict[int, np.ndarray], seg, width: int) -> None:
    """Softmax the edge ``scores`` in place over the rows of ``S``.

    ``scores[j]`` holds one sparse block's edge scores and ``seg[j]`` the
    softmax segment (row of ``S``) of each, numbered ``0..width`` alike on
    every rank of ``comm`` — the ranks that between them hold a
    segment's edges.  Each rank exponentiates against its own segment
    maxima, then **one** all-reduce of per-segment ``(max, scaled sum)``
    records, merged by :func:`_lse_merge`, gives every rank each segment's
    max and sum, and a per-segment factor rescales the local exponentials.
    """
    smax = np.full(width, -np.inf)
    for j, e in scores.items():
        np.maximum.at(smax, seg[j], e)
    ref = np.where(np.isfinite(smax), smax, 0.0)
    ssum = np.zeros(width)
    for j, e in scores.items():
        scores[j] = np.exp(e - ref[seg[j]])
        np.add.at(ssum, seg[j], scores[j])
    total = comm.allreduce(np.stack((smax, ssum), axis=1), tag=TAG_APP, op=_lse_merge)
    # exp(local max - segment max) / segment sum: 0 on segments this rank
    # holds no edge of, and no 0 / 0 on segments no rank does
    top, norm = total[:, 0], total[:, 1]
    scale = np.exp(smax - np.where(np.isfinite(top), top, 0.0))
    scale = scale / np.where(norm > 0, norm, 1.0)
    for j in scores:
        scores[j] = scores[j] * scale[seg[j]]


class DistributedGAT:
    """Distributed multi-head GAT forward pass (see module docstring)."""

    def __init__(
        self,
        p: int,
        c: int = 1,
        n_heads: int = 2,
        r_in: int = 32,
        r_head: int = 16,
        elision: Elision = Elision.REPLICATION_REUSE,
        negative_slope: float = 0.2,
        apply_elu: bool = True,
        kernels: str = "numpy",
        seed: int = 0,
    ) -> None:
        if elision == Elision.LOCAL_KERNEL_FUSION:
            raise ReproError(
                "local kernel fusion is incompatible with edge softmax (paper §VI-E)"
            )
        self.p, self.c = p, c
        self.elision = elision
        self.negative_slope = negative_slope
        self.apply_elu = apply_elu
        self.heads = make_heads(n_heads, r_in, r_head, seed)
        self.r_in = r_in
        self.r_head = r_head
        self.kernels = kernels
        # the resident adjacency session both variants run on, cached
        # across forward passes (training epochs)
        self._sess: Optional[Session] = None

    # ------------------------------------------------------------------

    def forward(self, S_adj: CooMatrix, X: np.ndarray) -> GatResult:
        """Run the forward pass on adjacency ``S_adj`` (square) and node
        features ``X``; returns the concatenated head outputs.

        Outside the FusedMM rounds each head makes one all-reduce, its
        edge softmax's (:func:`_edge_softmax`): along the fiber under
        ``Elision.NONE``, along the layer under replication reuse, in the
        report's OTHER phase either way."""
        n = S_adj.nrows
        if S_adj.ncols != n:
            raise ReproError("GAT needs a square adjacency matrix")
        if X.shape != (n, self.r_in):
            raise ReproError(f"X shape {X.shape} != ({n}, {self.r_in})")
        sess = self._session(S_adj)
        sess.reset_profile()
        if self.elision == Elision.NONE:
            output = self._forward_none(sess, X)
        else:
            output = self._forward_reuse(sess, X)
        return GatResult(
            output=output, report=sess.report(f"gat/{self.elision.value}")
        )

    def _session(self, S_adj: CooMatrix) -> Session:
        """The resident adjacency session, re-planned only when the graph
        structure changes (epochs over a fixed graph re-use it)."""
        sess = self._sess
        if sess is not None and not sess.closed and sess.S.same_structure(S_adj):
            return sess
        self.close()
        self._sess = plan(
            S_adj, self.r_head, p=self.p, c=self.c,
            algorithm="1.5d-dense-shift", elision=Elision.NONE,
            kernels=self.kernels,
        )
        return self._sess

    def close(self) -> None:
        """Release the cached session (worker pool, resident adjacency).
        Idempotent; a later :meth:`forward` plans a fresh one."""
        if self._sess is not None:
            self._sess.close()
            self._sess = None

    def __enter__(self) -> "DistributedGAT":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- variant 1: kernel sequence per head -------------------------------

    def _forward_none(self, sess: Session, X: np.ndarray) -> np.ndarray:
        """One pool dispatch per head: SDDMM scores, **rank-side** edge
        softmax (one fiber all-reduce of per-row max and scaled sum,
        measured as OTHER-phase communication — the paper's
        "communication outside FusedMM"), then SpMMA aggregation on the
        normalized scores.  No edge values travel through the driver
        between the two kernels.
        """
        slope = self.negative_slope
        alg = sess.alg
        outs: List[np.ndarray] = []
        for head in self.heads:
            H = X @ head.W

            # structured edge op: compiled backends fuse the whole score
            # computation into one jitted pass (see GatScoreOp)
            edge_op = GatScoreOp(head.a_left, head.a_right, slope)

            def head_body(ctx, plan, local, edge_op=edge_op):
                prof = ctx.comm.profile
                # 1) attention scores: SDDMM with the custom edge function
                alg.rank_kernel(
                    ctx, plan, local, Mode.SDDMM, use_values=False, edge_op=edge_op
                )
                # 2) edge softmax over S rows: a coarse row block is spread
                # over the fiber, so the (max, sum) all-reduce runs there
                with prof.track(Phase.OTHER):
                    u = ctx.u
                    width = int(plan.row_coarse[u + 1] - plan.row_coarse[u])
                    seg = {j: blk.rows for j, blk in local.S.items()}
                    _edge_softmax(ctx.fiber, local.R, seg, width)
                # 3) aggregation: SpMMA directly on the normalized scores
                # (no driver gather / update_values round trip)
                alg.rank_kernel(ctx, plan, local, Mode.SPMM_A, use_r_values=True)

            agg, _ = sess.run_rank(head_body, H, H, collect="a", label="gat/none/head")
            outs.append(elu(agg) if self.apply_elu else agg)
        return np.concatenate(outs, axis=1)

    # -- variant 2: replication reuse on the transposed adjacency ---------

    def _forward_reuse(self, sess: Session, X: np.ndarray) -> np.ndarray:
        """One pool dispatch for the whole forward pass, on the session's
        transposed adjacency: rows of ``S`` (the softmax axis) are columns
        there, block rows are ``j`` (the ``a_R`` side) and block columns
        ``i`` (the ``a_L`` side).

        The node features bind as the A blocks and the family's
        ``replicate`` gathers them once: ``(c − 1)·(n/p)·r_in`` words in
        ``c − 1`` messages per rank.  Each head derives its coarse ``H``
        panel from that gather and binds its own ``H`` block as the
        circulating B block.  It then runs the family's SDDMM round (edge
        op :class:`GatScoreOp`, ``p/c − 1`` hops: the block is read-only)
        and SpMMB round (``use_r_values``, all ``p/c`` hops of the
        accumulator), both with ``replicated=`` that panel, and the edge
        softmax on ``local.R`` between them.  Per head that is
        ``(2·p/c − 1)·(n/p)·r_head`` PROPAGATION words."""
        alg = sess.alg
        heads, slope, apply_elu = self.heads, self.negative_slope, self.apply_elu
        p, c = self.p, self.c

        def reuse_body(ctx, plan, local):
            prof = ctx.comm.profile
            v = ctx.v
            # the circulating block's rows are the B side's (the i side): the
            # A side's only while S's rows and columns share one order
            X_own = X[alg.dense_index(plan, local, "b")]
            # the family gathers the replicated node features ONCE; per-head
            # panels derive locally (replication reuse across heads and rounds)
            local.A = frozen(X[alg.dense_index(plan, local, "a")])
            T_X = alg.replicate(ctx, plan, local)

            # softmax segments: S rows are columns here, and this rank's
            # column blocks (j % c == v) laid end to end number them
            col_off, width = {}, 0
            for j in range(v, p, c):
                col_off[j] = width
                width += int(plan.col_fine[j + 1] - plan.col_fine[j])
            seg = {j: blk.cols + col_off[j] for j, blk in local.S.items()}
            outs = []

            for head in heads:
                with prof.track(Phase.OTHER):
                    T_H = T_X @ head.W  # coarse panel of H (j-side rows)
                    local.B = frozen(X_own @ head.W)  # circulating (i-side rows)
                    prof.add_flops(2 * (T_X.size + X_own.size) * head.W.shape[1])

                # round 1: scores e_ij = LeakyReLU(<a_L,H_i> + <a_R,H_j>), an
                # SDDMM whose read-only H block skips its hop home
                alg.rank_kernel(
                    ctx, plan, local, Mode.SDDMM, use_values=False,
                    edge_op=GatScoreOp(head.a_right, head.a_left, slope),
                    replicated=T_H,
                )
                # softmax over S rows == columns of the transposed layout:
                # its all-reduce runs across the LAYER (all coarse row blocks)
                with prof.track(Phase.OTHER):
                    _edge_softmax(ctx.layer, local.R, seg, width)
                # round 2: aggregation out_i = sum_j attn_ij H_j, an SpMMB
                # accumulated in the circulating buffer on every hop
                alg.rank_kernel(
                    ctx, plan, local, Mode.SPMM_B, use_r_values=True,
                    replicated=T_H,
                )
                with prof.track(Phase.OTHER):
                    outs.append(elu(local.B) if apply_elu else local.B)
            # the concatenated heads leave through the rank's n-side block
            # (full-width pieces: the collect takes their width)
            local.B = np.concatenate(outs, axis=1)

        return sess.run_rank(
            reuse_body, transpose=True, collect="b", label="gat/reuse"
        )[0]


# ----------------------------------------------------------------------
# serving: batched edge scoring on the resident adjacency
# ----------------------------------------------------------------------


class GatServeModel(ServeModel):
    """GAT edge-scoring serving on the resident adjacency session.

    A batch of node requests becomes one query panel ``Q`` (``n x
    r_head``) whose requested **rows** hold the nodes' projected
    features; a single ``sddmm`` with the GAT edge op::

        score(i, j) = S_ij * LeakyReLU(<Q_i, a_L> + <H_j, a_R>)

    computes every requested node's out-edge scores in one call (``H``
    is the resident projected feature matrix — the attention keys).
    Each edge's score depends only on its own incident rows, so a
    request's scores are bitwise identical batched or alone.  Per-tenant
    edge weights multiply in through ``use_values`` and rebind on the
    shared adjacency structure via ``update_values``.

    Two requests for the *same* node cannot share a panel (one row each)
    — :meth:`admit` defers the duplicate to the next batch.
    """

    def __init__(
        self,
        adjacency: CooMatrix,
        features: np.ndarray,
        head: Optional[GatHead] = None,
        model_id: str = "gat",
        p: int = 4,
        c: int = 1,
        batch_width: int = 16,
        negative_slope: float = 0.2,
        use_values: bool = True,
        tenants: Optional[Dict[str, np.ndarray]] = None,
        deadline_ms: Optional[float] = None,
        retries: int = 0,
        kernels: str = "numpy",
        seed: int = 0,
    ) -> None:
        n = adjacency.nrows
        if adjacency.ncols != n:
            raise ReproError("GAT serving needs a square adjacency matrix")
        self.model_id = model_id
        self.batch_width = int(batch_width)
        self.adjacency = adjacency
        self.p, self.c = p, c
        self.negative_slope = float(negative_slope)
        self.use_values = use_values
        self.deadline_ms = deadline_ms
        self.retries = retries
        self.kernels = kernels
        r_in = features.shape[1]
        if head is None:
            head = make_heads(1, r_in, min(16, r_in), seed)[0]
        self.head = head
        self.r_head = head.W.shape[1]
        #: resident attention keys: every node's projected features
        self.H = np.asarray(features, dtype=np.float64) @ head.W
        self._tenants = dict(tenants or {})
        for tid, vals in self._tenants.items():
            if vals.shape != (adjacency.nnz,):
                raise ReproError(
                    f"tenant {tid!r} edge weights need shape "
                    f"({adjacency.nnz},), got {vals.shape}"
                )
        # canonical COO order is row-sorted: per-node out-edge slices are
        # contiguous and found by binary search at decode time
        self._rows = adjacency.rows

    def make_session(self) -> Session:
        return plan(
            self.adjacency, self.r_head, p=self.p, c=self.c,
            algorithm="1.5d-dense-shift", elision=Elision.NONE,
            deadline_ms=self.deadline_ms, retries=self.retries,
            kernels=self.kernels,
        )

    def tenant_values(self, tenant_id: str) -> Optional[np.ndarray]:
        if tenant_id == "default":
            return self.adjacency.vals
        return self._tenants[tenant_id]

    def admit(self, pending: Sequence[Request], req: Request) -> bool:
        assert isinstance(req, GatEdgeScoreRequest)
        return all(
            not isinstance(other, GatEdgeScoreRequest)
            or other.node != req.node
            for other in pending
        )

    def encode(self, requests: Sequence[Request]) -> np.ndarray:
        panel = np.zeros((self.adjacency.nrows, self.r_head))
        for req in requests:
            assert isinstance(req, GatEdgeScoreRequest)
            if req.features is not None:
                panel[req.node] = (
                    np.asarray(req.features, dtype=np.float64) @ self.head.W
                )
            else:
                panel[req.node] = self.H[req.node]
        return panel

    def dispatch(self, sess: Session, panel: np.ndarray) -> CooMatrix:
        edge_op = GatScoreOp(
            self.head.a_left, self.head.a_right, self.negative_slope
        )
        return sess.sddmm(
            panel, self.H, use_values=self.use_values, edge_op=edge_op
        )[0]

    def decode(self, raw: CooMatrix, requests: Sequence[Request]) -> List:
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        for req in requests:
            assert isinstance(req, GatEdgeScoreRequest)
            lo = int(np.searchsorted(raw.rows, req.node, side="left"))
            hi = int(np.searchsorted(raw.rows, req.node, side="right"))
            results.append((raw.cols[lo:hi].copy(), raw.vals[lo:hi].copy()))
        return results
