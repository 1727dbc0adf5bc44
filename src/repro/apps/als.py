"""Collaborative filtering with Alternating Least Squares (paper §VI-E).

Factor a sparsely observed matrix ``C ~ A @ B.T`` from observations
``C_obs`` (sparse, with indicator pattern S) by alternately solving the
ridge-regularized normal equations for A and for B.  Following Zhao &
Canny (the paper's reference [1]), each solve runs a *batched* conjugate
gradient over all rows simultaneously, whose matrix-vector queries are
exactly FusedMM calls with the pattern of S:

    (M X)_i = sum_{j in N(i)} <X_i, B_j> B_j + lambda X_i
            = FusedMMA(pattern(S), X, B)_i + lambda X_i

so 10 CG iterations for A and 10 for B cost 20 FusedMM invocations — the
workload of the paper's Figure 9 (left).  The right-hand side
``S @ B`` never runs on its own: the CG's start residual is one more
FusedMM, whose SDDMM leaves ``C_obs − pattern(S) * (X0 Bᵀ)``
(``residual=True``) for its SpMM to multiply::

    r0 = S @ B - M X0 = SpMMA(C_obs - SDDMM(pattern(S), X0, B), B) - lambda X0

so a half-sweep is ``cg_iters + 1`` FusedMMs and nothing else.  That
SDDMM is also the loss of the factors the last sweep left, so a sweep's
loss is read off the next sweep's A half-sweep, and only the last sweep
takes a loss SDDMM.

This driver is built on the session-handle API (:func:`repro.plan`):
it plans **one resident session** on the observations — one worker pool,
``S`` plus its transposed sibling, the reference ``Distributed_Sparse``'s
``S`` / ``ST`` — and passes "with or without the stored values" per
kernel: each start residual subtracts from the observed values, while
every CG matvec and the last loss SDDMM run pattern-only
(``use_values=False``) on the same distribution.  Each half-sweep runs
**rank-side** on the session's resident worker pool: one
:meth:`~repro.session.Session.run_rank` dispatch performs the
``cg_iters + 1`` FusedMMs *and* the CG scalar recurrences on the warm
ranks, so no residual or factor matrix is gathered or re-scattered
inside a half-sweep (the fixed factor is bound once per half-sweep and,
under replication reuse, replicated along the fiber once per half-sweep
instead of once per kernel).  FusedMMB-phase solves transparently run on
the session's transposed sibling distribution (the paper's "two copies
of the sparse matrix, one transposed"), built once on first use.

Two algorithm families are supported, capturing the paper's contrast:

* ``1.5d-dense-shift`` — factor rows are fully local per rank, so the
  CG per-row scalars need no communication at all, and FusedMM uses
  *local kernel fusion* or *replication reuse* (both elisions are
  exercised since the alternating phases need both FusedMMA and
  FusedMMB).
* ``1.5d-sparse-shift`` — the factors are split into r-strips, so the
  CG's per-row dot products are all-reduced across the layer between
  matvecs: one all-reduce of stacked ``(r.r, r.Mr)`` records per
  iteration, ``cg_iters`` per half-sweep (the single-reduction CG of
  Chronopoulos & Gear).  That communication runs rank-side and is
  measured as OTHER-phase traffic in the :class:`RunReport` — the
  paper's Figure 9 "communication outside FusedMM" contrast.  FusedMM uses *replication
  reuse* (local kernel fusion is impossible for this family — paper
  Section IV-B).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import TAG_APP, frozen
from repro.algorithms.fused import native_procedure
from repro.errors import ReproError
from repro.runtime.profile import RunReport
from repro.serve.model import ServeModel
from repro.serve.request import AlsTopKRequest, Request
from repro.session import Session, plan
from repro.sparse.coo import CooMatrix
from repro.types import CommMode, Elision, FusedVariant, Phase

# re-exported for tests/benchmarks that poke the CG directly
__all__ = [
    "AlsResult",
    "DistributedALS",
    "_batched_cg",
    "recommend_topk",
    "AlsServeModel",
]


@dataclass
class AlsResult:
    """Output of a distributed ALS run."""

    A: np.ndarray
    B: np.ndarray
    loss_history: List[float]
    report: RunReport


def _batched_cg(
    r0: np.ndarray,
    matvec: Callable[[np.ndarray], np.ndarray],
    reduce: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    iters: int,
) -> np.ndarray:
    """Conjugate gradients on all rows at once (per-row scalars), in the
    single-reduction form of Chronopoulos & Gear (1989), from the start
    ``x0`` whose residual ``r0 = rhs − M x0`` the caller hands in.

    Each iteration makes one matvec ``w = M r`` and hands ``reduce`` one
    ``(rows, 2)`` array of this caller's row-dot records ``(r.r, r.w)``;
    ``reduce`` returns the complete ones (the identity on full rows, a
    layer all-reduce on r-strips).  The direction ``p`` and ``s = M p``
    follow by recurrence, so ``matvec`` and ``reduce`` are each called
    ``iters`` times: the last iteration stops once ``x`` is updated.  In
    exact arithmetic the iterates are classical CG's.
    """
    x = x0.copy()
    rvec = r0
    pvec, svec = np.zeros_like(rvec), np.zeros_like(rvec)
    gamma = alpha = np.zeros(len(rvec))
    for it in range(iters):
        wvec = matvec(rvec)
        rr, rw = reduce(np.stack((_rowdot(rvec, rvec), _rowdot(rvec, wvec)), axis=1)).T
        beta = _ratio(rr, gamma)
        # rw - beta * rr / alpha_old is p.Mp of the new direction
        alpha = _ratio(rr, rw - beta * _ratio(rr, alpha))
        gamma = rr
        pvec = rvec + beta[:, None] * pvec
        svec = wvec + beta[:, None] * svec
        x = x + alpha[:, None] * pvec
        if it == iters - 1:
            break
        rvec = rvec - alpha[:, None] * svec
    return x


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` where ``b`` is positive, 0 elsewhere (converged or
    all-zero rows)."""
    return np.where(b > 1e-300, a / np.maximum(b, 1e-300), 0.0)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


class DistributedALS:
    """Distributed ALS driver on the session-handle API.

    Parameters
    ----------
    p, c:
        Processor count and replication factor.
    algorithm:
        ``"1.5d-dense-shift"`` or ``"1.5d-sparse-shift"``.
    elision:
        FusedMM strategy for the CG query matvecs.  Dense shift supports
        ``LOCAL_KERNEL_FUSION`` (default) and ``REPLICATION_REUSE``;
        sparse shift supports ``REPLICATION_REUSE``.
    lam:
        Ridge regularization strength.
    cg_iters:
        CG iterations per half-sweep (the paper uses 10 + 10).
    comm:
        Communication mode for the sessions (dense ring collectives by
        default; ``"sparse"``/``"auto"`` enable the need-list path on the
        sparse-shifting family).
    kernels:
        Local-kernel backend for the sessions (``"numpy"`` / ``"numba"``
        / ``"auto"``; see :func:`repro.plan`).
    deadline_ms:
        The session's watchdog (see :func:`repro.plan`): a half-sweep
        whose ranks block longer on a receive fails with
        :class:`~repro.errors.SpmdTimeout` instead of hanging.  There is
        no ``retries=``: a half-sweep is one
        :meth:`~repro.session.Session.run_rank`, which is never re-run.
    """

    def __init__(
        self,
        p: int,
        c: int = 1,
        algorithm: str = "1.5d-dense-shift",
        elision: "Elision | None" = None,
        lam: float = 0.1,
        cg_iters: int = 10,
        comm: "str | CommMode" = CommMode.DENSE,
        kernels: str = "numpy",
        deadline_ms: Optional[float] = None,
    ) -> None:
        if algorithm not in ("1.5d-dense-shift", "1.5d-sparse-shift"):
            raise ReproError(f"ALS supports the 1.5D families, not {algorithm!r}")
        self.p, self.c = p, c
        self.algorithm = algorithm
        if elision is None:
            elision = (
                Elision.LOCAL_KERNEL_FUSION
                if algorithm == "1.5d-dense-shift"
                else Elision.REPLICATION_REUSE
            )
        if algorithm == "1.5d-sparse-shift" and elision != Elision.REPLICATION_REUSE:
            raise ReproError("sparse shift ALS requires replication reuse")
        self.elision = elision
        self.lam = float(lam)
        self.cg_iters = int(cg_iters)
        self.comm = comm
        self.kernels = kernels
        self.deadline_ms = deadline_ms

    # ------------------------------------------------------------------

    def _rank_cg(
        self, sess: Session, variant: FusedVariant, fixed: np.ndarray,
        x0: np.ndarray, loss: bool = False,
    ) -> Tuple[np.ndarray, Optional[float]]:
        """Solve ``(FusedMM(pattern(S), ., fixed) + lam I) x = rhs`` rank-side.

        ``rhs`` is ``S @ fixed`` for FusedMMA (``S.T @ fixed`` for
        FusedMMB) on the observed values, so the start residual is itself
        one FusedMM::

            r0 = rhs - M x0 = SpMM(S - pattern(S) * (x0 fixed^T), fixed) - lam x0

        whose SDDMM leaves the residual values ``R`` (``residual=True``).
        That FusedMM, the ``cg_iters`` fused matvecs and the per-row
        scalar recurrences run in **one** dispatch to the session's warm
        worker pool.  The moving factor occupies the native-output slot of
        the (possibly transposed) resident orientation, the fixed factor
        the other; under replication reuse the fixed factor is gathered
        along the fiber once, and that panel feeds all ``cg_iters + 1``
        FusedMMs.  When a rank's factor block holds only an r-strip
        (sparse-shifting family), each CG iteration all-reduces its
        row-dot records across the layer once, measured as OTHER-phase
        communication.

        Returns ``(x, None)``, or with ``loss=True`` ``(x, sum(R**2))``:
        the squared training error of ``x0`` and ``fixed``.
        """
        lam, iters, alg = self.lam, self.cg_iters, sess.alg
        transpose, native, method = native_procedure(alg, variant, self.elision)
        slot = native.upper()  # the moving factor's slot, which the FusedMM writes
        reuse = self.elision == Elision.REPLICATION_REUSE

        def cg_body(ctx, plan_, local, **kw):  # kw: sparse_plan= under sparse comm
            prof = ctx.comm.profile
            if reuse:
                # replication reuse gathers the operand opposite its
                # output — here the *fixed* factor — along the fiber: one
                # gather serves all cg_iters + 1 FusedMMs of the half-sweep
                kw["replicated"] = alg.replicate(ctx, plan_, local, **kw)
            x0_blk = getattr(local, slot)
            method(ctx, plan_, local, residual=True, **kw)
            r0 = getattr(local, slot) - lam * x0_blk
            # the matvecs overwrite R; the loss collect reads the residual
            resid = copy(local.R)

            def matvec(vblk):
                # bound as a resident block is: read-only, replaced
                setattr(local, slot, frozen(vblk))
                # pattern-only: the normal equations use S's indicator
                method(ctx, plan_, local, use_values=False, **kw)
                return getattr(local, slot) + lam * vblk

            # complete factor rows are rank-local on the dense-shifting
            # family; r-strips (sparse shift) reduce the row-dot records
            # over the layer, whose ranks all own the same row set
            full_rows = x0_blk.shape[1] == sess.r

            def reduce(dots):
                if full_rows:
                    return dots
                with prof.track(Phase.OTHER):
                    return ctx.layer.allreduce(dots, tag=TAG_APP)

            x = _batched_cg(r0, matvec, reduce, x0_blk, iters)
            setattr(local, slot, x)  # the solution stays resident for the collect
            local.R = resid

        x, *R, _ = sess.run_rank(
            cg_body, *((x0, fixed) if native == "a" else (fixed, x0)),
            transpose=transpose, collect=(native, "sddmm") if loss else (native,),
            label=f"als/cg/{variant.value}",
        )
        return x, (float(np.sum(R[0].vals ** 2)) if loss else None)

    def run(
        self,
        C_obs: CooMatrix,
        r: int,
        outer_iters: int = 1,
        seed: int = 0,
        track_loss: bool = True,
    ) -> AlsResult:
        """Run ``outer_iters`` alternating sweeps; returns factors and report.

        Sweep ``k``'s loss ``||C_obs - SDDMM(A, B, pattern)||^2`` is read
        off sweep ``k + 1``'s A half-sweep, whose start residual is exactly
        that; the last sweep's takes one SDDMM after the loop.
        """
        m, n = C_obs.shape
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, r)) * 0.1
        B = rng.standard_normal((n, r)) * 0.1

        loss_history: List[float] = []
        with plan(
            C_obs, r, p=self.p, c=self.c, algorithm=self.algorithm,
            elision=self.elision, comm=self.comm, deadline_ms=self.deadline_ms,
            kernels=self.kernels,
        ) as sess:
            for sweep in range(outer_iters):
                # solve for A with B fixed (matvec = FusedMMA(pattern, X, B)
                # + lam X), then for B with A fixed: each one pool dispatch,
                # on the session's transposed sibling distribution when the
                # elision's native procedure lives on the opposite side
                A, loss = self._rank_cg(
                    sess, FusedVariant.FUSED_A, B, A, loss=track_loss and sweep > 0
                )
                if loss is not None:
                    loss_history.append(loss)
                B, _ = self._rank_cg(sess, FusedVariant.FUSED_B, A, B)

            if track_loss and outer_iters > 0:
                dots, _ = sess.sddmm(A, B, use_values=False)
                loss_history.append(float(np.sum((C_obs.vals - dots.vals) ** 2)))

            report = sess.report()
        report.label = f"als/{self.algorithm}/{self.elision.value}"
        return AlsResult(A=A, B=B, loss_history=loss_history, report=report)


# ----------------------------------------------------------------------
# serving: batched top-k recommendation on the learned factors
# ----------------------------------------------------------------------


def _seen_items(seen: CooMatrix, user: int) -> np.ndarray:
    """The items user ``user`` has interacted with (columns of the
    observation matrix's row).  Canonical COO order is row-sorted, so the
    row is a contiguous slice found by binary search."""
    lo = int(np.searchsorted(seen.rows, user, side="left"))
    hi = int(np.searchsorted(seen.rows, user, side="right"))
    return seen.cols[lo:hi]


def _topk_desc(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` largest entries, descending.

    Deterministic for a given input array (argpartition + stable sort),
    which is what the serving path's bitwise batched-vs-unbatched
    equality rides on.
    """
    n = len(scores)
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if k < n:
        cand = np.argpartition(-scores, k - 1)[:k]
    else:
        cand = np.arange(n)
    order = cand[np.argsort(-scores[cand], kind="stable")]
    return order.astype(np.int64), scores[order]


def recommend_topk(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    users: Sequence[int],
    k: int,
    seen: Optional[CooMatrix] = None,
    exclude_seen: bool = True,
    scores: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched top-``k`` recommendation over the factor product.

    For each user ``u`` the item scores are ``item_factors @
    user_factors[u]``; with ``exclude_seen`` the user's observed
    interactions (rows of ``seen``, the ALS observation matrix) are
    masked to ``-inf`` so only *new* items are recommended.

    ``scores`` optionally supplies a precomputed ``(n_items,
    len(users))`` score panel — the serving path passes the distributed
    ``Session.spmm_a`` output here, so scoring runs on the resident
    item-factor distribution and this function only masks and selects.

    Returns ``(items, vals)``, each ``(len(users), k)`` with ``k``
    clamped to the item count; when masking leaves a user fewer than
    ``k`` unseen items, the tail entries carry ``-inf`` scores.
    """
    users = np.asarray(users, dtype=np.int64)
    n_items = item_factors.shape[0]
    k = min(int(k), n_items)
    if scores is None:
        scores = item_factors @ user_factors[users].T  # (n_items, nu)
    elif scores.shape != (n_items, len(users)):
        raise ReproError(
            f"scores panel has shape {scores.shape}, expected "
            f"({n_items}, {len(users)})"
        )
    items = np.empty((len(users), k), dtype=np.int64)
    vals = np.empty((len(users), k))
    for i, u in enumerate(users):
        col = scores[:, i]
        if exclude_seen and seen is not None:
            col = col.copy()
            col[_seen_items(seen, int(u))] = -np.inf
        items[i], vals[i] = _topk_desc(col, k)
    return items, vals


def _dense_as_coo(F: np.ndarray) -> CooMatrix:
    """A dense factor matrix as a (fully dense) COO operand, in canonical
    row-major order — so per-tenant factors rebind via
    ``Session.update_values(F.ravel())`` on the shared structure."""
    n, d = F.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), d)
    cols = np.tile(np.arange(d, dtype=np.int64), n)
    return CooMatrix(rows, cols, F.ravel(), (n, d), dedupe=False)


class AlsServeModel(ServeModel):
    """Top-k recommendation serving on the resident item-factor matrix.

    The *item factors* are the session's resident sparse operand (the
    batched-sparse-inference framing of Gale et al.): a batch of
    requests becomes one dense panel with one user-factor **column** per
    request, and a single ``spmm_a`` computes every request's full item
    score column at once::

        scores = item_factors (n_items x d)  @  panel (d x batch_width)

    Each output column depends only on its own panel column, so a
    request's scores are bitwise identical whether it rides in a full
    panel or alone — the property ``tests/test_serve.py`` asserts.

    Multi-tenancy: every tenant shares the dense factor *structure*;
    ``tenants`` maps tenant ids to their own item-factor values, rebound
    via ``update_values`` when the fleet switches tenants.
    """

    def __init__(
        self,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
        model_id: str = "als",
        seen: Optional[CooMatrix] = None,
        p: int = 4,
        c: int = 1,
        algorithm: str = "1.5d-dense-shift",
        comm: "str | CommMode" = CommMode.DENSE,
        batch_width: int = 16,
        tenants: Optional[Dict[str, np.ndarray]] = None,
        deadline_ms: Optional[float] = None,
        retries: int = 0,
        kernels: str = "numpy",
    ) -> None:
        self.model_id = model_id
        self.batch_width = int(batch_width)
        self.user_factors = np.asarray(user_factors, dtype=np.float64)
        self.item_factors = np.asarray(item_factors, dtype=np.float64)
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise ReproError("user and item factors must share latent dim")
        self.d = self.user_factors.shape[1]
        self.seen = seen
        self.p, self.c = p, c
        self.algorithm = algorithm
        self.comm = comm
        self.deadline_ms = deadline_ms
        self.retries = retries
        self.kernels = kernels
        self._tenants = dict(tenants or {})
        for tid, F in self._tenants.items():
            if F.shape != self.item_factors.shape:
                raise ReproError(
                    f"tenant {tid!r} item factors {F.shape} != "
                    f"{self.item_factors.shape} (structure is shared)"
                )

    def make_session(self) -> Session:
        return plan(
            _dense_as_coo(self.item_factors), self.batch_width, p=self.p,
            c=self.c, algorithm=self.algorithm, elision=Elision.NONE,
            comm=self.comm, deadline_ms=self.deadline_ms,
            retries=self.retries, kernels=self.kernels,
        )

    def tenant_values(self, tenant_id: str) -> Optional[np.ndarray]:
        if tenant_id == "default":
            return self.item_factors.ravel()
        return self._tenants[tenant_id].ravel()

    def _tenant_factors(self, tenant_id: str) -> np.ndarray:
        if tenant_id == "default":
            return self.item_factors
        return self._tenants[tenant_id]

    def encode(self, requests: Sequence[Request]) -> np.ndarray:
        panel = np.zeros((self.d, self.batch_width))
        for i, req in enumerate(requests):
            assert isinstance(req, AlsTopKRequest)
            panel[:, i] = self.user_factors[req.user]
        return panel

    def dispatch(self, sess: Session, panel: np.ndarray) -> np.ndarray:
        return sess.spmm_a(panel)[0]

    def decode(self, raw: np.ndarray, requests: Sequence[Request]) -> List:
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, req in enumerate(requests):
            assert isinstance(req, AlsTopKRequest)
            items, vals = recommend_topk(
                self.user_factors,
                self._tenant_factors(req.tenant_id),
                [req.user],
                req.k,
                seen=self.seen,
                exclude_seen=req.exclude_seen,
                scores=raw[:, i : i + 1],
            )
            results.append((items[0], vals[0]))
        return results
