"""Session-handle API: plan/distribute once, run many kernels.

The paper's workloads are iterative — ALS runs 20 FusedMM invocations per
sweep (§VI-E), GAT training re-invokes the same kernels every epoch — so
the expensive driver work (knob resolution, layout planning, COO
partitioning of S, need-list :class:`~repro.comm_sparse.plan.CommPlan`
construction, packed-index remapping) must be paid **once**, not per
call.  :func:`plan` declares the knobs and hands them to
:func:`repro.model.resolve.resolve`, the one place they are checked and
every ``auto`` is decided; the :class:`Session` built from that frozen
answer (:meth:`Session.explain`) builds each resident distribution
exactly once — on the first kernel call that needs it — and then runs
any number of kernels against it:

    >>> import numpy as np, repro
    >>> S = repro.erdos_renyi(4096, 4096, nnz_per_row=8, seed=0)
    >>> A = np.random.default_rng(1).standard_normal((4096, 64))
    >>> B = np.random.default_rng(2).standard_normal((4096, 64))
    >>> with repro.plan(S, r=64, p=8, algorithm="auto", comm="auto") as sess:
    ...     for _ in range(5):                      # e.g. one CG sweep
    ...         out, report = sess.fusedmm_a(A, B)  # S never re-shipped

    Only the *dense* operands are scattered per call (they change every
    iteration); the sparse operand, its comm plans and its packed indexes
    are distributed exactly once per orientation.  Per-call cost reports
    accumulate on the session until :meth:`Session.reset_profile`.

Fused variants whose native procedure lives on the opposite side
(paper Section IV-B: e.g. FusedMMA under replication reuse) transparently
use a *transposed sibling distribution* — built lazily on first use and
then resident, exactly the paper's "storing two copies of the sparse
matrix, one transposed".

For sparsity patterns whose *values* change between calls while the
structure is fixed (GAT attention weights, SDDMM outputs),
:meth:`Session.update_values` rebinds the resident values — no
repartitioning, and the structure-keyed comm-plan caches stay valid.

Applications whose step is more than one kernel (ALS's batched CG, GAT's
edge softmax) hand their own rank procedure to :meth:`Session.run_rank`.
It is a kernel call with the caller's procedure in place of the native
one: the same bind, dispatch, collect and metrics record, without
retries.  The kernel methods and ``run_rank`` share one private call body.

The legacy one-shot functions in :mod:`repro.api` are thin wrappers that
build a throwaway session per call.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.fused import native_procedure
from repro.algorithms.registry import make_algorithm
from repro.errors import ReproError, SessionBusyError, SpmdTimeout
from repro.kernels import get_kernel_backend
from repro.model.resolve import ResolvedPlan, resolve
from repro.runtime.cost import CORI_KNL, MachineParams
from repro.runtime.profile import RankProfile, RunReport
from repro.runtime.spmd import WorkerPool, make_worker_pool, retryable
from repro.runtime.trace import TimelineStats, Tracer, export_chrome_trace
from repro.sparse.coo import CooMatrix
from repro.sparse.stats import layout_permutations, layout_statistics
from repro.types import CommMode, Elision, FusedVariant, Mode, Phase

ElisionLike = Union[str, Elision]
CommLike = Union[str, CommMode]

#: phases whose counters are communication (mirrors RunReport._COMM_PHASES)
_COMM_PHASES = RunReport._COMM_PHASES


def _as_coo(S) -> CooMatrix:
    if isinstance(S, CooMatrix):
        return S
    return CooMatrix.from_scipy(S)


def _bits(X: np.ndarray) -> np.ndarray:
    """``X`` viewed as its elements' bit patterns (a same-itemsize unsigned
    integer view; raw bytes for itemsizes without one), so two such views
    compare equal exactly when the arrays are bitwise equal."""
    size = X.dtype.itemsize
    return X.view(f"u{size}" if size in (1, 2, 4, 8) else f"V{size}")


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    return inv


@dataclass
class _Orientation:
    """One resident distribution of the sparse operand.

    ``transpose=False`` is the operands' own orientation; ``True`` is the
    transposed sibling used by fused variants whose native procedure lives
    on the opposite side (the paper's transposition trick).  ``S_eff`` is
    the orientation in the caller's coordinates (what SDDMM outputs are
    reassembled into); what ``plan`` / ``locals_`` distribute is the
    session's layout of it, with the same nonzero order.

    ``contexts[rank]`` is the rank's resident algorithm context (grid
    subcommunicators, buffer pool) — built by the worker-pool ranks on the
    orientation's first kernel call and reused by every later call, so
    ``make_context`` (with its communicator splits) runs exactly once per
    orientation, not once per kernel call.
    """

    S_eff: CooMatrix
    plan: object
    locals_: List
    sparse_plans: Optional[list]
    contexts: List = None


class Session:
    """Resident distributed state for repeated kernel calls.

    Build via :func:`plan`, which documents every knob and the call
    contract, from the :class:`~repro.model.resolve.ResolvedPlan` it
    resolved them to (:meth:`explain`); every kernel
    method scatters only its dense operands, runs the SPMD kernel on the
    resident sparse distribution, gathers the output and returns
    ``(output, RunReport)``.  Reports accumulate across calls until
    :meth:`reset_profile`.  A call binds only its inputs, and its output
    is transient: once a kernel or :meth:`run_rank` call returns or
    raises, every rank holds the blocks it was dispatched with again, so
    a repeated call on bitwise-unchanged operands scatters nothing
    (:attr:`dense_bind_counts`).

    The session owns a :class:`~repro.runtime.spmd.WorkerPool` for its
    lifetime: ``p`` resident rank threads spawn on the first kernel call
    and every later call dispatches to the warm ranks, whose
    per-orientation algorithm contexts (grid subcommunicators, buffer
    pools) are built exactly once (see :attr:`context_builds`).

    Supports the context-manager protocol: leaving the ``with`` block
    joins the worker pool, releases the per-rank panel-buffer pools and
    drops the resident distributions.
    """

    def __init__(self, S: CooMatrix, resolved: ResolvedPlan) -> None:
        self.S = S
        self.m, self.n = S.shape
        self._resolved = resolved
        # the JSON-ready plan: what __repr__, reports and the per-call
        # metrics records read their constant fields from
        self._plan = plan = resolved.as_dict()
        consts = ("algorithm", "comm_mode", "kernels", "trace")
        self._record_consts = {**{k: plan[k] for k in consts}, "nranks": resolved.p}
        self._alg = alg = make_algorithm(resolved.algorithm, resolved.p, resolved.c)
        self.algorithm, self.p, self.c = alg.name, alg.p, alg.c
        self.r = resolved.r
        #: "natural", or "permuted": every orientation distributes
        #: ``S.permuted(row_perm, col_perm)`` (fixed seed) and the algorithm
        #: composes the inverse permutations into its dense indexes
        self.layout = resolved.layout
        self._perms: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._inverses: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.layout == "permuted":
            self._perms = layout_permutations(self.m, self.n, self.p)
            self._inverses = tuple(_inverse(perm) for perm in self._perms)
        self.elision = resolved.elision
        self.comm_mode = resolved.comm_mode
        self.machine = resolved.machine
        self.phi = resolved.phi
        #: resolved kernel-backend name ("numpy" / "numba"), observable on
        #: reports and per-call metrics
        self.kernels = resolved.kernels
        # plan-time JIT warmup: first-call latency must not be poisoned
        # by compilation
        self._kernel_backend = get_kernel_backend(resolved.kernels).warmup()
        #: always "off": every transfer is waited where it is posted
        #: (``plan(overlap=)`` is accepted and ignored)
        self.overlap_mode = "off"
        # the keywords a kernel call may hand the family's rank_kernel
        self._rank_kernel_keywords = inspect.signature(alg.rank_kernel).parameters
        self.trace_mode = resolved.trace
        #: execution backend: ranks as threads ("threads", the default) or
        #: as mpirun-resident processes ("mpi"); see ARCHITECTURE.md
        self.backend = resolved.backend
        # -- robustness knobs (all off by default: zero hot-path cost) --
        #: per-call watchdog horizon (ms); expiry raises SpmdTimeout with
        #: a per-rank blocked-state dump instead of hanging the driver
        self.deadline_ms = resolved.deadline_ms
        #: runtime-fault re-executions before degradation is considered
        self.retries = resolved.retries
        #: calls that succeeded only on a re-execution / degraded re-run
        self.retried_calls = 0
        self.degraded_calls = 0
        #: resident-distribution builds — the counter the "retry never
        #: re-plans" guarantee is asserted on (stays at one per
        #: orientation no matter how many retries ran)
        self.plan_builds = 0
        self._orients: Dict[bool, _Orientation] = {}
        self._profiles = self._new_profiles()
        self._ncalls = 0  # kernel calls in the current accumulation window
        # per-call structured metrics (always on): one record per kernel
        # call, computed as deltas of rank-summed counters between calls
        self._metrics: List[Dict[str, Any]] = []
        self._last_snapshot = self._counter_snapshot()
        self._closed = False
        self._pool: Optional[WorkerPool] = None
        self._ctx_lock = threading.Lock()
        self._context_builds: Dict[bool, int] = {}
        # skip-rebind: per orientation and side, a private snapshot of the
        # last scattered operand, true for the session's life (bound blocks
        # are read-only and every call puts them back).  ``_bind_miss``
        # counts consecutive snapshot-compare misses — a side that changes
        # on every call retires (None: no compare, no snapshot upkeep).
        self._dense_state: Dict[bool, Dict[str, Optional[np.ndarray]]] = {}
        self._bind_miss: Dict[bool, Dict[str, int]] = {}
        #: actual dense scatters / skipped rebinds per plan side ("a"/"b")
        #: — the counters the skip-rebind guarantee is asserted on
        self.dense_bind_counts: Dict[str, int] = {"a": 0, "b": 0}
        self.dense_bind_skips: Dict[str, int] = {"a": 0, "b": 0}
        # sessions are single-caller by design: every public entry point
        # try-acquires this gate and raises SessionBusyError on genuine
        # concurrency (reentrant, so kernel methods may compose freely on
        # the owning thread)
        self._call_gate = threading.RLock()

    @contextmanager
    def _exclusive(self):
        """Serialize driver-side entry points; typed error on concurrency.

        The gate is a *try*-acquire: a second thread calling into the
        session while a call is in progress gets a
        :class:`~repro.errors.SessionBusyError` immediately instead of
        silently interleaving with the first caller's bind/launch/collect
        sequence (which would corrupt the resident dense blocks and the
        skip-rebind snapshots).  The lock is reentrant, so kernel methods
        may compose on the owning thread (``fusedmm_a`` → ``report``).
        """
        if not self._call_gate.acquire(blocking=False):
            raise SessionBusyError(
                "session is already executing a call on another thread; "
                "sessions are single-caller — serialize callers (e.g. "
                "behind repro.serve.Server) or use one session per thread"
            )
        try:
            yield
        finally:
            self._call_gate.release()

    def set_deadline(self, deadline_ms: Optional[float]) -> None:
        """Update the per-call watchdog horizon for subsequent calls.

        ``None`` disarms the watchdog.  Serving front-ends use this to
        propagate per-request deadline budgets onto each batch's session
        call; the resident worker pool arms the new horizon on its next
        item.
        """
        with self._exclusive():
            if deadline_ms is not None and deadline_ms <= 0:
                raise ReproError(
                    f"deadline_ms must be positive, got {deadline_ms}"
                )
            self.deadline_ms = deadline_ms
            if self._pool is not None:
                self._pool.deadline_ms = deadline_ms

    def _new_profiles(self) -> List[RankProfile]:
        """Fresh per-rank profiles, with tracers attached when tracing."""
        profiles = [RankProfile() for _ in range(self.p)]
        for prof in profiles:
            prof.kernels = self._kernel_backend
        if self.trace_mode == "on":
            for rank, prof in enumerate(profiles):
                prof.tracer = Tracer(rank=rank)
        return profiles

    def _counter_snapshot(self) -> Dict[str, float]:
        """Rank-*summed* counter totals for per-call metric deltas.

        Sums (unlike the report's per-rank maxima) are additive across
        calls, so the difference of two snapshots is exactly what the
        calls in between cost — even when the busiest rank changes."""
        words = msgs = flops = hits = 0
        exposed = compute = 0.0
        for prof in self._profiles:
            for ph in _COMM_PHASES:
                ctr = prof.counters[ph]
                words += ctr.words_received
                msgs += ctr.messages_received
                exposed += ctr.seconds
            compute += prof.counters[Phase.COMPUTATION].seconds
            flops += prof.total().flops
            hits += prof.replica_hits
        return {
            "comm_words": float(words),
            "comm_messages": float(msgs),
            "flops": float(flops),
            "replica_hits": float(hits),
            "exposed_comm_s": exposed,
            "compute_s": compute,
        }

    def _record_call(
        self, label: str, t0: float, outcome: str = "ok", retries: int = 0
    ) -> Dict[str, Any]:
        """Append (and return) one structured metrics record for a
        finished call.

        ``outcome`` is one of ``"ok"`` / ``"retried"`` / ``"degraded"`` /
        ``"timeout"`` / ``"failed"``; failed calls are recorded too (their
        counters cover whatever ran before the fault), so chaos runs leave
        an auditable per-call trail.
        """
        wall_ms = (time.perf_counter() - t0) * 1e3
        snap = self._counter_snapshot()
        prev = self._last_snapshot
        self._last_snapshot = snap
        record = {
            "call": len(self._metrics),
            "label": label,
            "outcome": outcome,
            "retries": retries,
            **self._record_consts,
            "wall_ms": wall_ms,
            "comm_words": int(snap["comm_words"] - prev["comm_words"]),
            "comm_messages": int(snap["comm_messages"] - prev["comm_messages"]),
            "flops": int(snap["flops"] - prev["flops"]),
            "replica_hits": int(snap["replica_hits"] - prev["replica_hits"]),
            "compute_ms": (snap["compute_s"] - prev["compute_s"]) * 1e3,
            "exposed_comm_ms": (snap["exposed_comm_s"] - prev["exposed_comm_s"]) * 1e3,
            # nothing is hidden: every transfer is waited where it is posted
            "hidden_comm_ms": 0.0,
            "peak_buffer_bytes": max(
                (p.peak_buffer_bytes for p in self._profiles), default=0
            ),
        }
        if not self._metrics:
            # record 0 of a window says why it ran the way it did
            record["plan"] = self._plan
        self._metrics.append(record)
        return record

    # ------------------------------------------------------------------
    # resident state
    # ------------------------------------------------------------------

    @property
    def _suffix(self) -> str:
        return "/sparse-comm" if self.comm_mode == CommMode.SPARSE else ""

    def _orientation(self, transpose: bool) -> _Orientation:
        """The resident distribution for one orientation (built once)."""
        ori = self._orients.get(transpose)
        if ori is None:
            self.plan_builds += 1
            alg = self._alg
            S_eff = self.S.transposed() if transpose else self.S
            S_dist = S_eff
            if self._perms is not None:
                S_dist = self.S.permuted(*self._perms)
                S_dist = S_dist.transposed() if transpose else S_dist
            plan = alg.plan(S_dist.nrows, S_dist.ncols, self.r)
            locals_ = alg.distribute_sparse(plan, S_dist)
            if self._inverses is not None:
                rows, cols = self._inverses
                alg.order_rows(plan, *((cols, rows) if transpose else (rows, cols)))
            sparse_plans = (
                alg.build_comm_plans(plan, S_dist)
                if self.comm_mode == CommMode.SPARSE
                else None
            )
            ori = _Orientation(
                S_eff=S_eff, plan=plan, locals_=locals_, sparse_plans=sparse_plans,
                contexts=[None] * self.p,
            )
            self._orients[transpose] = ori
        return ori

    def update_values(self, vals: np.ndarray) -> None:
        """Rebind the resident sparse *values* (structure unchanged).

        ``vals`` follows the planned matrix's nonzero ordering.  All
        resident orientations are updated (each rank's value arrays are
        replaced, never written in place); comm plans and packed
        indexes (structure-keyed) stay valid.
        """
        with self._exclusive():
            self._check_open()
            vals = np.asarray(vals, dtype=np.float64)
            if vals.shape != (self.S.nnz,):
                raise ReproError(
                    f"update_values expects {self.S.nnz} values, "
                    f"got shape {vals.shape}"
                )
            self.S = self.S.with_values(vals)
            for transpose, ori in self._orients.items():
                ori.S_eff = self.S.transposed() if transpose else self.S
                self._alg.update_values(ori.plan, ori.locals_, ori.S_eff.vals)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (read-only)."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("session is closed; build a new one with repro.plan(...)")

    def _check_dense(self, X, name: str, nrows: int) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2 or X.shape != (nrows, self.r):
            raise ReproError(
                f"operand shapes inconsistent: {name} has shape "
                f"{getattr(X, 'shape', None)}, session was planned for "
                f"({nrows}, {self.r}); dense operands may change values but "
                f"not shape between calls"
            )
        return X

    # ------------------------------------------------------------------
    # SPMD launch
    # ------------------------------------------------------------------

    @property
    def alg(self):
        """The resolved algorithm instance (for rank-side app procedures)."""
        return self._alg

    @property
    def context_builds(self) -> Dict[bool, int]:
        """``make_context`` invocations per orientation (over all ranks).

        With the resident worker pool this stays at ``p`` per orientation
        no matter how many kernel calls run — the counter the pool's
        amortization guarantee is asserted on.
        """
        return dict(self._context_builds)

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = make_worker_pool(
                self.backend,
                self.p,
                name=f"sess-{self.algorithm}",
                faults=self._resolved.faults,
                deadline_ms=self.deadline_ms,
                placement=self._resolved.placement,
            )
            # the plan says where the ranks actually sit (None: unpinned)
            core = self._pool.core
            self._resolved = dataclasses.replace(self._resolved, core=core)
            self._plan["core"] = core
        return self._pool

    def _note_context_build(self, transpose: bool) -> None:
        with self._ctx_lock:
            self._context_builds[transpose] = self._context_builds.get(transpose, 0) + 1

    # ------------------------------------------------------------------
    # dense-operand binding: skip-rebind
    # ------------------------------------------------------------------

    def _bind_arg(self, transpose: bool, side: str, X):
        """Decide whether one dense side actually needs scattering.

        Returns ``X``, or ``None`` for a side that binds nothing.  An
        input side is *skipped* exactly when the previous bind scattered a
        bitwise-equal array (checked against a private snapshot in the
        operand's own dtype, bit pattern by bit pattern — a flipped sign
        of zero rebinds, a NaN that stayed put skips — so in-place caller
        mutations are detected): its resident blocks still
        hold it, since they are read-only and every call puts them back
        (:meth:`_call`).  A ``None`` side (a pure output, or one
        :meth:`run_rank` was not given) keeps its resident blocks and its
        snapshot.

        The tracking pays one full-array compare plus a snapshot copy per
        bind; a side whose operand misses :data:`_BIND_MISS_LIMIT` times
        in a row is retired for the session's life (plain scatters, zero
        upkeep).  That costs ALS's last loss SDDMM its skip (``als_sweep``
        seed 7: 5 461.3 words per op), but staying armed costs more: two
        2 MB snapshot refreshes per ``er_compute`` op take ``_bind_arg``
        from ~0.007 to ~0.9 ms, and its ``op_ms_p50`` read higher in most
        alternating pairs (ROADMAP 13(c)).  It stays until 8(a)'s resident
        results.
        """
        if X is None:
            return None
        state = self._dense_state.setdefault(transpose, {"a": None, "b": None})
        misses = self._bind_miss.setdefault(transpose, {"a": 0, "b": 0})
        snap = state[side]
        comparable = (
            snap is not None and snap.shape == X.shape and snap.dtype == X.dtype
        )
        if comparable and np.array_equal(_bits(snap), _bits(X)):
            misses[side] = 0
            self.dense_bind_skips[side] += 1
            return None
        if comparable:
            misses[side] += 1
            if misses[side] >= self._BIND_MISS_LIMIT:
                state[side] = None  # retire tracking: this side never repeats
            else:
                np.copyto(snap, X)  # reuse the snapshot buffer, no realloc
        elif misses[side] < self._BIND_MISS_LIMIT:
            state[side] = np.array(X, copy=True)
        self.dense_bind_counts[side] += 1
        return X

    #: consecutive snapshot-compare misses before a side's tracking retires
    _BIND_MISS_LIMIT = 3

    # ------------------------------------------------------------------
    # SPMD dispatch (graceful degradation)
    # ------------------------------------------------------------------

    def _dispatch(
        self, ori: _Orientation, call, label: str, bound, retries=0, degraded=False
    ) -> int:
        """Run one rank procedure on the worker pool and wait for it.

        The pool re-runs a runtime-fault death up to ``retries`` times;
        returns the re-runs a successful run used.  After each failed
        attempt ``restore`` puts ``bound`` — the blocks the call was
        dispatched with, read-only, so intact — back into every rank's
        local and drops every context (a failed item may have interrupted
        a collective build) and every rank's fiber replicas (some ranks of
        a fiber may hold one, some not).
        ``degraded=True`` forces the dense communication path even on a
        sparse-comm session (the graceful degradation re-run — see
        :meth:`_run_recovering`).
        """
        alg = self._alg
        transpose = ori is self._orients.get(True)
        pool = self._ensure_pool()
        reruns = 0

        def restore():
            nonlocal reruns
            reruns += 1
            for loc, (A, B) in zip(ori.locals_, bound):
                loc.A, loc.B = A, B
            for o in self._orients.values():
                o.contexts = [None] * self.p
            alg.drop_replicas()

        def body(comm):
            if ori.contexts[comm.rank] is None:
                self._note_context_build(transpose)
            ctx = alg.ensure_context(comm, ori.contexts)
            local = ori.locals_[comm.rank]
            if ori.sparse_plans is None or degraded:
                call(ctx, ori.plan, local)
            else:
                call(ctx, ori.plan, local, sparse_plan=ori.sparse_plans[comm.rank])
            return local

        results, _ = pool.run(
            body, profiles=self._profiles, label=label, retries=retries,
            on_failure=restore,
        )
        if pool.spans_processes:
            # replicated-driver mode (backend="mpi"): only the local
            # rank's body runs in this process and only its entry of
            # ori.locals_ mutates, so the body returns that local and the
            # pool's result allgather doubles as the cross-process locals
            # sync — remote entries are patched before any driver-side
            # collect reads them
            for rr, loc in enumerate(results):
                if rr != pool.local_rank and loc is not None:
                    ori.locals_[rr] = loc
        return reruns

    @staticmethod
    def failure_outcome(exc: BaseException) -> str:
        """The ``outcome`` a call that raised ``exc`` is recorded with."""
        if isinstance(exc, SpmdTimeout) or isinstance(exc.__cause__, SpmdTimeout):
            return "timeout"
        return "failed"

    def _run_recovering(self, ori: _Orientation, call, label, bound) -> Tuple[str, int]:
        """Run a kernel call, degrading it once if it still failed.

        The pool re-runs a runtime-fault death up to ``retries`` times from
        the dispatched blocks (:meth:`_dispatch`) — never re-binding, never
        re-planning (:attr:`plan_builds`).  If it still failed of a runtime
        fault, a ``comm="sparse"`` session makes one *degraded* re-run on
        the dense ring collectives before the pool's error, the **first**
        one, surfaces.  Returns ``(outcome, retries_used)``.
        """
        try:
            retries = self._dispatch(ori, call, label, bound, self.retries)
        except Exception as first_error:  # noqa: BLE001 - classified below
            if not (ori.sparse_plans is not None and retryable(first_error)):
                raise
            # graceful degradation: one re-run on the dense comm path,
            # forced by the degraded dispatch.  Contexts and bind snapshots
            # do not carry the comm mode, so a successful re-run leaves
            # them resident for the next clean call.
            try:
                self._dispatch(ori, call, label, bound, degraded=True)
            except Exception:  # noqa: BLE001 - degraded run failed too
                raise first_error
            self.degraded_calls += 1
            return "degraded", self.retries
        if not retries:
            return "ok", 0
        self.retried_calls += 1
        return "retried", retries

    def _run_once(self, ori: _Orientation, call, label, bound) -> Tuple[str, int]:
        """Run a rank procedure once: its first failure surfaces."""
        self._dispatch(ori, call, label, bound)
        return "ok", 0

    def _call(
        self, transpose: bool, A, B, call, collect: Tuple[str, ...], label: str, run,
    ):
        """The one call body behind the five kernels and :meth:`run_rank`:
        bind ``A`` / ``B`` (in the orientation's plan shape) → dispatch and
        wait → collect each of ``collect`` (``"a"``, ``"b"``, ``"sddmm"``),
        then exactly one :meth:`metrics` record, failed calls included.
        Only the inputs bind (``None`` keeps a side's resident blocks).
        ``run(ori, call, label, bound)`` dispatches and returns
        ``(outcome, retries_used)``, ``bound`` being the blocks the call
        is dispatched with: read-only, so the pool's failure hook puts
        them back before a re-run, and so does this body once the call
        returns or raises — a call's output is transient and the
        skip-rebind snapshots stay true."""
        t0 = time.perf_counter()
        alg = self._alg
        ori = self._orientation(transpose)
        A = self._bind_arg(transpose, "a", A)
        B = self._bind_arg(transpose, "b", B)
        if A is not None or B is not None:
            alg.bind_dense(ori.plan, ori.locals_, A, B)
        bound = [(loc.A, loc.B) for loc in ori.locals_]
        outcome, retries = "failed", 0
        try:
            outcome, retries = run(ori, call, label, bound)
            self._ncalls += 1
            outs = []
            for what in collect:
                if what == "sddmm":
                    R = alg.collect_sddmm(ori.plan, ori.locals_, ori.S_eff)
                    outs.append(R.transposed() if transpose else R)
                else:
                    collect_dense = getattr(alg, f"collect_dense_{what}")
                    outs.append(collect_dense(ori.plan, ori.locals_))
            return (*outs, self.report(f"{label}/x{self._ncalls}"))
        except BaseException as exc:
            outcome = self.failure_outcome(exc)
            raise
        finally:
            for loc, (a, b) in zip(ori.locals_, bound):
                loc.A, loc.B = a, b
            # wall_ms spans bind -> collect
            self._record_call(label, t0, outcome, retries)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def _submit_kernel(
        self, kernel: Union[Mode, FusedVariant], A, B, collect_sddmm: bool = False,
        **kernel_kwargs,
    ):
        """Run one call of any of the five kernels, as
        :func:`~repro.algorithms.fused.native_procedure` resolves it
        (``None`` marks a single mode's output side), with the session's
        retries and one degraded re-run (:meth:`_call`)."""
        with self._exclusive():
            self._check_open()
            unknown = kernel_kwargs.keys() - self._rank_kernel_keywords
            if unknown:
                raise ReproError(f"{self.algorithm} takes no {min(unknown)}= option")
            transpose, side, method = native_procedure(self._alg, kernel, self.elision)
            single = isinstance(kernel, Mode)
            if not (single and side == "a"):
                A = self._check_dense(A, "A", self.m)
            if not (single and side == "b"):
                B = self._check_dense(B, "B", self.n)
            if transpose:
                A, B = B, A
            what = kernel if single else self.elision
            label = f"{self.algorithm}/{what.value}{self._suffix}"
            collect = (side,) if side else ()
            if collect_sddmm or not side:
                collect += ("sddmm",)
            return self._call(
                transpose, A, B, partial(method, **kernel_kwargs), collect, label,
                self._run_recovering,
            )

    def sddmm(
        self, A: np.ndarray, B: np.ndarray, use_values: bool = True, edge_op=None
    ) -> Tuple[CooMatrix, RunReport]:
        """``SDDMM(A, B, S) = S * (A @ B.T)`` on the resident S; the
        serving path for GAT edge scoring batches.

        ``use_values=False`` computes pattern-only dots; ``edge_op``
        replaces the dot products with a custom per-edge function (both
        on the families whose kernels support them, e.g. the 1.5D
        dense-shifting family used by the GAT app; elsewhere either raises
        :class:`~repro.errors.ReproError` before any rank runs).
        """
        kw: Dict[str, Any] = {}
        if not use_values:
            kw["use_values"] = False
        if edge_op is not None:
            kw["edge_op"] = edge_op
        return self._submit_kernel(Mode.SDDMM, A, B, **kw)

    def spmm_a(self, B: np.ndarray) -> Tuple[np.ndarray, RunReport]:
        """``SpMMA(S, B) = S @ B`` on the resident S; the serving path for
        ALS top-k batches."""
        return self._submit_kernel(Mode.SPMM_A, None, B)

    def spmm_b(self, A: np.ndarray) -> Tuple[np.ndarray, RunReport]:
        """``SpMMB(S, A) = S.T @ A`` on the resident S."""
        return self._submit_kernel(Mode.SPMM_B, A, None)

    def fusedmm_a(self, A: np.ndarray, B: np.ndarray, collect_sddmm: bool = False):
        """``FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)``: returns
        ``(output, report)``; with ``collect_sddmm=True``, ``(output,
        sddmm_intermediate, report)``."""
        return self._submit_kernel(FusedVariant.FUSED_A, A, B, collect_sddmm)

    def fusedmm_b(self, A: np.ndarray, B: np.ndarray, collect_sddmm: bool = False):
        """``FusedMMB(S, A, B) = SpMMB(SDDMM(A, B, S), A)``, returned as by
        :meth:`fusedmm_a`."""
        return self._submit_kernel(FusedVariant.FUSED_B, A, B, collect_sddmm)

    # ------------------------------------------------------------------
    # rank-side procedures (apps: rank-resident CG loops, edge softmax)
    # ------------------------------------------------------------------

    def run_rank(
        self, proc, A=None, B=None, *, transpose: bool = False,
        collect: Union[None, str, Tuple[str, ...]] = None, label: str = "rank-step",
    ) -> Tuple[Any, ...]:
        """Run the caller's rank procedure as a kernel call runs its own.

        ``proc(ctx, plan, local)`` (plus ``sparse_plan=`` on sparse-comm
        sessions) runs on every resident rank of the ``transpose``
        orientation, against its resident sparse state and dense blocks.
        ``A`` / ``B`` follow that orientation's plan shape (for the
        transposed sibling, ``(S.T, B, A)``) and bind exactly as a kernel
        call binds them, skip-rebind included; an omitted side keeps its
        resident blocks.  Communication inside ``proc`` uses the resident
        context's subcommunicators and is accounted to the session's
        report — this is how the apps put their once-driver-side
        reductions (CG row dots, edge softmax) into the measured OTHER
        phase.

        ``collect`` names what comes back: ``"a"`` / ``"b"`` (the ranks'
        dense blocks of that side, reassembled) or ``"sddmm"`` (the
        ranks' SDDMM output, in ``S``'s coordinates); ``None`` returns no
        output.  Returns ``(output, report)``, or for a tuple of names
        ``(*outputs, report)`` in its order, and records one
        :meth:`metrics` entry.  ``proc`` replaces a dense block, never
        writes one in place (bound blocks are read-only); a writeable
        replacement circulates on every hop of a ring, where a read-only
        one skips its hop home.  The blocks
        it leaves last only until the call's collect: afterwards every
        rank holds the blocks it was dispatched with again, as after a
        kernel call.
        It is never re-run: a procedure may mutate other rank-resident
        state as it goes, so a failure surfaces at once, without retries
        or degradation.
        """
        with self._exclusive():
            self._check_open()
            names = (collect,) if isinstance(collect, str) else tuple(collect or ())
            for what in names:
                if what not in ("a", "b", "sddmm"):
                    raise ReproError(f"collect is 'a', 'b' or 'sddmm', not {what!r}")
            m, n = (self.n, self.m) if transpose else (self.m, self.n)
            A = A if A is None else self._check_dense(A, "A", m)
            B = B if B is None else self._check_dense(B, "B", n)
            *outs, report = self._call(
                transpose, A, B, proc, names, label, self._run_once,
            )
            if isinstance(collect, tuple):
                return (*outs, report)
            return (outs[0] if outs else None), report

    # ------------------------------------------------------------------
    # profiling / lifecycle
    # ------------------------------------------------------------------

    def report(self, label: Optional[str] = None) -> RunReport:
        """The accumulated cost report over every call since the last
        :meth:`reset_profile` (live view: later calls keep adding).

        Takes the call gate: the per-rank profiles are single-writer, so
        a report is never read while another thread's call mutates them.
        """
        label = label or f"session/{self.algorithm}{self._suffix}/x{self._ncalls}"
        with self._exclusive():
            return RunReport(
                per_rank=self._profiles,
                label=label,
                comm_mode=self._plan["comm_mode"],
                kernel_backend=self._plan["kernels"],
            )

    def reset_profile(self) -> None:
        """Start a fresh accumulation window (resident state untouched).

        Clears the counters, the per-call metrics records and — when
        tracing — every rank's span buffer."""
        with self._exclusive():
            self._profiles = self._new_profiles()
            self._ncalls = 0
            self._metrics = []
            self._last_snapshot = self._counter_snapshot()

    # -- observability: the plan, per-call metrics, spans, timeline -------

    def explain(self) -> ResolvedPlan:
        """The frozen plan-time answer this session was built from: the
        resolved knobs (which the session's attributes mirror) and, under
        ``why``, the candidates and model terms behind every ``auto``.
        ``explain().as_dict()`` is JSON-ready and rides on record 0 of
        :meth:`metrics` as ``"plan"``."""
        return self._resolved

    def metrics(self) -> List[Dict[str, Any]]:
        """Per-call structured metrics records (always on, one per kernel
        call since the last :meth:`reset_profile`).

        Each record is a JSON-ready dict: wall ms of the call, the delta
        of rank-summed communication words/messages, FLOPs, fiber
        replications served from an earlier call's panel
        (``replica_hits``), compute / exposed-comm ms (``hidden_comm_ms``
        stays 0.0: nothing is hidden), the current peak panel-buffer
        bytes, and the call ``outcome``
        (``"ok"``, ``"retried"``, ``"degraded"``, ``"timeout"`` or
        ``"failed"``) together with the number of ``retries`` it took.
        Failed calls are recorded too.
        Record 0 additionally carries ``"plan"``: :meth:`explain` as a dict.
        """
        with self._exclusive():
            return list(self._metrics)

    def metrics_jsonl(self) -> str:
        """The :meth:`metrics` records as JSON-lines (one record per line)."""
        return "\n".join(json.dumps(rec) for rec in self.metrics())

    def tracers(self) -> List[Tracer]:
        """The per-rank tracers (empty list when ``trace="off"``)."""
        return [p.tracer for p in self._profiles if p.tracer is not None]

    def timeline(self) -> TimelineStats:
        """Occupancy analysis of the traced window (requires ``trace="on"``)."""
        tracers = self.tracers()
        if not tracers:
            raise ReproError(
                "session has no tracers — plan with trace='on' to record spans"
            )
        return TimelineStats.from_tracers(tracers)

    def export_trace(self, path: Optional[str] = None, label: str = "") -> Dict:
        """Chrome trace-event JSON of the traced window (see
        :func:`repro.runtime.trace.export_chrome_trace`); requires
        ``trace="on"``.  Returns the document; writes it to ``path`` too
        when given.
        """
        return export_chrome_trace(
            self._profiles,
            path=path,
            label=label or f"{self.algorithm}{self._suffix}/x{self._ncalls}",
        )

    def close(self) -> None:
        """Drain and join the worker pool, release buffer pools, and drop
        the resident distributions.

        The pool join is counter-asserted (every rank thread must
        terminate), so sessions cannot leak threads.  Idempotent;
        subsequent kernel calls raise :class:`ReproError`.

        Unlike kernel calls, ``close`` *blocks* on the call gate instead
        of raising :class:`SessionBusyError` — teardown from ``__exit__``
        or a fleet drain must wait for an in-progress call, not race it.
        """
        with self._call_gate:
            if not self._closed:
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
                self._alg.release_buffers()
                self._orients.clear()
                self._dense_state.clear()
                self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        shown = (
            "p",
            "c",
            "layout",
            "elision",
            "comm_mode",
            "placement",
            "backend",
            "kernels",
        )
        knobs = ", ".join(f"{k}={self._plan[k]!r}" for k in shown)
        return (
            f"Session({self.algorithm!r}, {knobs}, "
            f"shape=({self.m}, {self.n}), r={self.r}, phi={self.phi:.4g}, "
            f"resident_orientations="
            f"{sorted('T' if t else 'S' for t in self._orients)}, "
            f"{'closed' if self._closed else 'open'})"
        )


def plan(
    S,
    r: int,
    p: int = 4,
    c: Optional[int] = None,
    algorithm: str = "auto",
    elision: ElisionLike = Elision.NONE,
    comm: CommLike = CommMode.DENSE,
    machine: MachineParams = CORI_KNL,
    overlap: str = "auto",
    trace: str = "off",
    deadline_ms: Optional[float] = None,
    retries: int = 0,
    faults=None,
    backend: str = "threads",
    kernels: str = "numpy",
) -> Session:
    """Resolve all knobs once and capture S; returns a :class:`Session`.

    Parameters mirror the one-shot kernels.  ``algorithm="auto"``,
    ``c=None`` and ``comm="auto"`` are one joint decision: every
    ``(family, c, comm)`` the explicit knobs leave open is priced as that
    communication mode moves data (Table III for dense ring collectives,
    its need-list variant for ``comm="sparse"``) and the cheapest triple
    wins — :meth:`Session.explain` lists the candidates.  ``elision``
    selects the FusedMM strategy used by :meth:`Session.fusedmm_a` /
    :meth:`Session.fusedmm_b`; only families that run it compete.

    Each resident distribution (forward, and the transposed sibling for
    opposite-native fused variants) is built exactly once, on the first
    kernel call that needs it — so a session never distributes an
    orientation it does not use.  The session's
    :class:`~repro.runtime.spmd.WorkerPool` likewise spawns its ``p`` rank
    threads on the first kernel call and keeps them warm — with their
    communicators, grid contexts and panel-buffer pools — until
    :meth:`Session.close`, so steady-state calls pay no thread spawn, no
    communicator splits and no context rebuild.  Where those threads sit
    is decided at plan time, not by a knob: a fine-grained session (few
    FLOPs per local kernel call) is ``placement="packed"`` and its rank
    threads share one core, a coarse one is ``"spread"`` —
    :meth:`Session.explain` carries the decision, its grain and the core
    taken (ARCHITECTURE.md, "Plan-time resolution").  Nor is the layout a
    knob: a skewed operand (busiest of ``p`` equal row or column blocks
    over 1.25x the mean) whose need-list unions the paper's random row /
    column permutation narrows is distributed permuted, under one fixed
    seed; outputs come back in the caller's order.

    ``overlap`` is accepted for compatibility and ignored: there is one
    synchronous propagation schedule, every shift, all-gather and
    need-list exchange is waited where it is posted.  Any of ``"auto"``
    (the default), ``"on"`` and ``"off"`` is valid; another value is a
    :class:`~repro.errors.ReproError`.  ``why["overlap"]`` records the
    request and :attr:`Session.overlap_mode` reads ``"off"``.

    ``trace="on"`` attaches a per-rank
    :class:`~repro.runtime.trace.Tracer` to every profile: tracked phases,
    communication waits, pool dispatch and local kernels record begin/end
    spans.  Export with :meth:`Session.export_trace` (Chrome trace-event
    JSON, loadable in Perfetto) and analyze with :meth:`Session.timeline`
    (per-rank occupancy).  The default ``"off"`` records nothing and costs
    nothing on the hot path.

    ``deadline_ms`` arms a per-call watchdog: a rank whose blocking
    receive outlives the horizon raises
    :class:`~repro.errors.SpmdTimeout` carrying a per-rank blocked-state
    dump (who waits on whom, which tag, which phase), so mismatched
    collectives and lost messages fail in bounded time instead of hanging.
    ``retries=N`` has the worker pool re-run a call that died of a
    *runtime* fault (not a deterministic user error) up to N times, from
    the blocks it was dispatched with — no re-scatter, no re-plan; under
    ``comm="sparse"`` one conservative re-run on the dense collectives
    follows before the first error surfaces.  Outputs after retry or
    degradation are bitwise those of a clean run; :meth:`Session.run_rank`
    fails fast.  ``faults`` arms a deterministic
    :class:`~repro.runtime.faults.FaultPlan` (chaos testing).  All three
    default to off and cost nothing when off.

    ``backend`` selects the execution substrate (see ``ARCHITECTURE.md``):
    ``"threads"`` (the default) simulates the ranks as threads in this
    process and needs nothing; ``"mpi"`` makes each rank an
    mpirun-resident process over mpi4py — run the *same* driver script
    under ``mpirun -n p`` and plan with matching ``p``.  Outputs are
    bitwise-identical across backends (the collective algorithms are
    shared; only the transport differs).  Unknown names raise
    :class:`~repro.errors.UnknownBackendError`; ``"mpi"`` without mpi4py
    raises :class:`~repro.errors.BackendUnavailableError` with the
    install hint.  Fault injection and ``retries`` are thread-only and
    raise typed errors when combined with ``backend="mpi"``.

    ``kernels`` selects the *local-kernel* backend (independent of the
    execution backend): ``"numpy"`` (the default) keeps the vectorized
    NumPy/SciPy paths; ``"numba"`` dispatches the six hot kernels to the
    JIT-compiled ``prange``-parallel implementations of
    :mod:`repro.kernels.backend_numba` (warmed up here at plan time, so
    the first call pays no compilation); ``"auto"`` runs — or loads from
    the per-host cache — a microbenchmark calibration
    (:mod:`repro.model.calibrate`), picks the fastest *measured* backend
    among those installed, and feeds its measured seconds-per-FLOP into
    the ``comm="auto"`` model decision as the compute term.  Unknown names raise
    :class:`~repro.errors.UnknownKernelBackendError`; ``"numba"`` without
    numba raises :class:`~repro.errors.KernelBackendUnavailableError`
    with the install hint.  Compiled backends are thread-backend-only
    (``"auto"`` calibrates per process, so one job's processes could
    resolve different plans, and no CI lane runs numba next to mpi4py)
    and raise a typed error with ``backend="mpi"``.  The resolved choice
    is observable as
    ``Session.kernels``, in every per-call metrics record (``"kernels"``)
    and on reports (``RunReport.kernel_backend``).
    """
    S = _as_coo(S)
    resolved = resolve(
        S.nrows,
        S.ncols,
        S.nnz,
        r,
        p=p,
        c=c,
        algorithm=algorithm,
        elision=elision,
        comm=comm,
        machine=machine,
        overlap=overlap,
        trace=trace,
        deadline_ms=deadline_ms,
        retries=retries,
        faults=faults,
        backend=backend,
        kernels=kernels,
        structure=layout_statistics(S, max(p, 1)),
    )
    return Session(S, resolved)
