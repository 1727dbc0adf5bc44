"""Plan-time resolution: every knob check and every ``auto``, one pure function.

:func:`resolve` is what :func:`repro.plan` runs before it builds
anything.  It takes the sparse operand's *shape statistics* (``m``,
``n``, ``nnz``, plus the structural numbers ``plan()`` measures) rather
than the matrix, spawns no rank, and returns a frozen
:class:`ResolvedPlan`: the resolved knobs plus ``why`` — per decision,
the candidates that were compared and the model terms that drove the
pick.  The decisions feed each other in one order:

    layout -> kernels -> compute_gamma -> (algorithm, c, comm) -> placement

``layout`` says whether the session distributes the operand as given
(``"natural"``) or under the paper's fixed random row / column
permutation (``"permuted"``, §VI), from block statistics of the structure
(:data:`LAYOUT_IMBALANCE`) — never from a knob.
Family, replication factor and communication mode are *one* decision:
the arg-min of :func:`repro.model.optimal.joint_candidates`' table.
``placement`` says whether the thread pool keeps the session's rank
threads on one core (``"packed"``) or leaves them to the scheduler
(``"spread"``), from the FLOPs of one local kernel call
(:data:`PACK_GRAIN_FLOPS`).  ``overlap`` is validated and recorded in
``why``, and decides nothing: there is one synchronous schedule.

``kernels="auto"`` yields the one host-measured quantity (the calibrated
seconds-per-FLOP); every other term prices the ``machine=`` argument.
Whatever the model cannot price is a typed :class:`ReproError` or an
entry in ``why`` — never a silent default.  See ARCHITECTURE.md,
"Plan-time resolution".
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.algorithms.registry import (
    feasible_replication_factors,
    supported_elisions,
    supports_sparse_comm,
)
from repro.errors import ReproError
from repro.kernels.registry import (
    ensure_kernel_backend_available,
    validate_kernel_backend_name,
)
from repro.model.calibrate import calibrate, choose_kernel_backend
from repro.model.costs import PAPER_COST_ROWS, row_key
from repro.model.optimal import (
    SPARSE_MARGIN,
    cheapest_candidate,
    joint_candidates,
)
from repro.runtime.backend import ensure_backend_available, validate_backend_name
from repro.runtime.cost import MachineParams
from repro.types import CommMode, Elision

_OVERLAP = ("off", "on", "auto")
#: span tracing is strictly opt-in — no "auto": the untraced hot path
#: must stay untaxed by default
_TRACE = ("off", "on")

#: FLOPs of one local kernel call below which a thread-backend session's
#: ranks share one core.  Rank threads hand the GIL over at every
#: GIL-releasing numpy call; when a call is ~100 us of work, two cores spend
#: the time on that hand-over (47 600 voluntary context switches and 0.40 s
#: of system time per ALS sweep on two cores against 1 800 and 0.01 s on
#: one).  Measured with ``benchmarks/bench_placement.py`` (numpy kernels, 2
#: cores, 70 points over four families and p = 2..16; table in CHANGES.md,
#: PR 24) as packed / spread ms per ``fusedmm_a``: 0.26-0.98 at 38 of the 40
#: points under 2**18 (1.01 at the other two), 0.82-1.59 (median 1.06) at
#: 2**19, 1.06-1.87 at every point from 2**20 up.  Compiled kernels are
#: faster per call, so their crossover sits higher; not measured (no numba
#: on the sizing host).
PACK_GRAIN_FLOPS = 2**18

#: max / mean nonzeros over ``p`` equal row (or column) blocks above which
#: the operand is skewed enough to consider the random permutation.  The
#: e2e ER inputs sit at <= 1.017, ``rmat(14)`` at 3.36; a banded matrix
#: with hub rows (1.63) is skewed too, and there the permutation *widens*
#: the union proxy (9 742 -> 17 418), which is why the rule also compares
#: it (``benchmarks/bench_layout.py``).
LAYOUT_IMBALANCE = 1.25

#: the structural statistics ``why["layout"]`` records (``plan()`` passes
#: them in; ``None`` each for a shape-only request)
_STRUCTURE = (
    "row_imbalance", "col_imbalance", "union_natural", "union_permuted", "seed"
)


@dataclass(frozen=True)
class ResolvedPlan:
    """The frozen answer of :func:`resolve`; a session is built from it.

    ``kernels`` is the resolved backend *name*; ``compute_gamma`` is its
    calibrated seconds-per-FLOP when the choice came from ``"auto"``
    (``None`` for explicit choices: the model then keeps the machine's
    assumed gamma).  ``why`` maps each decision (``"layout"``,
    ``"kernels"``, ``"algorithm"``, ``"c"``, ``"comm"``, ``"placement"``)
    to what was requested, what was compared and the model terms behind
    the pick; ``why["overlap"]`` records the (ignored) request.
    ``layout`` is decided from structural statistics alone,
    ``placement`` from shape statistics alone; ``core`` is the one field
    :func:`resolve` never sets — the session fills in the core its pool
    actually pinned its ranks to (``None``: nothing was pinned).
    """

    m: int
    n: int
    r: int
    layout: str
    algorithm: str
    p: int
    c: int
    elision: Elision
    comm_mode: CommMode
    placement: str
    kernels: str
    compute_gamma: Optional[float]
    backend: str
    trace: str
    deadline_ms: Optional[float]
    retries: int
    faults: Any
    machine: MachineParams
    phi: float
    why: Mapping[str, Any]
    core: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (enums by value, the machine by its
        parameters, an armed fault plan as ``True``)."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d.update(
            elision=self.elision.value,
            comm_mode=self.comm_mode.value,
            machine=dataclasses.asdict(self.machine),
            faults=self.faults is not None,
            why=json.loads(json.dumps(self.why)),
        )
        return d


def _host_cores() -> int:
    """Cores this process may run on (what rank threads actually share)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_run(row: str, elision: Elision, comm: CommMode) -> bool:
    """Whether ``row`` is a row of the requested elision (whose family has
    need lists, under an explicit ``comm="sparse"``)."""
    family, row_elision = row.split("/", 1)
    return row_elision == elision.value and (
        comm != CommMode.SPARSE or supports_sparse_comm(family)
    )


def resolve(
    m: int,
    n: int,
    nnz: int,
    r: int,
    *,
    p: int,
    c: Optional[int],
    algorithm: str,
    elision,
    comm,
    machine: MachineParams,
    overlap: str,
    trace: str,
    deadline_ms: Optional[float],
    retries: int,
    faults,
    backend: str,
    kernels: str,
    structure: Optional[Mapping[str, float]] = None,
) -> ResolvedPlan:
    """Resolve every knob of :func:`repro.plan` (which declares and
    documents them) for an ``m x n`` sparse operand with ``nnz`` nonzeros
    and embedding width ``r``.  ``structure`` holds the operand's block
    statistics (:func:`repro.sparse.stats.layout_statistics`); without
    them the operand keeps its natural layout.

    Guard order: unknown kernel / backend name, then the thread-only
    feature guards, then availability, then the model — so the guidance
    is the same whether or not numba / mpi4py is installed.
    """
    why: Dict[str, Any] = {}
    elision = elision if isinstance(elision, Elision) else Elision(elision)
    comm = comm if isinstance(comm, CommMode) else CommMode(comm)
    r = int(r)
    if r <= 0:
        raise ReproError(f"r must be positive, got {r}")

    # -- layout: the random permutation balances a skewed operand's blocks,
    # and is taken where it also narrows the rows / columns a block touches
    # (the union proxy the need lists grow with).  It reads no knob, so a
    # given operand is distributed the same way under every family, comm
    # and placement.
    stats = {key: (structure or {}).get(key) for key in _STRUCTURE}
    layout = "natural"
    if structure is None:
        reason = "shape statistics only: no structure to balance"
    elif max(stats["row_imbalance"], stats["col_imbalance"]) <= LAYOUT_IMBALANCE:
        reason = "balanced blocks"
    elif stats["union_permuted"] < stats["union_natural"]:
        layout, reason = "permuted", "skewed blocks: the permutation narrows the unions"
    else:
        reason = "skewed blocks, but the permutation widens the unions"
    why["layout"] = {**stats, "threshold": LAYOUT_IMBALANCE, "reason": reason}

    # -- kernels: thread-only for agreement and coverage, not wiring (an
    # mpi rank runs on the profile the session attached the backend to)
    kern = validate_kernel_backend_name(kernels)
    if kern != "numpy" and validate_backend_name(backend) != "threads":
        raise ReproError(
            "compiled kernel backends are thread-backend-only: "
            f"kernels={kern!r} is not resolved for backend={backend!r}, "
            "since kernels='auto' calibrates per host and per process: "
            "the processes of one job can read different gammas and "
            "resolve different plans (mismatched collectives), and no CI "
            "lane runs numba next to mpi4py; use backend='threads' or "
            "the default kernels='numpy'"
        )
    why["kernels"] = {"requested": kern}
    gamma = None
    if kern == "auto":
        # measured over the *available* backends, so auto never raises on
        # a host without numba
        kern, gamma = choose_kernel_backend()
        measured = calibrate()  # memoized: the document the pick was read from
        why["kernels"].update(
            host=measured["host"],
            gamma={b: e["gamma"] for b, e in measured["backends"].items()},
        )
    ensure_kernel_backend_available(kern)

    # -- (algorithm, c, comm): one joint decision.  Every candidate
    # triple the request leaves open — rows of the requested elision only,
    # every feasible c unless one is given, dense plus (where the family
    # has need lists) sparse unless a mode is given — is priced as that
    # mode moves data, and the cheapest wins.  Explicit knobs restrict the
    # table; they never take a second path.
    phi = nnz / (float(n) * r)
    why["algorithm"] = {"requested": algorithm}
    why["c"] = {"requested": c}
    why["comm"] = {"requested": comm.value}
    if algorithm == "auto":
        rows = [row for row in PAPER_COST_ROWS if _can_run(row, elision, comm)]
        if not rows:
            raise ReproError(
                f"no algorithm family supports elision={elision.value!r} "
                f"with comm={comm.value!r}"
            )
        if c is not None:
            rows = [
                row for row in rows
                if c in feasible_replication_factors(row.split("/", 1)[0], p)
            ]
            if not rows:
                raise ReproError(
                    f"replication factor c={c} infeasible on p={p} for every "
                    f"family that runs elision={elision.value!r} with "
                    f"comm={comm.value!r}"
                )
    else:
        feasible = feasible_replication_factors(algorithm, p)
        if c is not None and c not in feasible:
            raise ReproError(
                f"replication factor c={c} infeasible for {algorithm} on p={p}; "
                f"feasible: {feasible}"
            )
        supported = supported_elisions(algorithm)
        if elision not in supported:
            raise ReproError(
                f"{algorithm} supports {[e.value for e in supported]}, "
                f"not {elision.value}"
            )
        if comm == CommMode.SPARSE and not supports_sparse_comm(algorithm):
            raise ReproError(
                f"{algorithm} has no sparse-communication path; "
                f"use comm='dense' or comm='auto'"
            )
        rows = [row_key(algorithm, elision)]
    # compute is charged at the measured rate when the kernel calibration
    # supplied one
    table = joint_candidates(
        rows, n, r, nnz, p, machine, c=c,
        comm=None if comm == CommMode.AUTO else (comm.value,),
        compute_gamma=gamma,
    )
    best = cheapest_candidate(table)
    picked = table.index(best)
    key, c = best["row"], best["c"]
    algorithm = key.split("/", 1)[0]
    why["algorithm"].update(
        row=key, margin=SPARSE_MARGIN, picked=picked, candidates=table
    )
    why["c"].update(
        feasible=list(feasible_replication_factors(algorithm, p)), candidate=picked
    )
    # both modes of the picked (row, c), by their index in the table
    why["comm"].update(
        {
            record["comm"]: i
            for i, record in enumerate(table)
            if (record["row"], record["c"]) == (key, c)
        },
        picked=best["comm"],
    )
    if comm == CommMode.AUTO and not supports_sparse_comm(algorithm):
        why["comm"]["reason"] = "family has no sparse-communication path"
    comm = CommMode(best["comm"])

    # -- placement: the grain is the FLOPs of one local kernel call of a
    # propagation phase.  A pure function of the shape statistics — the
    # host's cores are recorded, never consulted — so a decision means the
    # same on every machine; the pool applies it where it can.
    backend = validate_backend_name(backend)
    phases = p // c if algorithm.startswith("1.5d") else math.isqrt(p // c)
    grain = 2.0 * nnz * r / (p * phases)
    if backend != "threads":
        placement, reason = "spread", "process backend: placement is the launcher's"
    elif p <= 1:
        placement, reason = "spread", "one rank runs inline on the driver thread"
    elif grain < PACK_GRAIN_FLOPS:
        placement, reason = "packed", "fine grain: GIL hand-over outweighs a core"
    else:
        placement, reason = "spread", "coarse grain: kernels run in parallel"
    why["placement"] = {
        "grain_flops": grain,
        "phases": phases,
        "threshold_flops": PACK_GRAIN_FLOPS,
        "host_cores": _host_cores(),
        "reason": reason,
    }

    # -- overlap: accepted for compatibility, decides nothing
    if overlap not in _OVERLAP:
        raise ReproError(f"overlap must be one of {_OVERLAP}, got {overlap!r}")
    why["overlap"] = {"requested": overlap, "reason": "one synchronous schedule"}

    # -- tracing and the robustness knobs (all off by default)
    if trace not in _TRACE:
        raise ReproError(f"trace must be one of {_TRACE}, got {trace!r}")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ReproError(f"deadline_ms must be positive, got {deadline_ms}")
    retries = int(retries)
    if retries < 0:
        raise ReproError(f"retries must be non-negative, got {retries}")
    if backend != "threads":
        if faults is not None:
            raise ReproError(
                "fault injection is thread-backend-only: backend='mpi' "
                "has no sibling-abort recovery across processes, so an "
                "injected fault ends the job; chaos-test with "
                "backend='threads'"
            )
        if retries:
            raise ReproError(
                "retries are thread-backend-only: backend='mpi' has no "
                "cross-process recovery, so a failed call surfaces its "
                "error (or aborts the job on a deadline expiry) "
                "instead of re-executing"
            )
        ensure_backend_available(backend)

    return ResolvedPlan(
        m=m,
        n=n,
        r=r,
        layout=layout,
        algorithm=algorithm,
        p=p,
        c=c,
        elision=elision,
        comm_mode=comm,
        placement=placement,
        kernels=kern,
        compute_gamma=gamma,
        backend=backend,
        trace=trace,
        deadline_ms=deadline_ms,
        retries=retries,
        faults=faults,
        machine=machine,
        phi=phi,
        why=why,
    )
