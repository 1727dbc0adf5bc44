"""Layer probes: time each layer's public functions on the workload's inputs.

A probe is a function ``(ctx) -> {metric name: value}``.  It imports what it
needs from ``repro`` itself and runs inside its own ``try`` (see
:func:`run_probes`), so a refactor that renames a layer function turns that
layer's metrics into ``null`` + a reason and leaves every other number alone.
A timing is the median over repeats of a leaf span (so span time = self time).
"""

from __future__ import annotations

import gc
import statistics
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from e2ebench import spec
from e2ebench.spans import Recorder
from e2ebench.stats import tail
from e2ebench.workloads import KernelWorkload, fused_a

REPS = 5


class NotMeasured(Exception):
    """A probe (or one of its metrics) has no value here, by design."""


@dataclass
class ProbeContext:
    w: KernelWorkload
    rec: Recorder
    quick: bool
    #: what the steady session resolved "auto"/None knobs to
    algorithm: str
    c: int
    #: steady-loop numbers other layers are compared against
    op_ms_p50: float
    words_per_op: float


def _names(prefix: str) -> Tuple[str, ...]:
    return tuple(m.name for m in spec.PER_LAYER if m.name.startswith(prefix))


def med_ms(
    rec: Recorder, name: str, fn: Callable, reps: int = REPS,
    setup: Optional[Callable] = None,
) -> float:
    """Median wall ms of ``fn`` over ``reps`` leaf spans; ``setup`` runs
    outside the span and its result is passed to ``fn``."""
    times = []
    for _ in range(reps):
        args = (setup(),) if setup is not None else ()
        with rec.span(name) as sp:
            fn(*args)
        times.append(sp.ms)
    return statistics.median(times)


def _ops_ms(rec: Recorder, name: str, sess, w: KernelWorkload, op, ops: int) -> float:
    """Median ms of ``op`` on a resident session after 2 warm-up ops."""
    A, B = w.operands[0]
    for _ in range(2):
        op(sess, A, B)
    return med_ms(rec, name, lambda: op(sess, A, B), reps=ops)


# ----------------------------------------------------------------------
# session: read off the steady session while it is still open
# ----------------------------------------------------------------------


def session_layer(
    sess, op_ms: List[float], plan_ms: List[float], first_ms: List[float],
    binds_before: Tuple[int, int],
) -> Dict[str, float]:
    from repro import Phase

    n, p = len(op_ms), sess.p
    records = sess.metrics()
    rep = sess.report()

    def rank_mean(key: str) -> float:
        return sum(rec[key] for rec in records) / p / n

    exposed, hidden = rank_mean("exposed_comm_ms"), rank_mean("hidden_comm_ms")
    # the busiest rank's compute + blocked-on-comm time (phases are siblings)
    rank_max_busy_ms = max(
        sum(prof.counters[phase].seconds for phase in Phase) for prof in rep.per_rank
    ) * 1e3 / n
    skips = sum(sess.dense_bind_skips.values()) - binds_before[0]
    binds = sum(sess.dense_bind_counts.values()) - binds_before[1]
    p50 = statistics.median(op_ms)
    return {
        "session.plan_ms": statistics.median(plan_ms),
        "session.first_call_extra_ms": statistics.median(first_ms) - p50,
        "session.compute_ms": rank_mean("compute_ms"),
        "session.exposed_comm_ms": exposed,
        "session.hidden_comm_ms": hidden,
        "session.overlap_hidden_frac": (
            hidden / (hidden + exposed) if hidden + exposed > 0 else 0.0
        ),
        "session.driver_ms": statistics.fmean(op_ms) - rank_max_busy_ms,
        "session.bind_skip_frac": skips / (skips + binds) if skips + binds else 0.0,
        "session.op_tail_ms": tail(op_ms)[1],
        "session.peak_buffer_bytes": rep.peak_buffer_bytes,
        "runtime.msgs_per_op": rep.comm_messages / n,
    }


SESSION_LAYER_METRICS = _names("session.") + ("runtime.msgs_per_op",)


# ----------------------------------------------------------------------
# stand-alone probes
# ----------------------------------------------------------------------


def probe_runtime(ctx: ProbeContext) -> Dict[str, float]:
    from repro.runtime import make_worker_pool

    cfg, rec = ctx.w.config, ctx.rec
    p = cfg.p
    # one rank's share of a dense operand: what the collectives move per call
    panel = np.ascontiguousarray(ctx.w.operands[0][0][: -(-cfg.S.nrows // p)])
    pieces = np.array_split(panel, p)
    pools: List[Any] = []
    try:
        spawn = med_ms(rec, "probe:runtime.pool_spawn",
                       lambda: pools.append(make_worker_pool("threads", p)))
        pool = pools[-1]
        pool.run(lambda comm: None)
        dispatch = med_ms(rec, "probe:runtime.pool_dispatch",
                          lambda: pool.run(lambda comm: None), reps=5 * REPS)
        allgather = med_ms(rec, "probe:runtime.allgather",
                           lambda: pool.run(lambda comm: comm.allgather(panel)))
        shift = med_ms(rec, "probe:runtime.shift",
                       lambda: pool.run(lambda comm: comm.shift(panel, 1)))
        reduce_scatter = med_ms(
            rec, "probe:runtime.reduce_scatter",
            lambda: pool.run(lambda comm: comm.reduce_scatter(pieces)))
    finally:
        for pool in pools:
            pool.close()
    return {
        "runtime.pool_spawn_ms": spawn,
        "runtime.pool_dispatch_ms": dispatch,
        "runtime.allgather_ms": allgather,
        "runtime.shift_ms": shift,
        "runtime.reduce_scatter_ms": reduce_scatter,
        "runtime.transport_mb_per_s": panel.nbytes * p / 1e6 / (shift / 1e3),
    }


def _window(sess, w: KernelWorkload, op, ops: int) -> Tuple[int, int]:
    """``(comm words, peak buffer bytes)`` of ``ops`` ops on a fresh
    accumulation window."""
    A, B = w.operands[0]
    op(sess, A, B)  # lazy distribution happens outside the window
    sess.reset_profile()
    for _ in range(ops):
        op(sess, A, B)
    rep = sess.report()
    return rep.comm_words, rep.peak_buffer_bytes


def probe_comm_sparse(ctx: ProbeContext) -> Dict[str, float]:
    from repro.algorithms import make_algorithm, supports_sparse_comm
    from repro.comm_sparse import clear_plan_cache, dense_rows_moved

    cfg, rec = ctx.w.config, ctx.rec
    if not supports_sparse_comm(ctx.algorithm):
        raise NotMeasured(f"{ctx.algorithm} has no sparse-comm path")
    alg = make_algorithm(ctx.algorithm, cfg.p, ctx.c)
    plan = alg.plan(cfg.S.nrows, cfg.S.ncols, cfg.r)
    build = med_ms(rec, "probe:comm_sparse.plan_build",
                   lambda _: alg.build_comm_plans(plan, cfg.S), reps=3,
                   setup=clear_plan_cache)
    cached = med_ms(rec, "probe:comm_sparse.plan_cached",
                    lambda: alg.build_comm_plans(plan, cfg.S))
    gathers = [
        getattr(bundle, side)
        for bundle in alg.build_comm_plans(plan, cfg.S)
        for side in ("gather", "gather_a", "gather_b")
        if hasattr(bundle, side)
    ]
    words, peak = {}, {}
    with rec.span("probe:comm_sparse.dense_vs_sparse"):
        for comm in ("dense", "sparse"):
            with cfg.plan(algorithm=ctx.algorithm, c=ctx.c, comm=comm) as sess:
                words[comm], peak[comm] = _window(sess, ctx.w, ctx.w.op, 3)
    return {
        "comm_sparse.plan_build_ms": build,
        "comm_sparse.plan_cached_ms": cached,
        "comm_sparse.rows_moved": dense_rows_moved(gathers),
        "comm_sparse.words_saved_frac": 1.0 - words["sparse"] / words["dense"],
        "comm_sparse.peak_buffer_ratio": (
            peak["sparse"] / peak["dense"] if peak["dense"]
            else NotMeasured("dense path holds no panel buffers here (0 bytes)")
        ),
    }


def probe_algorithms(ctx: ProbeContext) -> Dict[str, float]:
    from repro.algorithms import make_algorithm

    cfg, rec = ctx.w.config, ctx.rec
    A, B = ctx.w.operands[0]
    alg = make_algorithm(ctx.algorithm, cfg.p, ctx.c)
    state: Dict[str, Any] = {}

    def distribute():
        state["plan"] = alg.plan(cfg.S.nrows, cfg.S.ncols, cfg.r)
        state["locals"] = alg.distribute_sparse(state["plan"], cfg.S)

    out = {"algorithms.distribute_sparse_ms":
           med_ms(rec, "probe:algorithms.distribute_sparse", distribute)}
    plan, locals_ = state["plan"], state["locals"]
    out["algorithms.bind_dense_ms"] = med_ms(
        rec, "probe:algorithms.bind_dense",
        lambda: alg.bind_dense(plan, locals_, A, B))
    out["algorithms.collect_ms"] = med_ms(
        rec, "probe:algorithms.collect",
        lambda: alg.collect_dense_a(plan, locals_))
    return out


def probe_family_sweep(ctx: ProbeContext) -> Dict[str, float]:
    from repro.algorithms import feasible_replication_factors

    cfg, rec = ctx.w.config, ctx.rec
    ops = 3 if ctx.quick else 10
    out: Dict[str, float] = {}
    for fam in spec.FAMILIES:
        feasible = feasible_replication_factors(fam, cfg.p)
        c = 2 if 2 in feasible else feasible[0]
        with cfg.plan(algorithm=fam, c=c, elision="none", comm="auto") as sess:
            out[f"algorithms.family_ms.{fam}"] = _ops_ms(
                rec, f"probe:algorithms.family:{fam}", sess, ctx.w, fused_a, ops)
    with cfg.plan(algorithm="auto", c=None, elision="none", comm="auto",
                  overlap="auto") as sess:
        auto = _ops_ms(rec, "probe:model.auto", sess, ctx.w, fused_a, ops)
    out["model.auto_regret"] = auto / min(out.values())
    return out


def probe_overlap(ctx: ProbeContext) -> Dict[str, float]:
    cfg, rec = ctx.w.config, ctx.rec
    ops = 3 if ctx.quick else 8
    ms = {}
    for overlap in ("off", "on"):
        with cfg.plan(algorithm=ctx.algorithm, c=ctx.c, overlap=overlap) as sess:
            ms[overlap] = _ops_ms(rec, f"probe:algorithms.overlap_{overlap}",
                                  sess, ctx.w, ctx.w.op, ops)
    return {"algorithms.overlap_speedup": ms["off"] / ms["on"]}


def probe_elision(ctx: ProbeContext) -> Dict[str, float]:
    cfg, rec = ctx.w.config, ctx.rec

    def unfused(sess, A, B):
        sess.sddmm(A, B)
        sess.spmm_a(B)

    with rec.span("probe:algorithms.elision"):
        with cfg.plan(algorithm=ctx.algorithm, c=ctx.c, elision="none") as sess:
            unfused_words, _ = _window(sess, ctx.w, unfused, 1)
    return {"algorithms.elision_words_saved_frac":
            1.0 - ctx.words_per_op / unfused_words}


def _heaviest_row_block(S, p: int):
    offsets = np.linspace(0, S.nrows, p + 1).astype(np.int64)
    counts, _ = np.histogram(S.rows, bins=offsets)
    b = int(np.argmax(counts))
    lo, hi = int(offsets[b]), int(offsets[b + 1])
    mask = (S.rows >= lo) & (S.rows < hi)
    return lo, hi, S.rows[mask] - lo, S.cols[mask], S.vals[mask], counts


def probe_kernels(ctx: ProbeContext) -> Dict[str, float]:
    import repro
    from repro.kernels import (
        fusedmm_local, sddmm_coo, spmm_a_block, spmm_b_block, spmm_scatter,
    )

    cfg, rec = ctx.w.config, ctx.rec
    S, r = cfg.S, cfg.r
    A, B = ctx.w.operands[0]
    lo, hi, rows, cols, vals, _ = _heaviest_row_block(S, cfg.p)
    shape = (hi - lo, S.ncols)
    A_blk = np.ascontiguousarray(A[lo:hi])
    out: Dict[str, float] = {
        "kernels.csr_build_ms": med_ms(
            rec, "probe:kernels.csr_build", lambda blk: blk.csr(),
            setup=lambda: repro.SparseBlock(rows, cols, vals, shape)),
    }
    block = repro.SparseBlock(rows, cols, vals, shape)
    block.csr(), block.csr_t()
    out_a, out_b = np.zeros((hi - lo, r)), np.zeros((S.ncols, r))
    nnz = block.nnz
    calls = {
        "sddmm_coo": (2, lambda: sddmm_coo(A_blk, B, rows, cols, s_vals=vals)),
        "spmm_a_block": (2, lambda: spmm_a_block(block, B, out_a)),
        "spmm_b_block": (2, lambda: spmm_b_block(block, A_blk, out_b)),
        "spmm_scatter": (2, lambda: spmm_scatter(rows, cols, vals, B, out_a)),
        "fusedmm_local": (4, lambda: fusedmm_local(A_blk, B, block, out_a)),
    }
    for name, (flops_per_nnz_r, fn) in calls.items():
        fn()
        ms = med_ms(rec, f"probe:kernels.{name}", fn)
        out[f"kernels.{name}_ms"] = ms
        out[f"kernels.{name}_gflops"] = flops_per_nnz_r * nnz * r / (ms / 1e3) / 1e9
    # CSR data + indices + indptr, one B row per nonzero, output read + written
    spmm_bytes = nnz * 16 + (hi - lo + 1) * 8 + nnz * r * 8 + 2 * (hi - lo) * r * 8
    out["kernels.bytes_per_flop"] = spmm_bytes / (2 * nnz * r)
    return out


def llc_bytes() -> int:
    """Largest cache the OS reports for cpu0 (32 MiB when it reports none)."""
    import glob

    sizes = []
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            text = open(path).read().strip()
            sizes.append(int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20}[text[-1]])
        except (OSError, ValueError, KeyError):
            continue
    return max(sizes, default=32 << 20)


def stream_array_bytes(quick: bool) -> int:
    # 4x the last-level cache, capped at 1 GiB per array so the probe fits
    # hosts that advertise a socket-wide L3 to a small VM
    return 1 << 22 if quick else min(4 * llc_bytes(), 1 << 30)


def probe_host(ctx: ProbeContext) -> Dict[str, float]:
    rec = ctx.rec
    nbytes = stream_array_bytes(ctx.quick)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # first touch outside the timing
    copy_ms = med_ms(rec, "probe:host.stream", lambda: np.copyto(dst, src), reps=3)
    n = 128 if ctx.quick else 512
    X = np.random.default_rng(0).standard_normal((n, n))
    X @ X
    gemm_ms = med_ms(rec, "probe:host.dgemm", lambda: X @ X)
    return {
        "host.stream_gbps": 2 * nbytes / 1e9 / (copy_ms / 1e3),
        "host.dgemm_gflops": 2 * n**3 / 1e9 / (gemm_ms / 1e3),
    }


def probe_sparse(ctx: ProbeContext) -> Dict[str, float]:
    from repro.sparse.partition import partition_coo_2d

    S, p = ctx.w.config.S, ctx.w.config.p
    row_off = np.linspace(0, S.nrows, p + 1).astype(np.int64)
    col_off = np.linspace(0, S.ncols, p + 1).astype(np.int64)
    counts = _heaviest_row_block(S, p)[-1]
    return {
        "sparse.partition_2d_ms": med_ms(
            ctx.rec, "probe:sparse.partition_2d",
            lambda: partition_coo_2d(S.rows, S.cols, S.vals, row_off, col_off)),
        "sparse.row_block_imbalance": float(counts.max() / counts.mean()),
    }


def probe_model(ctx: ProbeContext) -> Dict[str, float]:
    from repro import CORI_KNL
    from repro.model.optimal import (
        best_feasible_c, choose_comm_mode, predict_best_algorithm,
    )

    cfg = ctx.w.config
    n, nnz, r, p = cfg.S.ncols, cfg.S.nnz, cfg.r, cfg.p

    def resolve():
        key = predict_best_algorithm(n, r, nnz, p, CORI_KNL)
        c, _ = best_feasible_c(key, n, r, p, nnz / (float(n) * r), CORI_KNL)
        choose_comm_mode(key.split("/", 1)[0], n, r, nnz, p, c, CORI_KNL)

    return {"model.resolve_ms": med_ms(ctx.rec, "probe:model.resolve", resolve)}


def probe_baselines(ctx: ProbeContext) -> Dict[str, float]:
    A, B = ctx.w.operands[0]
    serial_ms = med_ms(ctx.rec, "probe:baselines.serial_op",
                       lambda: ctx.w.reference(A, B), reps=3)
    return {
        "baselines.serial_op_ms": serial_ms,
        "baselines.speedup_vs_serial": serial_ms / ctx.op_ms_p50,
    }


def probe_gat(ctx: ProbeContext) -> Dict[str, float]:
    import repro
    from repro.apps.gat import DistributedGAT
    from repro.types import Elision

    scale, forwards = (8, 1) if ctx.quick else (13, 10)
    S_adj = repro.rmat(scale, 8, seed=3, values="ones")
    X = np.random.default_rng(4).standard_normal((S_adj.nrows, 32))
    out = {}
    for key, elision in (("none", Elision.NONE),
                         ("reuse", Elision.REPLICATION_REUSE)):
        gat = DistributedGAT(p=8, c=2, n_heads=4, r_in=32, r_head=16,
                             elision=elision)
        gat.forward(S_adj, X)
        out[f"apps.gat_forward_{key}_ms"] = med_ms(
            ctx.rec, f"probe:apps.gat_forward_{key}",
            lambda: gat.forward(S_adj, X), reps=forwards)
        # the GAT driver owns a resident session and has no close(): dropping
        # it lets Session.__del__ join the rank threads before the next probe
        del gat
        gc.collect()
    return out


def probe_serve(C_obs, factors, rec: Recorder, quick: bool) -> Dict[str, float]:
    """Inline server over the ALS factors (diagnostic: serving is parked)."""
    from repro import Server
    from repro.apps.als import AlsServeModel
    from repro.serve.request import AlsTopKRequest

    A, B = factors
    width, requests = 16, (16 if quick else 64)
    model = AlsServeModel(A, B, seen=C_obs, p=4, batch_width=width)
    with Server(model, background=False) as server:
        with rec.span("probe:serve.topk") as sp:
            futures = [server.submit(AlsTopKRequest("als", user=u, k=10))
                       for u in range(requests)]
            server.drain()
        stats = server.stats()
    if stats["outcomes"]["ok"] != len(futures):
        raise NotMeasured(f"serve outcomes {stats['outcomes']}")
    return {"serve.topk_req_ms": sp.ms / requests,
            "serve.batch_fill": stats["batch_size_mean"] / width}


#: (probe, metrics it yields); a probe runs when any of them is measured on
#: the workload (spec.Metric.on)
PROBES = (
    (probe_runtime, tuple(n for n in _names("runtime.") if n != "runtime.msgs_per_op")),
    (probe_comm_sparse, _names("comm_sparse.")),
    (probe_algorithms, ("algorithms.distribute_sparse_ms",
                        "algorithms.bind_dense_ms", "algorithms.collect_ms")),
    (probe_family_sweep, _names("algorithms.family_ms.") + ("model.auto_regret",)),
    (probe_overlap, ("algorithms.overlap_speedup",)),
    (probe_elision, ("algorithms.elision_words_saved_frac",)),
    (probe_kernels, _names("kernels.")),
    (probe_host, _names("host.")),
    (probe_sparse, ("sparse.partition_2d_ms", "sparse.row_block_imbalance")),
    (probe_model, ("model.resolve_ms",)),
    (probe_baselines, _names("baselines.")),
    (probe_gat, ("apps.gat_forward_none_ms", "apps.gat_forward_reuse_ms")),
)


def run_probes(
    ctx: ProbeContext, values: Dict[str, Any], reasons: Dict[str, str]
) -> None:
    """Run every probe in scope, each in its own try block."""
    for probe, names in PROBES:
        if not any(ctx.w.name in spec.BY_NAME[n].on for n in names):
            continue
        guarded(probe.__name__, names, lambda: probe(ctx), ctx.rec, values, reasons)


def guarded(
    label: str, names: Tuple[str, ...], fn: Callable[[], Dict[str, Any]],
    rec: Recorder, values: Dict[str, Any], reasons: Dict[str, str],
) -> None:
    """Merge ``fn()``'s metrics into ``values``; on any failure set the
    probe's metrics to ``None`` and record why.  This is the boundary that
    must keep running: one broken layer may not take the run down."""
    try:
        with rec.span(f"probe:{label}"):
            got = fn()
    except NotMeasured as exc:
        got = {name: exc for name in names}
    except Exception as exc:  # noqa: BLE001 - isolation boundary, see docstring
        why = NotMeasured(
            f"{type(exc).__name__}: {exc} "
            f"[{traceback.extract_tb(exc.__traceback__)[-1].name}]"
        )
        got = {name: why for name in names}
    for name, value in got.items():
        if isinstance(value, NotMeasured):
            values[name], reasons[name] = None, str(value)
        else:
            values[name] = float(value)
