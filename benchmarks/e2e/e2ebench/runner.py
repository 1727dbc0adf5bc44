"""Measure one workload: cold builds, steady ops, checks, layer probes.

Closed loop, one driver thread, ``backend="threads"``, ``kernels="numpy"``
(the ``plan()`` defaults; this host has neither numba nor mpi4py).  The
untraced pass yields the end-to-end metrics; the traced pass keeps spans,
runs the layer probes and yields the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import CORI_KNL
from repro.baselines import serial
from repro.comm_sparse import clear_plan_cache

from e2ebench import probes, spec
from e2ebench.spans import Recorder
from e2ebench.stats import tail
from e2ebench.workloads import BUILDERS, AlsWorkload, Arrays, KernelWorkload

WARMUP_OPS = 8
COLD_BUILDS = 7
#: ops per spans-kept / spans-dropped block of the traced steady loop
TRACE_BLOCK = 5
#: first op of every distinct input vs the serial baseline
RTOL, ATOL = 1e-9, 1e-11
#: share of ``--seconds`` the traced pass spends on the steady loop; the
#: rest of its time goes to the layer probes
TRACED_STEADY_SHARE = 0.4


class Checker:
    """Counts ops attempted and failed; a failure never aborts the run."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._first: Dict[Any, Arrays] = {}

    def fail(self, what: str, exc: Optional[BaseException] = None) -> None:
        self.failed += 1
        if exc is not None:
            what = f"{what}: {type(exc).__name__}: {exc}"
            traceback.print_exception(type(exc), exc, exc.__traceback__)
        if len(self.errors) < 20:
            self.errors.append(what)

    def verify(self, w: KernelWorkload, variant: int, out: Arrays) -> None:
        """First output of each distinct input vs the serial baseline; every
        later one bit-for-bit equal to that first."""
        first = self._first.get(variant)
        if first is None:
            A, B = w.operands[variant]
            with self.rec.span("reference"):
                ref = w.reference(A, B)
            if all(np.allclose(o, x, rtol=RTOL, atol=ATOL) for o, x in zip(out, ref)):
                self._first[variant] = out
            else:
                self.fail(f"{w.name}: input {variant} differs from the serial baseline")
        elif not all(np.array_equal(o, x) for o, x in zip(out, first)):
            self.fail(f"{w.name}: input {variant} not bitwise-equal to its first")

    def timed_op(self, name: str, w: KernelWorkload, sess, i: int) -> Optional[float]:
        """Run op ``i`` inside a span, check it outside; wall ms, or ``None``
        when the op raised."""
        variant = i % len(w.operands)
        self.attempted += 1
        try:
            with self.rec.span(name) as sp:
                out = w.op(sess, *w.operands[variant])
        except Exception as exc:  # noqa: BLE001 - counted, never aborts
            self.fail(f"{w.name}: op {i} raised", exc)
            return None
        self.verify(w, variant, out)
        return sp.ms


def measure_kernel(
    w: KernelWorkload, rec: Recorder, check: Checker, seconds: float,
    cold_builds: int, min_ops: int, trace_block: int, want_layers: bool,
) -> Dict[str, Any]:
    """Cold builds, then a steady loop on one resident session until
    ``seconds`` have passed since the call (and at least ``min_ops`` ops).

    ``trace_block > 0`` alternates blocks of ops with spans kept and dropped
    (the traced pass), which gives the tracing overhead in one process.
    """
    deadline = time.perf_counter() + seconds
    cold_ms, plan_ms, first_ms = [], [], []
    for _ in range(cold_builds):
        check.attempted += 1
        sess = None
        try:
            with rec.span("cold_build") as whole:
                clear_plan_cache()
                with rec.span("cold_build:plan") as sp_plan:
                    sess = w.config.plan()
                with rec.span("cold_build:first_op") as sp_first:
                    out = w.op(sess, *w.operands[0])
        except Exception as exc:  # noqa: BLE001 - counted, never aborts
            check.fail(f"{w.name}: cold build raised", exc)
        else:
            check.verify(w, 0, out)
            cold_ms.append(whole.ms)
            plan_ms.append(sp_plan.ms)
            first_ms.append(sp_first.ms)
        finally:
            if sess is not None:
                sess.close()

    tracing = rec.enabled
    with w.config.plan() as sess:
        for i in range(WARMUP_OPS):
            check.timed_op("warmup_op", w, sess, i)
        sess.reset_profile()
        binds_before = (sum(sess.dense_bind_skips.values()),
                        sum(sess.dense_bind_counts.values()))
        op_ms: List[float] = []
        kept: List[bool] = []
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            if trace_block:
                rec.enabled = (i // trace_block) % 2 == 0
            ms = check.timed_op("op", w, sess, WARMUP_OPS + i)
            if ms is not None:
                op_ms.append(ms)
                kept.append(rec.enabled)
            i += 1
        rec.enabled = tracing
        n = len(op_ms)
        rep = sess.report()
        result: Dict[str, Any] = {
            "end_to_end": {
                "op_ms_p50": statistics.median(op_ms),
                "ops_per_s": n / (sum(op_ms) / 1e3),
                "setup_s": statistics.median(cold_ms) / 1e3,
                "comm_words_per_op": rep.comm_words / n,
                "modeled_cori_comm_ms_per_op":
                    rep.modeled_comm_seconds(CORI_KNL) * 1e3 / n,
                "peak_buffer_bytes": rep.peak_buffer_bytes,
            },
            "samples": {"ops": n, "cold_builds": len(cold_ms),
                        "tail_pct": tail(op_ms)[0], "tail_n": n},
            "resolved": {"algorithm": sess.algorithm, "c": sess.c,
                         "comm": sess.comm_mode.value, "overlap": sess.overlap_mode},
            "layers": {}, "reasons": {},
        }
        if want_layers:
            probes.guarded(
                "session_layer",
                probes.SESSION_LAYER_METRICS,
                lambda: probes.session_layer(sess, op_ms, plan_ms, first_ms,
                                             binds_before),
                rec, result["layers"], result["reasons"],
            )
            probes.guarded(
                "trace_overhead", ("trace.overhead_frac",),
                lambda: {"trace.overhead_frac": _overhead(op_ms, kept)},
                rec, result["layers"], result["reasons"],
            )
    return result


def _overhead(op_ms: List[float], kept: List[bool]) -> float:
    on = [ms for ms, k in zip(op_ms, kept) if k]
    off = [ms for ms, k in zip(op_ms, kept) if not k]
    if not on or not off:
        raise probes.NotMeasured("needs ops with spans kept and with spans dropped")
    return statistics.median(on) / statistics.median(off) - 1.0


def measure_als(
    w: AlsWorkload, rec: Recorder, check: Checker, seconds: float
) -> Dict[str, Any]:
    """Alternate cold 1-sweep and ``long_iters``-sweep runs; one op (sweep)
    is their difference / (long_iters - 1), set-up is the cold 1-sweep run:
    ``clear_plan_cache()`` -> two sessions planned -> first sweep returned."""
    begin = time.perf_counter()
    pattern = w.matvec.config.S
    L = w.long_iters
    runs: Dict[int, List[float]] = {1: [], L: []}
    last: Dict[int, Any] = {}
    first: Dict[int, Any] = {}

    def objective(res) -> float:
        """The ridge objective ALS minimises, on the returned factors."""
        return res.loss_history[-1] + w.als.lam * float(
            np.sum(res.A**2) + np.sum(res.B**2))

    def verify(iters: int, res) -> None:
        # ALS descends on the *ridge* objective, so the unregularised loss
        # history may wobble once it is near its floor (at the parent commit
        # sweep 4 of the full-size input goes 2.40 -> 2.55); what must hold:
        # no sweep worse than the first, the objective lower after more
        # sweeps, and the final training RMSE under the stated threshold.
        loss = res.loss_history
        rmse = math.sqrt(loss[-1] / w.C_obs.nnz) if loss else math.inf
        if len(loss) != iters or not all(x < loss[0] for x in loss[1:]):
            check.fail(f"als x{iters}: a later sweep is no better than the "
                       f"first: {loss}")
        elif not rmse <= w.rmse_threshold:
            check.fail(f"als x{iters}: rmse {rmse:.4g} > {w.rmse_threshold:.4g}")
        elif iters > 1 and 1 in first and not objective(res) < objective(first[1]):
            check.fail(f"als x{iters}: ridge objective not below the 1-sweep run's")
        elif iters not in first:
            with rec.span("reference"):
                dots = serial.sddmm_serial(pattern, res.A, res.B).vals
                ref = float(np.sum((w.C_obs.vals - dots) ** 2))
            if math.isclose(loss[-1], ref, rel_tol=RTOL, abs_tol=ATOL):
                first[iters] = res
            else:
                check.fail(f"als x{iters}: loss {loss[-1]!r} != serial {ref!r}")
        elif not (np.array_equal(res.A, first[iters].A)
                  and np.array_equal(res.B, first[iters].B)):
            check.fail(f"als x{iters}: factors not bitwise-equal to the first run")

    def run(iters: int) -> None:
        check.attempted += iters
        try:
            with rec.span("cold_build" if iters == 1 else f"sweeps_x{iters}") as sp:
                clear_plan_cache()
                res = w.als.run(w.C_obs, w.r, outer_iters=iters, seed=w.run_seed)
        except Exception as exc:  # noqa: BLE001 - counted, never aborts
            check.failed += iters - 1
            check.fail(f"als x{iters} raised", exc)
            return
        verify(iters, res)
        runs[iters].append(sp.ms)
        last[iters] = res

    while True:
        run(1)
        run(L)
        # a pair that starts before 3/4 of the budget still fits in it
        if time.perf_counter() - begin >= 0.75 * seconds:
            break

    def per_sweep(value) -> float:
        return (value(last[L].report) - value(last[1].report)) / (L - 1)

    op_ms = (statistics.median(runs[L]) - statistics.median(runs[1])) / (L - 1)
    return {
        "end_to_end": {
            "op_ms_p50": op_ms,
            "ops_per_s": 1e3 / op_ms,
            "setup_s": statistics.median(runs[1]) / 1e3,
            "comm_words_per_op": per_sweep(lambda rep: rep.comm_words),
            "modeled_cori_comm_ms_per_op":
                per_sweep(lambda rep: rep.modeled_comm_seconds(CORI_KNL) * 1e3),
            "peak_buffer_bytes": last[L].report.peak_buffer_bytes,
        },
        "samples": {"ops": len(runs[L]) * (L - 1), "cold_builds": len(runs[1]),
                    "tail_pct": 50.0, "tail_n": len(runs[L])},
        "layers": {
            # each half-sweep's CG runs cg_iters + 1 fused matvecs
            "apps.als_cg_matvec_ms": op_ms / (2 * (w.als.cg_iters + 1)),
            "apps.als_rmse": math.sqrt(last[L].loss_history[-1] / w.C_obs.nnz),
        },
        "factors": (last[L].A, last[L].B),
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool = False,
    out_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """One pass over one workload; returns (and optionally writes) its record."""
    t0 = time.perf_counter()
    rec = Recorder(name, enabled=traced)
    check = Checker(rec)
    cold_builds = 1 if quick else COLD_BUILDS
    min_ops = 2 if quick else 2 * TRACE_BLOCK
    trace_block = (1 if quick else TRACE_BLOCK) if traced else 0
    if quick:
        seconds = 0.0
    steady_seconds = seconds * (TRACED_STEADY_SHARE if traced else 1.0)
    with rec.span("workload"):
        with rec.span("generate") as gen:
            w = BUILDERS[name](seed, quick)
        if isinstance(w, AlsWorkload):
            res = measure_als(w, rec, check, steady_seconds)
            kernel, layers, reasons = w.matvec, res["layers"], {}
            if traced:
                # session.* and the layer probes run on ALS's CG matvec
                probed = measure_kernel(kernel, rec, check, 0.15 * seconds,
                                        min(cold_builds, 3), min_ops, trace_block, True)
                layers.update(probed["layers"])
                reasons.update(probed["reasons"])
                res["resolved"] = probed["resolved"]
                for key in ("tail_pct", "tail_n"):
                    res["samples"][key] = probed["samples"][key]
                probes.guarded(
                    "probe_serve", ("serve.topk_req_ms", "serve.batch_fill"),
                    lambda: probes.probe_serve(w.C_obs, res["factors"], rec, quick),
                    rec, layers, reasons,
                )
        else:
            res = probed = measure_kernel(w, rec, check, steady_seconds, cold_builds,
                                          min_ops, trace_block, traced)
            kernel, layers, reasons = w, res["layers"], res["reasons"]
        layers["sparse.generate_ms"] = gen.ms
        if traced:
            ctx = probes.ProbeContext(
                w=kernel, rec=rec, quick=quick,
                algorithm=probed["resolved"]["algorithm"], c=probed["resolved"]["c"],
                op_ms_p50=probed["end_to_end"]["op_ms_p50"],
                words_per_op=probed["end_to_end"]["comm_words_per_op"],
            )
            probes.run_probes(ctx, layers, reasons)

    e2e = res["end_to_end"]
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["failed_frac"] = check.failed / max(check.attempted, 1)
    per_layer: Dict[str, Optional[float]] = {}
    if traced:
        for m in spec.PER_LAYER:
            per_layer[m.name] = layers.get(m.name)
            if per_layer[m.name] is None and m.name not in reasons:
                reasons[m.name] = (
                    f"measured on {', '.join(m.on)} only" if name not in m.on
                    else "the probe did not report it"
                )
    record = {
        "workload": name, "seed": seed, "traced": traced, "quick": quick,
        "seconds": seconds, "size": w.size,
        "resolved": res.get("resolved"),
        "correct": check.failed == 0, "attempted": check.attempted,
        "failed": check.failed, "errors": check.errors,
        "samples": res["samples"],
        "end_to_end": {m.name: e2e.get(m.name) for m in spec.END_TO_END},
        "per_layer": per_layer, "reasons": reasons,
        "spans_well_nested": rec.well_nested(),
        "wall_s": time.perf_counter() - t0,
    }
    if traced:
        record["host"] = {"llc_bytes": probes.llc_bytes(),
                          "stream_array_bytes": probes.stream_array_bytes(quick)}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.trace{int(traced)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        if traced:
            (out_dir / f"trace-{name}.json").write_text(
                json.dumps(rec.chrome_trace()) + "\n")
    return record
