"""One-shot vs session-handle driver time: amortized cost per FusedMM call.

The session API (:func:`repro.plan`) pays knob resolution, layout
planning, sparse-operand partitioning and need-list/packed-index
construction **once**; each subsequent call only rebinds the dense
operands.  On top of that, the session's resident worker pool keeps
``p`` rank threads, their communicators and per-orientation contexts
warm across calls.  This benchmark times ``calls=5`` FusedMM invocations
two ways — five independent one-shot calls (a throwaway session each)
and five calls on one resident session — checks the outputs coincide
bitwise, and records the amortized per-call driver wall time of each.

Results are merged into ``BENCH_sparse_comm.json`` at the repository root
(under the ``"session"`` key, next to the dense-vs-sparse communication
records) for the performance trajectory, alongside the usual text table
under ``benchmarks/results/``.

Headline: the resident session's amortized per-call time must not
exceed the one-shot per-call time (it skips per-call re-distribution,
thread spawn, communicator splits and context builds) — asserted, and
recorded for the CI regression gate.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

import repro
from repro.harness.reporting import format_table

from conftest import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_sparse_comm.json"

CALLS = 5

CASES = [
    # (algorithm, elision, p, c, comm)
    ("1.5d-sparse-shift", "replication-reuse", 8, 4, "sparse"),
    ("1.5d-dense-shift", "local-kernel-fusion", 8, 2, "dense"),
    ("2.5d-sparse-replicate", "none", 8, 2, "sparse"),
]


def _time_one_shot(S, A, B, name, elision, p, c, comm):
    outs, ticks = [], []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        out, _ = repro.fusedmm_a(
            S, A, B, p=p, c=c, algorithm=name, elision=elision, comm=comm
        )
        ticks.append(time.perf_counter() - t0)
        outs.append(out)
    return ticks, outs


def _time_session(S, A, B, name, elision, p, c, comm, overlap="auto",
                  backend="threads"):
    t0 = time.perf_counter()
    sess = repro.plan(
        S, A.shape[1], p=p, c=c, algorithm=name, elision=elision, comm=comm,
        overlap=overlap, backend=backend,
    )
    plan_seconds = time.perf_counter() - t0
    outs, ticks = [], []
    for _ in range(CALLS):
        t1 = time.perf_counter()
        out, _ = sess.fusedmm_a(A, B)
        ticks.append(time.perf_counter() - t1)
        outs.append(out)
    report = sess.report()
    efficiency = report.overlap_efficiency
    sess.close()
    return plan_seconds, ticks, outs, efficiency


def _time_traced(S, A, B, name, elision, p, c, comm):
    """One traced resident-pool run per case: the per-call cost with span
    tracing on, and the derived overlap-window occupancy (fraction of
    local-kernel time with a transfer actually in flight)."""
    sess = repro.plan(
        S, A.shape[1], p=p, c=c, algorithm=name, elision=elision, comm=comm,
        overlap="on", trace="on",
    )
    ticks = []
    for _ in range(CALLS):
        t1 = time.perf_counter()
        sess.fusedmm_a(A, B)
        ticks.append(time.perf_counter() - t1)
    occupancy = sess.timeline().overlap_window_occupancy
    sess.close()
    return ticks, occupancy


def measure(scale: str):
    n = 2048 if scale == "small" else 8192
    r = 64
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((n, r))
    S = repro.erdos_renyi(n, n, 8, seed=7)

    records = []
    for name, elision, p, c, comm in CASES:
        # warm both paths (thread pools, comm-plan cache) before timing
        repro.fusedmm_a(S, A, B, p=p, c=c, algorithm=name, elision=elision, comm=comm)
        # two interleaved measurement rounds per mode: the min over both
        # decorrelates the steady-state estimate from transient scheduler
        # noise on shared runners (a single slow round cannot flip the
        # session-vs-one-shot comparison)
        ticks_os, ticks_sess = [], []
        ticks_sync, ticks_overlap = [], []
        overlap_eff = 0.0
        plan_s = None
        for rnd in range(2):
            t_os, outs_os = _time_one_shot(S, A, B, name, elision, p, c, comm)
            plan_round, t_sess, outs_sess, _ = _time_session(
                S, A, B, name, elision, p, c, comm
            )
            # sync vs overlapped phase loops on identical resident-pool
            # sessions: same plans, same warm ranks — only the software
            # pipeline differs.  The two modes alternate measurement order
            # across rounds so slow machine drift on shared runners cannot
            # systematically penalize whichever runs later.
            modes = ("off", "on") if rnd % 2 == 0 else ("on", "off")
            timed = {}
            for ov in modes:
                _, ticks_ov, outs_ov, eff_ov = _time_session(
                    S, A, B, name, elision, p, c, comm, overlap=ov
                )
                timed[ov] = (ticks_ov, outs_ov, eff_ov)
            t_sync, outs_sync, _ = timed["off"]
            t_over, outs_over, eff = timed["on"]
            ticks_os += t_os
            ticks_sess += t_sess
            ticks_sync += t_sync
            ticks_overlap += t_over
            overlap_eff = max(overlap_eff, eff)
            plan_s = plan_round if plan_s is None else min(plan_s, plan_round)
            for o_os, o_s, o_sy, o_ov in zip(
                outs_os, outs_sess, outs_sync, outs_over
            ):
                assert np.array_equal(o_os, o_s), f"{name}: session diverged"
                assert np.array_equal(o_sy, o_ov), f"{name}: overlap diverged"
        # best-of-CALLS is the steady-state driver cost per call; it is
        # robust to scheduler noise on shared runners (the mean is not)
        # and excludes the first session call, which carries the one-time
        # lazy distribution (plan_s above covers knob resolution only)
        one_shot, per_call = min(ticks_os), min(ticks_sess)
        sync_call, overlap_call = min(ticks_sync), min(ticks_overlap)
        # distribution of the pooled per-call cost across every timed call
        # (both rounds): min is the steady-state floor, p50 the typical
        # call, p99 the tail a latency-sensitive caller actually waits on
        sess_p50, sess_p99 = np.percentile(ticks_sess, [50.0, 99.0])
        os_p50, os_p99 = np.percentile(ticks_os, [50.0, 99.0])
        ticks_traced, window_occupancy = _time_traced(
            S, A, B, name, elision, p, c, comm
        )
        records.append(
            {
                "algorithm": name,
                "elision": elision,
                "p": p,
                "c": c,
                "comm": comm,
                "calls": CALLS,
                "one_shot_ms_per_call": round(one_shot * 1e3, 3),
                "one_shot_ms_per_call_mean": round(
                    sum(ticks_os) / len(ticks_os) * 1e3, 3
                ),
                "one_shot_ms_per_call_p50": round(os_p50 * 1e3, 3),
                "one_shot_ms_per_call_p99": round(os_p99 * 1e3, 3),
                "session_plan_ms": round(plan_s * 1e3, 3),
                # resident worker pool (the default session mode)
                "session_ms_per_call": round(per_call * 1e3, 3),
                "session_ms_per_call_mean": round(
                    sum(ticks_sess) / len(ticks_sess) * 1e3, 3
                ),
                "session_ms_per_call_p50": round(sess_p50 * 1e3, 3),
                "session_ms_per_call_p99": round(sess_p99 * 1e3, 3),
                "speedup": round(one_shot / per_call, 2) if per_call > 0 else 0.0,
                # synchronous vs software-pipelined phase loops (overlap)
                "sync_ms_per_call": round(sync_call * 1e3, 3),
                "overlap_ms_per_call": round(overlap_call * 1e3, 3),
                "overlap_speedup": (
                    round(sync_call / overlap_call, 3) if overlap_call > 0 else 0.0
                ),
                "overlap_efficiency": round(overlap_eff, 4),
                # observability: traced (spans-on) per-call cost and the
                # timeline-derived overlap-window occupancy of that run
                "traced_ms_per_call": round(min(ticks_traced) * 1e3, 3),
                "overlap_window_occupancy": round(window_occupancy, 4),
            }
        )
    return n, r, records


def measure_backend(scale: str, backend: str) -> None:
    """Reduced measurement for a process backend: sync-vs-overlap per-call
    time on resident sessions only.

    The full thread-backend benchmark's JSON feeds a regression gate
    whose baselines were measured on threads — so under ``--backend mpi``
    this path times the part that is meaningful on real processes (the
    overlap pipeline, whose speedup the thread runtime structurally
    cannot show) and prints it without touching
    ``BENCH_sparse_comm.json``.  Launch with ``mpirun -n 8`` (the
    benchmark grid plans p=8).
    """
    n = 2048 if scale == "small" else 8192
    r = 64
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((n, r))
    S = repro.erdos_renyi(n, n, 8, seed=7)
    rows = []
    for name, elision, p, c, comm in CASES:
        _, t_sync, outs_sync, _ = _time_session(
            S, A, B, name, elision, p, c, comm, overlap="off", backend=backend
        )
        _, t_over, outs_over, eff = _time_session(
            S, A, B, name, elision, p, c, comm, overlap="on", backend=backend
        )
        for o_sy, o_ov in zip(outs_sync, outs_over):
            assert np.array_equal(o_sy, o_ov), f"{name}: overlap diverged"
        sync_call, overlap_call = min(t_sync), min(t_over)
        rows.append(
            [
                f"{name}/{elision}/{comm}",
                round(sync_call * 1e3, 3),
                round(overlap_call * 1e3, 3),
                f"{sync_call / overlap_call:.2f}x" if overlap_call else "-",
                f"{eff:.0%}",
            ]
        )
    print(
        f"backend={backend} sync vs overlapped FusedMM, best-of-{CALLS} "
        f"driver ms/call (n={n}, r={r})"
    )
    print(
        format_table(
            ["variant", "sync ms", "overlap ms", "speedup", "eff"], rows
        )
    )


def _overlap_bound(p: int) -> float:
    """Gate multiplier for overlap-vs-sync: the thread runtime only runs
    compute beside a transfer with one hardware thread per rank, so the
    strict 1.0x bound applies exactly there.  Any oversubscribed host
    (shared CI runners included) time-slices rank compute — the pipeline
    can only shave scheduling artifacts it did not cause — so the gate
    degrades to a loose 1.25x sanity bound rather than hard-failing on
    host topology."""
    cores = os.cpu_count() or 1
    return 1.0 if cores >= p else 1.25


def check_headline(records) -> None:
    """Steady-state resident-session calls must not be slower than
    one-shot calls (the session does strictly less driver work per call:
    no re-distribution, no thread spawn, no communicator splits, no
    context rebuild; 15% slack absorbs residual wall-clock noise on
    shared CI runners)."""
    for rec in records:
        assert rec["session_ms_per_call"] <= 1.15 * rec["one_shot_ms_per_call"], (
            f"{rec['algorithm']}: session per-call {rec['session_ms_per_call']} ms "
            f"exceeds one-shot {rec['one_shot_ms_per_call']} ms"
        )
        # the software pipeline only removes exposed wait time (identical
        # kernels, one extra pre-posted message per split shift), so the
        # best-of-rounds overlapped call must not be slower than sync —
        # when compute actually runs beside the transfers (_overlap_bound)
        bound = _overlap_bound(rec["p"])
        assert rec["overlap_ms_per_call"] <= bound * rec["sync_ms_per_call"], (
            f"{rec['algorithm']}: overlapped per-call "
            f"{rec['overlap_ms_per_call']} ms exceeds synchronous "
            f"{rec['sync_ms_per_call']} ms (bound {bound:.2f}x)"
        )
        # every benchmarked (shifting) family must actually hide transfer
        # time behind its local kernels
        assert rec["overlap_efficiency"] > 0.0, (
            f"{rec['algorithm']}: overlap pipeline hid no communication"
        )
        # the timeline-derived occupancy is a fraction by construction; a
        # value outside [0, 1] means the span/async-window bookkeeping
        # broke (it is host-dependent, so no lower bound is gated here)
        assert 0.0 <= rec["overlap_window_occupancy"] <= 1.0, (
            f"{rec['algorithm']}: overlap_window_occupancy "
            f"{rec['overlap_window_occupancy']} outside [0, 1]"
        )


def emit(n, r, records) -> None:
    doc = {}
    if JSON_PATH.exists():
        doc = json.loads(JSON_PATH.read_text())
    doc["session"] = {
        "benchmark": "session_amortization",
        "n": n,
        "r": r,
        "calls": CALLS,
        "records": records,
    }
    JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    rows = [
        [
            f"{rec['algorithm']}/{rec['elision']}/{rec['comm']}",
            rec["one_shot_ms_per_call"],
            rec["session_plan_ms"],
            rec["session_ms_per_call"],
            rec["session_ms_per_call_p50"],
            rec["session_ms_per_call_p99"],
            f"{rec['speedup']:.2f}x",
            rec["sync_ms_per_call"],
            rec["overlap_ms_per_call"],
            f"{rec['overlap_speedup']:.2f}x",
            f"{rec['overlap_efficiency']:.0%}",
            f"{rec['overlap_window_occupancy']:.0%}",
        ]
        for rec in records
    ]
    write_result(
        "session.txt",
        f"One-shot vs session-handle FusedMM — amortized driver ms/call "
        f"at calls={CALLS} (n={n}, r={r}); 'one-shot' = a throwaway "
        f"session per call, 'pool' = one resident session "
        f"('pool ms' = best-of-calls floor, p50/p99 = per-call "
        f"distribution over all timed calls); "
        f"'sync'/'overlap' = resident sessions with the phase-loop "
        f"software pipeline off/on ('eff' = measured fraction of the "
        f"perfectly-hideable communication actually hidden; 'window occ' "
        f"= traced-run fraction of local-kernel time with a transfer in "
        f"flight)\n"
        + format_table(
            [
                "variant",
                "one-shot ms",
                "plan ms (once)",
                "pool ms",
                "pool p50",
                "pool p99",
                "vs one-shot",
                "sync ms",
                "overlap ms",
                "overlap spdup",
                "eff",
                "window occ",
            ],
            rows,
        ),
    )


def test_bench_session(benchmark, scale):
    n, r, records = benchmark.pedantic(lambda: measure(scale), rounds=1, iterations=1)
    check_headline(records)
    emit(n, r, records)


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--backend", default="threads", choices=["threads", "mpi"],
        help="execution backend; 'mpi' runs the reduced sync-vs-overlap "
        "measurement on resident sessions (launch under `mpirun -n 8`) "
        "and does not touch the committed benchmark JSON",
    )
    ap.add_argument("--scale", default="small", choices=["small", "large"])
    cli_args = ap.parse_args()
    if cli_args.backend != "threads":
        measure_backend(cli_args.scale, cli_args.backend)
    else:
        n, r, records = measure(cli_args.scale)
        check_headline(records)
        emit(n, r, records)
        print(f"updated {JSON_PATH}")
