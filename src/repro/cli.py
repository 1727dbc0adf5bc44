"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``info``
    Print the algorithm registry, supported elisions and feasible
    replication factors for a processor count.
``predict``
    What ``repro.plan(algorithm="auto", ...)`` would resolve to for a
    problem's shape statistics, without generating it: every
    ``(row, c, comm)`` candidate of the joint decision with its modeled
    FusedMM time, words, messages and buffer words, plus the winner —
    the same table ``run`` prints under ``why``.
``run``
    Execute a distributed FusedMM on a generated workload: print the
    resolved plan (``Session.explain()``: every knob and why each
    ``auto`` chose what it chose), then measured traffic and modeled time.
``mpi-smoke``
    The ``mpirun`` entry point for the MPI execution backend: under
    ``mpirun -n p python -m repro.cli mpi-smoke`` every process runs each
    algorithm family (every elision, each supported comm mode) twice —
    once on the in-process thread backend as the reference, once on
    ``backend="mpi"`` — and asserts the outputs are **bitwise**
    identical.  Self-contained by design (the reference is deterministic,
    so every process computes it locally); this is what the CI mpi lane
    runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import (
        ALGORITHMS,
        feasible_replication_factors,
        supported_elisions,
    )

    print(f"{'algorithm':<24} {'elisions':<42} feasible c at p={args.p}")
    for name in sorted(ALGORITHMS):
        els = ", ".join(e.value for e in supported_elisions(name))
        feas = feasible_replication_factors(name, args.p)
        print(f"{name:<24} {els:<42} {list(feas)}")
    return 0


def _placement_line(plan) -> str:
    """``placement`` with the grain it was decided from (and, once a pool
    exists, the core it took)."""
    why = plan.why["placement"]
    where = "" if plan.core is None else f" on core {plan.core}"
    return (
        f"placement={plan.placement}{where}  (grain {why['grain_flops']:,.0f} "
        f"FLOPs per local kernel call over {why['phases']} phase(s), packed "
        f"below {why['threshold_flops']:,}: {why['reason']})"
    )


def _layout_line(plan) -> str:
    """``layout`` with the two statistics it was decided from."""
    why = plan.why["layout"]
    if why["row_imbalance"] is None:
        return f"layout={plan.layout}  ({why['reason']})"
    imbalance = max(why["row_imbalance"], why["col_imbalance"])
    return (
        f"layout={plan.layout}  (block imbalance {imbalance:.3g}, permuted above "
        f"{why['threshold']}; union proxy {why['union_natural']:,} natural, "
        f"{why['union_permuted']:,} permuted: {why['reason']})"
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    import inspect

    import repro
    from repro.model.resolve import resolve

    # the session's own decision on shape statistics alone: every knob not
    # given here at repro.plan's default, no matrix generated, no rank
    knobs = {
        name: param.default
        for name, param in inspect.signature(repro.plan).parameters.items()
        if param.default is not inspect.Parameter.empty
    }
    knobs.update(p=args.p, elision=args.elision, comm=args.comm)
    nnz = int(args.n * args.nnz_per_row)
    plan = resolve(args.n, args.n, nnz, args.r, **knobs)
    print(
        f"n={args.n:,}  r={args.r}  nnz/row={args.nnz_per_row}  p={args.p}  "
        f"phi={plan.phi:.4f}  elision={args.elision}  comm={args.comm}\n"
    )
    table = plan.why["algorithm"]["candidates"]
    print(
        f"cheapest first; a dense candidate competes at "
        f"{plan.why['algorithm']['margin']} x its modeled time\n"
        f"{'variant':<40} {'c':>4} {'comm':<7} {'modeled':>11} {'words':>13} "
        f"{'msgs':>5} {'buffer words':>13}"
    )
    for rec in sorted(table, key=lambda rec: rec["score"]):
        print(
            f"{rec['row']:<40} {rec['c']:>4} {rec['comm']:<7} "
            f"{rec['seconds']*1e3:>8.3f} ms {rec['words']:>13,.0f} "
            f"{rec['messages']:>5.0f} {rec['buffer_words']:>13,.0f}"
            + ("  (*)" if "caveat" in rec else "")
        )
    for caveat in sorted({rec["caveat"] for rec in table if "caveat" in rec}):
        print(f"(*) {caveat}")
    print(
        f"\npredicted winner: {plan.why['algorithm']['row']}  c={plan.c}  "
        f"comm={plan.comm_mode.value}\n"
        + _placement_line(plan)
        + "\n"
        + _layout_line(plan)
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json
    import time

    import repro

    S = repro.erdos_renyi(args.n, args.n, args.nnz_per_row, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    A = rng.standard_normal((args.n, args.r))
    B = rng.standard_normal((args.n, args.r))

    # plan/distribute once, then run --calls FusedMM invocations against
    # the resident session (the dense operands rebind per call; the sparse
    # operand and its comm plans never move again)
    trace = "on" if args.trace_out else "off"
    t0 = time.perf_counter()
    with repro.plan(
        S, args.r, p=args.p, c=args.c, algorithm=args.algorithm,
        elision=args.elision, comm=args.comm, trace=trace,
        deadline_ms=args.deadline_ms, retries=args.retries,
        backend=args.backend, kernels=args.kernels,
    ) as sess:
        plan_seconds = time.perf_counter() - t0
        print(json.dumps(sess.explain().as_dict(), indent=2))
        call_seconds = []
        for _ in range(max(args.calls, 1)):
            t1 = time.perf_counter()
            out, report = sess.fusedmm_a(A, B)
            call_seconds.append(time.perf_counter() - t1)

        print(report.summary())
        print(
            f"\nmodeled time on cori-knl for {args.calls} call(s): "
            f"{report.modeled_total_seconds(repro.CORI_KNL)*1e3:.3f} ms"
        )
        print(_placement_line(sess.explain()))
        print(_layout_line(sess.explain()))
        # only the pooled (sparse-family) paths measure peak buffers
        if report.peak_buffer_bytes:
            print(f"peak panel buffers: {report.peak_buffer_bytes} bytes/rank")
        print(
            f"plan (knob resolution): {plan_seconds*1e3:.3f} ms; driver time/call: "
            f"first {call_seconds[0]*1e3:.3f} ms (includes the one-time "
            f"distribution), amortized "
            f"{sum(call_seconds)/len(call_seconds)*1e3:.3f} ms "
            f"over {len(call_seconds)} call(s)"
        )
        if args.trace_out:
            sess.export_trace(args.trace_out)
            print(f"\nChrome trace written to {args.trace_out} "
                  f"(load in https://ui.perfetto.dev)")
            print(sess.timeline().summary())
        print(f"output shape: {out.shape}")
    return 0


def _cmd_mpi_smoke(args: argparse.Namespace) -> int:
    import repro
    from repro.algorithms.registry import (
        ALGORITHMS,
        feasible_replication_factors,
        supported_elisions,
        supports_sparse_comm,
    )
    from repro.runtime.backend import resolve_backend

    resolve_backend("mpi")  # typed install hint before any MPI call
    from repro.runtime.backend_mpi import mpi_world_rank, mpi_world_size

    p = mpi_world_size()
    rank = mpi_world_rank()
    root = rank == 0

    n, r = args.n, args.r
    S = repro.erdos_renyi(n, n, args.nnz_per_row, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((n, r))

    def run_case(name, elision, comm, backend):
        # two calls per session: the second exercises the resident
        # distribution, skip-rebind tracking and repeated pool dispatch
        with repro.plan(
            S, r, p=p, algorithm=name, elision=elision, comm=comm,
            backend=backend,
        ) as sess:
            for _ in range(max(args.calls, 1)):
                out, _ = sess.fusedmm_a(A, B)
        return out

    families = (
        args.families.split(",") if args.families else sorted(ALGORITHMS)
    )
    checked, failures = 0, []
    for name in families:
        if not feasible_replication_factors(name, p):
            if root:
                print(f"SKIP {name}: no feasible replication factor at p={p}")
            continue
        comm_modes = ["dense"]
        if supports_sparse_comm(name):
            comm_modes.append("sparse")
        # every elision: between them the family's rounds cover input,
        # accumulating and output-circulating lanes (and, with
        # comm="sparse", the packed gathers and reductions)
        for elision in supported_elisions(name):
            for comm in comm_modes:
                ref = run_case(name, elision, comm, "threads")
                out = run_case(name, elision, comm, "mpi")
                ok = np.array_equal(ref, out)
                checked += 1
                if not ok:
                    failures.append((name, elision.value, comm))
                if root:
                    verdict = "OK " if ok else "FAIL"
                    print(
                        f"{verdict} {name:<24} elision={elision.value:<20} "
                        f"comm={comm:<6} thread-vs-mpi bitwise"
                    )
    if failures:
        if root:
            print(f"\n{len(failures)}/{checked} case(s) diverged: {failures}")
        return 1
    if root:
        print(
            f"\nall {checked} case(s) bitwise-identical across backends "
            f"(p={p}, n={n}, r={r}, calls={args.calls})"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-memory sparse kernels (IPDPS'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", help="registry, elisions, feasible replication factors"
    )
    p_info.add_argument("--p", type=int, default=16)
    p_info.set_defaults(func=_cmd_info)

    p_pred = sub.add_parser("predict", help="Table III/IV model for a problem")
    p_pred.add_argument("--n", type=int, default=1 << 20)
    p_pred.add_argument("--r", type=int, default=128)
    p_pred.add_argument("--nnz-per-row", type=float, default=16.0)
    p_pred.add_argument("--p", type=int, default=256)
    p_pred.add_argument("--elision", default="replication-reuse")
    p_pred.add_argument("--comm", default="dense", choices=["dense", "sparse", "auto"])
    p_pred.set_defaults(func=_cmd_predict)

    p_run = sub.add_parser("run", help="execute a distributed FusedMM")
    p_run.add_argument("--n", type=int, default=4096)
    p_run.add_argument("--r", type=int, default=64)
    p_run.add_argument("--nnz-per-row", type=float, default=8.0)
    p_run.add_argument("--p", type=int, default=8)
    p_run.add_argument("--c", type=int, default=None)
    p_run.add_argument("--algorithm", default="auto")
    p_run.add_argument("--elision", default="replication-reuse")
    p_run.add_argument(
        "--comm", default="dense", choices=["dense", "sparse", "auto"],
        help="communication layer: dense ring collectives, need-list "
        "sparse collectives, or model-driven choice",
    )
    p_run.add_argument("--calls", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-call watchdog horizon: a rank blocked past this raises "
        "SpmdTimeout with a per-rank blocked-state dump instead of hanging",
    )
    p_run.add_argument(
        "--retries", type=int, default=0,
        help="re-execute a call that died of a runtime fault up to N times "
        "(never re-plans); a comm=sparse run degrades to the dense "
        "collectives before surfacing the error",
    )
    p_run.add_argument(
        "--backend", default="threads", choices=["threads", "mpi"],
        help="execution backend: simulated thread ranks (default) or "
        "mpirun-resident processes (launch the whole command under "
        "`mpirun -n p`, with --p equal to the MPI world size)",
    )
    p_run.add_argument(
        "--kernels", default="numpy", choices=["numpy", "numba", "auto"],
        help="local-kernel backend: vectorized numpy/scipy (default), "
        "numba-JIT prange kernels (requires numba; warmed at plan time), "
        "or the fastest backend by measured per-host calibration",
    )
    p_run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable span tracing (trace='on') and write a Chrome "
        "trace-event JSON loadable in Perfetto; also prints the derived "
        "per-rank occupancy analysis",
    )
    p_run.set_defaults(func=_cmd_run)

    p_mpi = sub.add_parser(
        "mpi-smoke",
        help="bitwise thread-vs-mpi equivalence check (run under mpirun)",
    )
    p_mpi.add_argument("--n", type=int, default=256)
    p_mpi.add_argument("--r", type=int, default=16)
    p_mpi.add_argument("--nnz-per-row", type=float, default=4.0)
    p_mpi.add_argument("--calls", type=int, default=2)
    p_mpi.add_argument("--seed", type=int, default=0)
    p_mpi.add_argument(
        "--families", default=None,
        help="comma-separated algorithm subset (default: full registry)",
    )
    p_mpi.set_defaults(func=_cmd_mpi_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
