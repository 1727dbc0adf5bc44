"""Serving benchmark driver: batched vs unbatched under R-MAT traffic.

Builds power-law serving workloads (R-MAT interaction graphs from
:mod:`repro.sparse.generate`; request users/nodes sampled proportionally
to degree, the hub-heavy skew production traffic shows) and measures the
micro-batching front-end two ways:

* **closed loop** — a fixed request set submitted back-to-back through
  the deterministic inline server, once with micro-batching
  (``batch_width`` panels) and once unbatched (``batch_width=1``: every
  request pays a full session call).  The headline is *amortized
  per-request latency* — total serving wall time over requests — which
  is what a saturated front-end's throughput is made of.
* **open loop** — Poisson arrivals (seeded) against the background
  server, reporting the request-latency percentiles and throughput a
  client actually observes, queue wait included.

A script, not part of the package (it drives :mod:`repro.serve` *and*
the app models, which sit above it): ``PYTHONPATH=src python
benchmarks/bench_serve.py --help``.  The CI ``serve-smoke`` lane runs it
and uploads the stats JSON; ``tests/test_serve.py`` loads it by path and
asserts the batched-beats-unbatched headline on a small run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.als import AlsServeModel
from repro.apps.gat import GatServeModel
from repro.serve.request import AlsTopKRequest, GatEdgeScoreRequest, Request
from repro.serve.server import Server
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import rmat


def _degree_weighted_choice(
    rng: np.random.Generator, graph: CooMatrix, size: int, n: int
) -> np.ndarray:
    """Sample ids proportionally to (1 + out-degree): power-law traffic."""
    deg = np.bincount(graph.rows, minlength=n).astype(np.float64) + 1.0
    return rng.choice(n, size=size, p=deg / deg.sum())


def build_workloads(
    n_users: int = 256,
    n_items: int = 192,
    d: int = 16,
    r_in: int = 16,
    p: int = 4,
    batch_width: int = 16,
    n_requests: int = 64,
    k: int = 10,
    seed: int = 0,
    workloads: Sequence[str] = ("als", "gat"),
) -> Dict[str, Tuple[Any, List[Request]]]:
    """``{workload: (ServeModel, requests)}`` for the requested workloads."""
    rng = np.random.default_rng(seed)
    out: Dict[str, Tuple[Any, List[Request]]] = {}

    if "als" in workloads:
        interactions = rmat(
            scale=8, edge_factor=6.0, seed=seed, square_shape=n_users,
            values="ones",
        )
        seen = CooMatrix(
            interactions.rows, interactions.cols % n_items,
            np.ones(interactions.nnz), (n_users, n_items), dedupe=True,
        )
        user_factors = rng.standard_normal((n_users, d))
        item_factors = rng.standard_normal((n_items, d))
        model = AlsServeModel(
            user_factors, item_factors, seen=seen, p=p,
            batch_width=batch_width,
        )
        users = _degree_weighted_choice(rng, interactions, n_requests, n_users)
        reqs: List[Request] = [
            AlsTopKRequest(model_id="als", user=int(u), k=k) for u in users
        ]
        out["als"] = (model, reqs)

    if "gat" in workloads:
        adjacency = rmat(
            scale=8, edge_factor=6.0, seed=seed + 1, square_shape=n_users,
        )
        features = rng.standard_normal((n_users, r_in))
        model_g = GatServeModel(
            adjacency, features, p=p, batch_width=batch_width, seed=seed,
        )
        nodes = _degree_weighted_choice(
            rng, adjacency, 4 * n_requests, n_users
        )
        # distinct nodes per run: duplicates would defer across batches
        # and make the batched/unbatched comparison uneven
        uniq = list(dict.fromkeys(int(v) for v in nodes))[:n_requests]
        reqs_g: List[Request] = [
            GatEdgeScoreRequest(model_id="gat", node=v) for v in uniq
        ]
        out["gat"] = (model_g, reqs_g)

    return out


def run_closed_loop(
    model: Any, requests: Sequence[Request], max_queue: Optional[int] = None
) -> Dict[str, Any]:
    """Submit every request back-to-back through the inline server and
    drain; returns the stats snapshot plus amortized per-request wall ms."""
    with Server(
        model, background=False,
        max_queue=max_queue or max(len(requests), 1),
    ) as srv:
        t0 = time.perf_counter()
        futures = [srv.submit(req) for req in requests]
        srv.drain()
        wall_s = time.perf_counter() - t0
        assert all(f.done() for f in futures)
        snap = srv.stats()
    snap["wall_s"] = wall_s
    snap["amortized_ms_per_request"] = (
        wall_s * 1e3 / max(len(requests), 1)
    )
    return snap


def run_open_loop(
    model: Any,
    requests: Sequence[Request],
    rate_rps: float,
    seed: int = 0,
    window_ms: float = 5.0,
    max_queue: Optional[int] = None,
) -> Dict[str, Any]:
    """Poisson arrivals (seeded exponential gaps) against the background
    server; returns the stats snapshot the open-loop client observed."""
    rng = np.random.default_rng(seed)
    gaps_s = rng.exponential(1.0 / rate_rps, size=len(requests))
    with Server(
        model, background=True, window_ms=window_ms,
        max_queue=max_queue or max(len(requests), 1),
    ) as srv:
        t0 = time.perf_counter()
        next_t = t0
        for req, gap in zip(requests, gaps_s):
            next_t += gap
            delay = next_t - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            srv.submit(req)
        # settle everything before the stats snapshot
        deadline = time.perf_counter() + 60.0
        while srv.pending() and time.perf_counter() < deadline:
            time.sleep(0.005)
        srv.drain()
        wall_s = time.perf_counter() - t0
        snap = srv.stats()
    snap["wall_s"] = wall_s
    snap["offered_rps"] = rate_rps
    return snap


def _best_closed_loop(
    model: Any, requests: Sequence[Request], rounds: int
) -> Dict[str, Any]:
    """Best-of-``rounds`` closed loop (min over rounds: robust to
    scheduler noise on shared runners, where a single slow round would
    poison a mean).  The base snapshot is the round with the lowest
    amortized per-request cost; the gate headlines — latency percentiles
    and throughput — are then floored/ceiled across *all* rounds, because
    the chosen round's tail is itself one noisy sample while the
    min-across-rounds tail is a stable steady-state estimate (a closed
    loop's p99 tracks its total wall time)."""
    snaps: List[Dict[str, Any]] = [
        run_closed_loop(model, requests) for _ in range(max(rounds, 1))
    ]
    best = min(snaps, key=lambda s: s["amortized_ms_per_request"])
    for key in ("latency_ms", "queue_ms"):
        best[key] = {
            q: min(s[key][q] for s in snaps) for q in best[key]
        }
    best["throughput_rps"] = max(s["throughput_rps"] for s in snaps)
    best["wall_s"] = min(s["wall_s"] for s in snaps)
    return best


def bench_serve(
    n_users: int = 256,
    n_items: int = 192,
    d: int = 16,
    p: int = 4,
    batch_width: int = 16,
    n_requests: int = 64,
    seed: int = 0,
    open_loop_rate_rps: Optional[float] = None,
    workloads: Sequence[str] = ("als", "gat"),
    rounds: int = 5,
) -> Dict[str, Any]:
    """The full serving benchmark: per workload, best-of-``rounds``
    closed-loop batched vs unbatched (+ optional open-loop Poisson on the
    batched config)."""
    record: Dict[str, Any] = {
        "config": {
            "n_users": n_users, "n_items": n_items, "d": d, "p": p,
            "batch_width": batch_width, "n_requests": n_requests,
            "seed": seed,
        }
    }
    built = build_workloads(
        n_users=n_users, n_items=n_items, d=d, p=p,
        batch_width=batch_width, n_requests=n_requests, seed=seed,
        workloads=workloads,
    )
    for name, (model, requests) in built.items():
        batched = _best_closed_loop(model, requests, rounds)
        model.batch_width = 1
        unbatched = _best_closed_loop(model, requests, rounds)
        model.batch_width = batch_width
        entry: Dict[str, Any] = {
            "batched": batched,
            "unbatched": unbatched,
            "amortized_speedup": (
                unbatched["amortized_ms_per_request"]
                / max(batched["amortized_ms_per_request"], 1e-12)
            ),
            "throughput_ratio": (
                batched["throughput_rps"]
                / max(unbatched["throughput_rps"], 1e-12)
            ),
        }
        if open_loop_rate_rps:
            entry["open_loop"] = run_open_loop(
                model, requests, rate_rps=open_loop_rate_rps, seed=seed
            )
        record[name] = entry
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="micro-batched serving bench: batched vs unbatched, "
        "R-MAT traffic",
    )
    parser.add_argument("--n-users", type=int, default=256)
    parser.add_argument("--n-items", type=int, default=192)
    parser.add_argument("--d", type=int, default=16, help="latent dim")
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--batch-width", type=int, default=16)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--open-loop-rps", type=float, default=None, metavar="RPS",
        help="also run open-loop Poisson arrivals at this offered rate",
    )
    parser.add_argument(
        "--workloads", default="als,gat",
        help="comma-separated subset of als,gat",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full stats record as JSON",
    )
    args = parser.parse_args(argv)

    record = bench_serve(
        n_users=args.n_users,
        n_items=args.n_items,
        d=args.d,
        p=args.p,
        batch_width=args.batch_width,
        n_requests=args.requests,
        seed=args.seed,
        open_loop_rate_rps=args.open_loop_rps,
        workloads=tuple(args.workloads.split(",")),
    )
    for name in ("als", "gat"):
        if name not in record:
            continue
        entry = record[name]
        b, u = entry["batched"], entry["unbatched"]
        print(
            f"{name}: batched {b['amortized_ms_per_request']:.3f} ms/req "
            f"(p50 {b['latency_ms']['p50']:.2f} / p99 "
            f"{b['latency_ms']['p99']:.2f} ms, {b['throughput_rps']:.1f} "
            f"req/s, mean batch {b['batch_size_mean']:.1f})"
        )
        print(
            f"{'':>{len(name)}}  unbatched {u['amortized_ms_per_request']:.3f} "
            f"ms/req ({u['throughput_rps']:.1f} req/s) -> amortized speedup "
            f"{entry['amortized_speedup']:.2f}x, throughput "
            f"{entry['throughput_ratio']:.2f}x"
        )
        if "open_loop" in entry:
            o = entry["open_loop"]
            print(
                f"{'':>{len(name)}}  open-loop @{o['offered_rps']:.0f} req/s: "
                f"p50 {o['latency_ms']['p50']:.2f} / p99 "
                f"{o['latency_ms']['p99']:.2f} ms, served "
                f"{o['throughput_rps']:.1f} req/s"
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        print(f"stats JSON written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
