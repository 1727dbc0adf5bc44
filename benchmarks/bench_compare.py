"""CI benchmark regression gate: fresh BENCH_sparse_comm.json vs baseline.

Compares the freshly measured ``BENCH_sparse_comm.json`` (written by
``bench_sparse_comm.py`` + ``bench_session.py``) against the committed
``benchmarks/baseline/BENCH_sparse_comm.baseline.json`` and fails when a
headline metric regressed beyond the tolerance (default 15%):

* **words saved** — per (algorithm, elision, phi) record at the paper's
  interesting densities (``phi <= 0.05``): the measured communication-word
  reduction of the sparse path must not drop by more than the tolerance,
  relative.  Word counts are deterministic, so genuine drift here means a
  planner/collective change leaked traffic.
* **peak buffers** — same records: the sparse path's peak panel-buffer
  bytes must not grow by more than the tolerance.  Also deterministic.
* **amortized ms per call** — per session record: wall-clock ms are
  machine-dependent, so the gate compares the machine-normalized *ratio*
  one-shot/pool.  It may degrade within tolerance, or stay at parity
  (>= 1.0) — only "the resident session became measurably slower than a
  throwaway session per call" fails.
* **batched serving** — per workload under the ``"serve"`` key (written
  by ``bench_serve.py``): the batched closed-loop p99 request latency
  must not grow beyond tolerance, the batched throughput must not drop
  beyond tolerance, and micro-batching must keep beating unbatched
  serving on amortized per-request latency (speedup >= 1.0).  Latency
  and throughput are wall-clock, so these two get the same treatment as
  the tracer-off gate below: absolute, against a baseline cut on the
  same class of runner.
* **kernel backends** — under the ``"kernels"`` key (written by
  ``bench_kernels.py``, present only in runs that executed it): the
  numpy per-kernel ms must stay within twice the tolerance of baseline,
  and when the fresh run measured numba, the compiled kernels must clear
  the speedup floors the fresh record itself declares.
* **tracer-off ms per call** — the one absolute-ms gate: the untraced
  (default) pooled per-call time must stay within tolerance of the
  baseline, so span-tracing instrumentation can never tax the disabled
  hot path unnoticed (ratios cannot catch a uniform overhead).  The
  timeline-derived ``overlap_window_occupancy`` is additionally checked
  to be a valid fraction.

Usage::

    python bench_compare.py [--baseline PATH] [--fresh PATH] [--tolerance 0.15]

Exit status 0 when every gate passes, 1 otherwise (with a per-metric
report either way).  ``--update-baseline`` rewrites the baseline from the
fresh file instead of comparing (for intentional re-baselining commits).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FRESH_PATH = REPO_ROOT / "BENCH_sparse_comm.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline" / "BENCH_sparse_comm.baseline.json"

#: densities the paper's sparse-communication claims are made at
HEADLINE_PHI = 0.05


def _comm_key(rec) -> tuple:
    return (rec["algorithm"], rec["elision"], rec["phi"])


def _session_key(rec) -> tuple:
    return (rec["algorithm"], rec["elision"], rec["comm"])


class Gate:
    """Accumulates pass/fail lines and the overall verdict."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, label: str, ok: bool, detail: str) -> None:
        mark = "ok  " if ok else "FAIL"
        self.lines.append(f"  [{mark}] {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def report(self) -> int:
        print("\n".join(self.lines))
        if self.failures:
            print(f"\nbench_compare: {len(self.failures)} regression(s) "
                  f"beyond tolerance")
            return 1
        print("\nbench_compare: all headline metrics within tolerance")
        return 0


def compare_words_and_buffers(gate: Gate, base: dict, fresh: dict, tol: float) -> None:
    base_recs = {_comm_key(r): r for r in base.get("records", [])}
    fresh_recs = {_comm_key(r): r for r in fresh.get("records", [])}
    missing = sorted(set(base_recs) - set(fresh_recs))
    for key in missing:
        gate.check(f"record {key}", False, "present in baseline, missing in fresh run")
    for key in sorted(set(base_recs) & set(fresh_recs)):
        if key[2] > HEADLINE_PHI:
            continue  # headline claims live at phi <= 0.05
        b, f = base_recs[key], fresh_recs[key]
        label = f"{key[0]}/{key[1]}@phi={key[2]}"

        # words saved (higher is better); tiny baselines are noise-floor
        b_red, f_red = b["reduction_pct"], f["reduction_pct"]
        if b_red >= 5.0:
            floor = b_red * (1.0 - tol)
            gate.check(
                f"words-saved {label}",
                f_red >= floor,
                f"baseline {b_red:.1f}% fresh {f_red:.1f}% (floor {floor:.1f}%)",
            )

        # sparse-path peak buffer bytes (lower is better)
        b_buf, f_buf = b["sparse_peak_buffer_bytes"], f["sparse_peak_buffer_bytes"]
        if b_buf > 0:
            ceil = b_buf * (1.0 + tol)
            gate.check(
                f"peak-buffer {label}",
                f_buf <= ceil,
                f"baseline {b_buf} B fresh {f_buf} B (ceiling {ceil:.0f} B)",
            )


def compare_session_ms(gate: Gate, base: dict, fresh: dict, tol: float) -> None:
    base_sess = {_session_key(r): r for r in base.get("session", {}).get("records", [])}
    fresh_sess = {_session_key(r): r for r in fresh.get("session", {}).get("records", [])}
    missing = sorted(set(base_sess) - set(fresh_sess))
    for key in missing:
        gate.check(f"session {key}", False, "present in baseline, missing in fresh run")
    # wall-clock ms are machine-dependent: gate on the machine-normalized
    # ratios, and accept parity (>= 1.0) regardless of the baseline ratio.
    # The sync/overlap ratio sits near 1.0 by construction (two best-of-N
    # timings of identical kernels), so its noise is double-sided and the
    # pool ratio's margin (baselines 1.2-1.9x) does not exist — it gets
    # twice the tolerance so routine scheduler jitter cannot flip it.
    ratio_metrics = [
        ("amortized-ms one-shot/pool", "speedup", 1.0),
        ("amortized-ms sync/overlap", "overlap_speedup", 2.0),
    ]
    for key in sorted(set(base_sess) & set(fresh_sess)):
        b, f = base_sess[key], fresh_sess[key]
        label = "/".join(key)
        for name, field, noise in ratio_metrics:
            if field not in b:
                continue  # metric introduced after this baseline was cut
            b_ratio, f_ratio = b[field], f.get(field, 0.0)
            floor = min(b_ratio * (1.0 - noise * tol), 1.0)
            gate.check(
                f"{name} {label}",
                f_ratio >= floor,
                f"baseline {b_ratio:.2f}x fresh {f_ratio:.2f}x (floor {floor:.2f}x)",
            )

        # overlap efficiency: the measured fraction of the perfectly-
        # hideable communication the pipeline captured.  The structure is
        # deterministic (the same exchanges are posted behind the same
        # kernels) but the *split* is a wall-clock race whose value
        # depends on host topology — a single-core recorder reports ~1.0
        # (peers' sends complete while the waiter is descheduled) where a
        # multicore runner measures a genuine mid-range fraction — so a
        # relative floor would encode the baseline machine, not the code.
        # The stable, machine-independent property is the headline one:
        # a shifting family that hid *any* communication in the baseline
        # must never regress to hiding none.
        if "overlap_efficiency" in b and b["overlap_efficiency"] > 0.0:
            b_eff = b["overlap_efficiency"]
            f_eff = f.get("overlap_efficiency", 0.0)
            gate.check(
                f"overlap-efficiency {label}",
                f_eff > 0.0,
                f"baseline {b_eff:.2f} fresh {f_eff:.2f} (must stay > 0)",
            )

        # tracer-off per-call wall time: tracing is opt-in, so the default
        # (untraced) hot path must not pick up instrumentation overhead.
        # This is the one absolute-ms gate — it exists precisely to catch
        # "someone made the disabled path cost something", which the
        # machine-normalized ratios above cannot see because every mode
        # pays the same overhead.
        if "session_ms_per_call" in b and b["session_ms_per_call"] > 0:
            b_ms, f_ms = b["session_ms_per_call"], f.get("session_ms_per_call", 0.0)
            ceil = b_ms * (1.0 + tol)
            gate.check(
                f"tracer-off ms/call {label}",
                0.0 < f_ms <= ceil,
                f"baseline {b_ms:.3f} ms fresh {f_ms:.3f} ms (ceiling {ceil:.3f} ms)",
            )

        # timeline-derived overlap-window occupancy: a fraction by
        # construction; its magnitude is host-dependent (see the
        # overlap-efficiency note) so only its domain is gated
        if "overlap_window_occupancy" in f:
            f_occ = f["overlap_window_occupancy"]
            gate.check(
                f"overlap-window-occupancy {label}",
                0.0 <= f_occ <= 1.0,
                f"fresh {f_occ:.4f} (must be within [0, 1])",
            )


def compare_serve(gate: Gate, base: dict, fresh: dict, tol: float) -> None:
    base_srv = base.get("serve", {})
    fresh_srv = fresh.get("serve", {})
    for name in sorted(k for k in base_srv if k != "config"):
        if name not in fresh_srv:
            gate.check(f"serve {name}", False,
                       "present in baseline, missing in fresh run")
            continue
        b, f = base_srv[name]["batched"], fresh_srv[name]["batched"]
        # p99 and throughput are single-sided wall-clock measurements
        # (even best-of-rounds, a closed loop's tail tracks total wall
        # time), so like the sync/overlap ratio above they get twice the
        # tolerance — routine scheduler jitter on shared runners must not
        # flip them, while a genuine 2x regression still fails hard
        noise = 2.0

        # batched p99 request latency (lower is better): queue wait +
        # panel fill + one session call — the tail a serving client sees
        b_p99 = b["latency_ms"]["p99"]
        f_p99 = f.get("latency_ms", {}).get("p99", float("inf"))
        if b_p99 > 0:
            ceil = b_p99 * (1.0 + noise * tol)
            gate.check(
                f"serve-p99 {name}",
                0.0 < f_p99 <= ceil,
                f"baseline {b_p99:.3f} ms fresh {f_p99:.3f} ms "
                f"(ceiling {ceil:.3f} ms)",
            )

        # batched closed-loop throughput (higher is better)
        b_rps = b["throughput_rps"]
        f_rps = f.get("throughput_rps", 0.0)
        if b_rps > 0:
            floor = b_rps * (1.0 - noise * tol)
            gate.check(
                f"serve-throughput {name}",
                f_rps >= floor,
                f"baseline {b_rps:.1f} req/s fresh {f_rps:.1f} req/s "
                f"(floor {floor:.1f} req/s)",
            )

        # the machine-normalized headline: micro-batching must keep
        # beating unbatched serving on amortized per-request latency
        f_speedup = fresh_srv[name].get("amortized_speedup", 0.0)
        gate.check(
            f"serve-amortized-speedup {name}",
            f_speedup >= 1.0,
            f"fresh {f_speedup:.2f}x (batched must stay at or above "
            f"unbatched parity)",
        )


def compare_kernels(gate: Gate, base: dict, fresh: dict, tol: float) -> None:
    """Kernel-backend record (written by ``bench_kernels.py``).

    Skips silently when the fresh run did not produce the ``"kernels"``
    key (the sparse-comm-smoke lane does not run bench_kernels.py — only
    the kernel-backends lane does).  Two gates:

    * numpy per-kernel ms vs baseline — the default path's absolute
      cost.  Wall-clock and single-sided, so like the serve latencies it
      gets twice the tolerance.
    * numba speedup floors — re-asserted from the *fresh* record's own
      ``"floors"`` (bench_kernels.py embeds its gate so this script
      needs no import), only when the fresh run measured numba.
    """
    fresh_k = fresh.get("kernels")
    if not fresh_k:
        return
    base_k = base.get("kernels", {})
    noise = 2.0

    base_np = base_k.get("backends", {}).get("numpy", {})
    fresh_np = fresh_k.get("backends", {}).get("numpy", {})
    for kernel in sorted(base_np):
        if kernel not in fresh_np:
            gate.check(f"kernel-ms {kernel}", False,
                       "present in baseline, missing in fresh run")
            continue
        b_ms, f_ms = base_np[kernel], fresh_np[kernel]
        if b_ms <= 0:
            continue
        ceil = b_ms * (1.0 + noise * tol)
        gate.check(
            f"kernel-ms numpy/{kernel}",
            0.0 < f_ms <= ceil,
            f"baseline {b_ms:.3f} ms fresh {f_ms:.3f} ms (ceiling {ceil:.3f} ms)",
        )

    speedup = fresh_k.get("speedup")
    if speedup:
        for kernel, floor in fresh_k.get("floors", {}).items():
            got = speedup.get(kernel, 0.0)
            gate.check(
                f"kernel-speedup numba/{kernel}",
                got >= floor,
                f"fresh {got:.2f}x (floor {floor:.1f}x)",
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    ap.add_argument("--fresh", type=Path, default=FRESH_PATH)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative regression tolerance (default 0.15)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from the fresh file and exit")
    args = ap.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"baseline updated from {args.fresh}")
        return 0
    base = json.loads(args.baseline.read_text())

    gate = Gate()
    print(f"comparing {args.fresh} against {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    compare_words_and_buffers(gate, base, fresh, args.tolerance)
    compare_session_ms(gate, base, fresh, args.tolerance)
    compare_serve(gate, base, fresh, args.tolerance)
    compare_kernels(gate, base, fresh, args.tolerance)
    return gate.report()


if __name__ == "__main__":
    sys.exit(main())
