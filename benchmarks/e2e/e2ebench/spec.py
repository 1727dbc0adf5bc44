"""What the benchmark measures: workloads, metrics, units, bounds.

This table is the single source for ``BENCHMARK.json`` (root of the repo),
``compare.py``'s gates and the smoke test's schema check.  ``bound`` is the
share of the reference value by which an end-to-end metric may get worse
before it counts as a regression.  ``exact`` metrics are counts made by the
program: they repeat bit for bit on one seed, so on equal seeds
``compare.py`` demands equality and applies ``bound`` only across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: (name, why) — the order is the run order
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "er_comm",
        "low phi, wide r: dense-row movement, need-list planning, packed "
        "exchanges and driver scatter/collect are the bulk of a call; local "
        "kernels do the least",
    ),
    (
        "er_compute",
        "phi=1, dense ring collectives, fresh operands every op: local "
        "SDDMM/SpMM dominate and comm_sparse is bypassed, so a sparse-comm "
        "change must show no change here",
    ),
    (
        "rmat_25d",
        "power-law skew on the 2.5D sparse-replicating family, fusedmm_a + "
        "fusedmm_b timed as a pair: stresses fiber gathers, peak buffers and "
        "the transposed sibling distribution",
    ),
    (
        "small_auto",
        "small problem, every knob on auto, four kernels per op on identical "
        "operands: fixed per-call cost and the model's decisions dominate",
    ),
    (
        "als_sweep",
        "the paper's Fig. 9 application: ALS sweeps through apps + "
        "Session.run_rank + both orientations + OTHER-phase all-reduces, to "
        "a stated training RMSE",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

ALL = WORKLOAD_NAMES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    doc: str
    bound: Optional[float] = None  # end-to-end only
    exact: bool = False
    #: workloads the metric is measured on; elsewhere it is null + a reason
    on: Tuple[str, ...] = ALL
    #: end-to-end metrics BENCHMARK.json cannot carry (see README "Contract")
    contract: bool = True


END_TO_END: Tuple[Metric, ...] = (
    Metric("op_ms_p50", "ms", "lower",
           "median wall time of one op on a resident session, after 8 warm-up "
           "ops", bound=0.25),
    Metric("ops_per_s", "1/s", "higher",
           "timed ops / sum of their wall times, at the workload's stated size",
           bound=0.25),
    Metric("setup_s", "s", "lower",
           "clear_plan_cache() -> plan -> first op returned on a fresh "
           "session; median of the cold builds in the run", bound=0.25),
    Metric("comm_words_per_op", "words", "lower",
           "rank-max words received per op, from Session.report()",
           bound=0.02, exact=True),
    Metric("modeled_cori_comm_ms_per_op", "model_ms", "lower",
           "RunReport.modeled_comm_seconds(CORI_KNL) per op: the paper's "
           "alpha-beta communication time, computed from counts, not measured",
           bound=0.02, exact=True),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the workload's process", bound=0.20),
    Metric("peak_buffer_bytes", "bytes", "lower",
           "RunReport.peak_buffer_bytes, rank-max panel-buffer footprint",
           bound=0.05, exact=True, contract=False),
    Metric("failed_frac", "ratio", "lower",
           "ops whose output failed its check or raised / ops attempted",
           bound=0.0, exact=True, contract=False),
)


def _ms(name: str, doc: str, on: Tuple[str, ...] = ALL) -> Metric:
    return Metric(name, "ms", "lower", doc, on=on)


_SPARSE_COMM = ("er_comm", "rmat_25d", "small_auto", "als_sweep")
_FAMILY_SWEEP = ("rmat_25d", "small_auto")
FAMILIES = (
    "1.5d-dense-shift",
    "1.5d-sparse-shift",
    "2.5d-dense-replicate",
    "2.5d-sparse-replicate",
)
KERNELS = (
    "sddmm_coo", "spmm_a_block", "spmm_b_block", "spmm_scatter", "fusedmm_local"
)

PER_LAYER: Tuple[Metric, ...] = (
    # -- session ---------------------------------------------------------
    _ms("session.plan_ms", "repro.plan(...) alone in a cold build (knob "
        "resolution; distribution is lazy)"),
    _ms("session.first_call_extra_ms", "first op of a cold build minus "
        "op_ms_p50: lazy distribution, need-list planning, pool spawn"),
    _ms("session.compute_ms", "rank-mean computation-phase ms per op, from "
        "Session.metrics()"),
    _ms("session.exposed_comm_ms", "rank-mean ms per op blocked on "
        "communication, from Session.metrics()"),
    Metric("session.hidden_comm_ms", "ms", "higher",
           "rank-mean ms per op of transfer hidden behind compute"),
    Metric("session.overlap_hidden_frac", "ratio", "higher",
           "hidden / (hidden + exposed) communication time"),
    _ms("session.driver_ms", "mean op wall minus (rank-max compute + "
        "rank-max exposed comm) per op: scatter/bind, dispatch, collect"),
    Metric("session.bind_skip_frac", "ratio", "higher",
           "dense binds skipped as bitwise-unchanged / dense binds decided"),
    _ms("session.op_tail_ms", "highest percentile of op wall time with >= 10 "
        "samples beyond it (which percentile is in the record)"),
    Metric("session.peak_buffer_bytes", "bytes", "lower",
           "the end-to-end peak_buffer_bytes, re-read in the traced pass"),
    # -- runtime ---------------------------------------------------------
    _ms("runtime.pool_spawn_ms", "make_worker_pool('threads', p)"),
    _ms("runtime.pool_dispatch_ms", "pool.run of a no-op item on a warm pool"),
    _ms("runtime.allgather_ms", "one Communicator.allgather of a per-rank "
        "dense block, as one pool item"),
    _ms("runtime.shift_ms", "one Communicator.shift of a per-rank dense block"),
    _ms("runtime.reduce_scatter_ms", "one Communicator.reduce_scatter of a "
        "per-rank dense block cut in p pieces"),
    Metric("runtime.transport_mb_per_s", "MB/s", "higher",
           "bytes the shift moved over all ranks / its wall time"),
    Metric("runtime.msgs_per_op", "count", "lower",
           "rank-max messages received per op (exact)"),
    # -- comm_sparse -----------------------------------------------------
    _ms("comm_sparse.plan_build_ms", "alg.build_comm_plans after "
        "clear_plan_cache()", on=_SPARSE_COMM),
    _ms("comm_sparse.plan_cached_ms", "alg.build_comm_plans again (cache hit)",
        on=_SPARSE_COMM),
    Metric("comm_sparse.rows_moved", "count", "lower",
           "dense_rows_moved over the rank plans (exact)", on=_SPARSE_COMM),
    Metric("comm_sparse.words_saved_frac", "ratio", "higher",
           "1 - words(comm='sparse') / words(comm='dense'), same config, 3 ops",
           on=_SPARSE_COMM),
    Metric("comm_sparse.peak_buffer_ratio", "ratio", "lower",
           "peak buffer bytes sparse / dense, same config", on=_SPARSE_COMM),
    # -- algorithms ------------------------------------------------------
    _ms("algorithms.distribute_sparse_ms", "alg.plan + alg.distribute_sparse"),
    _ms("algorithms.bind_dense_ms", "alg.bind_dense of both operands"),
    _ms("algorithms.collect_ms", "alg.collect_dense_a"),
    *(
        _ms(f"algorithms.family_ms.{fam}", f"median fusedmm_a op on {fam}, "
            "elision none, comm auto, c=2 when feasible", on=_FAMILY_SWEEP)
        for fam in FAMILIES
    ),
    Metric("algorithms.overlap_speedup", "ratio", "higher",
           "op_ms_p50 at overlap='off' / at overlap='on', same config",
           on=("er_comm", "rmat_25d")),
    Metric("algorithms.elision_words_saved_frac", "ratio", "higher",
           "1 - words(fused with the workload's elision) / words(sddmm then "
           "spmm_a) (exact)", on=("er_comm", "er_compute")),
    # -- kernels (+ same-run host roofline) ------------------------------
    *(_ms(f"kernels.{k}_ms", f"{k} on the heaviest of p row blocks")
      for k in KERNELS),
    *(
        Metric(f"kernels.{k}_gflops", "GFLOP/s", "higher",
               f"benchmark-computed FLOPs of {k} / its time")
        for k in KERNELS
    ),
    _ms("kernels.csr_build_ms", "first SparseBlock.csr() (structure build)"),
    Metric("kernels.bytes_per_flop", "B/flop", "lower",
           "spmm_a_block bytes computed from array sizes / its FLOPs "
           "(computed, ignores cache misses)"),
    Metric("host.stream_gbps", "GB/s", "higher",
           "copy of an array >= 4x the last-level cache, read + write bytes"),
    Metric("host.dgemm_gflops", "GFLOP/s", "higher", "512^3 float64 matmul"),
    # -- sparse ----------------------------------------------------------
    _ms("sparse.partition_2d_ms", "partition_coo_2d into a p x p blocking"),
    Metric("sparse.row_block_imbalance", "ratio", "lower",
           "max / mean nnz over the p row blocks (exact)"),
    _ms("sparse.generate_ms", "generating the sparse input (benchmark cost)"),
    # -- model -----------------------------------------------------------
    _ms("model.resolve_ms", "predict_best_algorithm + best_feasible_c + "
        "choose_comm_mode"),
    Metric("model.auto_regret", "ratio", "lower",
           "all-auto op time / best algorithms.family_ms on the same inputs",
           on=_FAMILY_SWEEP),
    # -- apps ------------------------------------------------------------
    _ms("apps.als_cg_matvec_ms",
        "one ALS sweep / its 2 x (cg_iters + 1) = 22 FusedMM matvecs",
        on=("als_sweep",)),
    Metric("apps.als_rmse", "ratio", "lower",
           "training RMSE after the longest ALS run", on=("als_sweep",)),
    _ms("apps.gat_forward_none_ms", "DistributedGAT forward, elision none",
        on=("als_sweep",)),
    _ms("apps.gat_forward_reuse_ms", "DistributedGAT forward, replication "
        "reuse", on=("als_sweep",)),
    # -- baselines -------------------------------------------------------
    _ms("baselines.serial_op_ms", "repro.baselines.serial on the same op"),
    Metric("baselines.speedup_vs_serial", "ratio", "higher",
           "baselines.serial_op_ms / op_ms_p50"),
    # -- serve (diagnostic) ----------------------------------------------
    _ms("serve.topk_req_ms", "inline Server over the ALS factors: drain time "
        "/ requests", on=("als_sweep",)),
    Metric("serve.batch_fill", "ratio", "higher",
           "mean batch size / batch width", on=("als_sweep",)),
    # -- the benchmark's own tracing --------------------------------------
    Metric("trace.overhead_frac", "ratio", "lower",
           "op_ms_p50 with spans kept / with spans dropped - 1, same process"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

RUN_SECONDS = 20


def contract_end_to_end() -> List[Metric]:
    return [m for m in END_TO_END if m.contract]


def contract_per_layer() -> List[Metric]:
    """Per-layer metrics that have a value on every workload."""
    return [m for m in PER_LAYER if m.on == ALL]


def benchmark_json() -> dict:
    """The content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": " ".join(w.split())} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in contract_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in contract_per_layer()
        ],
    }
