"""Local-kernel ablation (paper Section III-A).

Times the local building blocks under pytest-benchmark: the chunked
SDDMM and the CSR SpMM, the fused local kernel vs two separate calls, and
the effect of locality reordering on the blocked-kernel traffic proxy.
These justify the shared-memory design choices DESIGN.md calls out.

Median per-kernel ms are merged into ``BENCH_sparse_comm.json`` under
the ``"local_kernels"`` key (next to the communication / session / serve
/ kernels records), so the ablation rides the same artifact and
regression trajectory as the rest of the benchmark suite.  Running the
module directly (``python bench_local_kernels.py``) measures the same
kernels best-of-3 without pytest-benchmark and writes the same record.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.fused import fusedmm_local
from repro.kernels.sddmm import sddmm_coo
from repro.kernels.spmm import spmm_a_block
from repro.sparse.coo import SparseBlock
from repro.sparse.generate import erdos_renyi, rmat
from repro.sparse.reorder import bfs_reorder, column_span_cost

from conftest import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_sparse_comm.json"

_N, _R, _NNZ_PER_ROW = 1 << 13, 64, 16

#: median ms per kernel, filled by the tests (or the __main__ path) and
#: merged into the shared benchmark JSON once the module finishes
_MEDIANS: dict = {}


def _make_workload():
    S = erdos_renyi(_N, _N, _NNZ_PER_ROW, seed=5)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((_N, _R))
    B = rng.standard_normal((_N, _R))
    blk = SparseBlock(S.rows, S.cols, S.vals, S.shape)
    blk.csr()  # warm the structure cache, as repeated calls would
    blk.csr_t()
    return S, A, B, blk


@pytest.fixture(scope="module")
def workload():
    return _make_workload()


@pytest.fixture(scope="module", autouse=True)
def _emit_after_module():
    yield
    if _MEDIANS:
        emit(_MEDIANS)


def _record(name: str, benchmark) -> None:
    _MEDIANS[name] = benchmark.stats.stats.median * 1e3


def emit(median_ms: dict) -> None:
    doc = {}
    if JSON_PATH.exists():
        doc = json.loads(JSON_PATH.read_text())
    doc["local_kernels"] = {
        "config": {"n": _N, "r": _R, "nnz_per_row": _NNZ_PER_ROW},
        "median_ms": {k: round(v, 4) for k, v in sorted(median_ms.items())},
    }
    JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")


def test_bench_sddmm(benchmark, workload):
    S, A, B, blk = workload
    benchmark(lambda: sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals))
    _record("sddmm", benchmark)


def test_bench_spmm_csr(benchmark, workload):
    S, A, B, blk = workload
    out = np.zeros_like(A)
    benchmark(lambda: spmm_a_block(blk, B, out))
    _record("spmm_csr", benchmark)


def test_bench_fused_local(benchmark, workload):
    """Fused local SDDMM+SpMM (elides intermediate sparse materialization)."""
    S, A, B, blk = workload
    out = np.zeros_like(A)
    benchmark(lambda: fusedmm_local(A, B, blk, out))
    _record("fused_local", benchmark)


def test_bench_unfused_pair(benchmark, workload):
    """Two-step reference the fused kernel is compared against."""
    S, A, B, blk = workload

    def pair():
        vals = sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals)
        out = np.zeros_like(A)
        out += blk.csr(vals) @ B
        return out

    benchmark(pair)
    _record("unfused_pair", benchmark)


def _community_graph(blocks=32, size=64, edges_per_block=400, seed=7):
    """Block-diagonal community graph, scrambled by a random permutation —
    the structure hypergraph-partitioning reorderings recover."""
    from repro.sparse.coo import CooMatrix

    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for b in range(blocks):
        rows.append(rng.integers(b * size, (b + 1) * size, edges_per_block))
        cols.append(rng.integers(b * size, (b + 1) * size, edges_per_block))
    n = blocks * size
    mat = CooMatrix(
        np.concatenate(rows).astype(np.int64),
        np.concatenate(cols).astype(np.int64),
        np.ones(blocks * edges_per_block), (n, n),
    )
    return mat.permuted(rng.permutation(n), rng.permutation(n))


def test_reordering_reduces_traffic_proxy(benchmark):
    """Jiang-et-al-style reordering lowers the blocked kernel's
    dense-row traffic (edgecut-1 proxy) on a community-structured graph."""
    base = _community_graph()

    def run():
        reordered, _, _ = bfs_reorder(base)
        return column_span_cost(base, 64), column_span_cost(reordered, 64)

    before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "local_kernel_ablation.txt",
        "Section III-A ablation — blocked-kernel traffic proxy "
        f"(distinct columns per 64-row block)\n"
        f"  natural order : {before:10.1f}\n"
        f"  BFS reordered : {after:10.1f}\n",
    )
    assert after <= before


if __name__ == "__main__":
    S, A, B, blk = _make_workload()
    out = np.zeros_like(A)

    def pair():
        vals = sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals)
        acc = np.zeros_like(A)
        acc += blk.csr(vals) @ B
        return acc

    cases = {
        "sddmm": lambda: sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals),
        "spmm_csr": lambda: spmm_a_block(blk, B, out),
        "fused_local": lambda: fusedmm_local(A, B, blk, np.zeros_like(A)),
        "unfused_pair": pair,
    }
    timings = {}
    for name, fn in cases.items():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        timings[name] = best * 1e3
    emit(timings)
    print(f"updated {JSON_PATH}")
