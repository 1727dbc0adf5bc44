"""Kernel-backend comparison: numpy vs numba on the six dispatched kernels.

Times every kernel the registry dispatches (``sddmm_coo``,
``sddmm_custom`` with the structured :class:`GatScoreOp`,
``gat_edge_scores``, ``spmm_a_block``, ``spmm_b_block``,
``spmm_scatter`` on sorted and on unsorted keys) under every *available*
backend on one fixed workload and prints per-backend ms plus
numba-over-numpy speedups.  The numpy path's own cost is an e2e metric
(``kernels.*_ms``, ``benchmarks/e2e``); this script exists for the one
thing only it can do — compare the two backends where both are installed.

Next to that large shape (131 k nonzeros, r = 64: gather-bound, where
per-call overhead is invisible) it prints three kernels at the size a
rank actually runs them, ``<kernel>@8k,w<width>``: 8 192 nonzeros at
width 8 (one ``als_sweep`` ring phase) and width 2
(:func:`make_gat_operands`).  These rows carry no floor — no numba run
has measured one.

Floors (asserted here whenever numba is installed, i.e. in the CI
``kernel-backends`` lane): the compiled backend must beat numpy by >=
1.2x on the fused :class:`GatScoreOp` scoring pass and must not lose on
``sddmm_coo`` (>= 1.0x: since the numpy path's gather chunks were sized
in bytes it is no longer the 2x-slow formulation the old 1.5x floor
was cut against, and no numba run has re-measured the margin).
``spmm_a_block`` / ``spmm_b_block`` / ``spmm_scatter`` all run one CSR
walk over the same raw arrays on both backends — SciPy's compiled
sequential ``csr_matvecs`` against the jitted row-partitioned loop
(``spmm_scatter`` adds the same per-call CSR build — a ``bincount`` of
the keys over every output row when the output is at most ``2 * nnz``
rows tall, as in every row here, a run-head scan of the touched rows
above that — plus the same stable sort when its keys arrive
unsorted, on both sides: the ``_sorted`` / ``_unsorted`` rows time one
column-keyed chunk both ways — as the families circulate it, prepared
at its home rank, and as an unprepared caller hands it over) — and
``gat_edge_scores`` competes against a pure memory-bound ``np.take``
gather, so those gate on near-parity floors (0.9x / 0.8x): the win there
is parallelism, which small CI runners may not have.  On a numpy-only
host the script prints the numpy column and asserts nothing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.harness.reporting import format_table
from repro.kernels.registry import available_kernel_backends, get_kernel_backend
from repro.kernels.sddmm import (
    GatScoreOp,
    gat_edge_scores,
    make_gat_operands,
    sddmm_coo,
    sddmm_custom,
)
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_scatter
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock
from repro.sparse.generate import erdos_renyi

_N = 1 << 13
_NNZ_PER_ROW = 16
_R = 64
_REPEATS = 5

#: the rank-sized shape: nonzeros of one circulating chunk, and the calls
#: timed per repeat (one call is tens of microseconds)
_RANK_NNZ = 1 << 13
_RANK_N = 1 << 11
_RANK_CALLS = 50

#: numba-over-numpy speedup floors gated in CI (see module docstring)
SPEEDUP_FLOORS = {
    "sddmm_coo": 1.0,
    "sddmm_custom": 1.2,
    "spmm_a_block": 0.9,
    "spmm_b_block": 0.9,
    "spmm_scatter": 0.9,
    "spmm_scatter_sorted": 0.9,
    "spmm_scatter_unsorted": 0.9,
    "gat_edge_scores": 0.8,
}


def _best_of(fn, calls: int = 1) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3 / calls  # ms per call


def measure_rank_sized(prof: RankProfile) -> dict:
    """``sddmm_coo`` / ``spmm_scatter`` / ``spmm_a_block`` on one rank's
    chunk (row-sorted, as the families circulate it) at widths 8 and 2."""
    rng = np.random.default_rng(2)
    rows = np.sort(rng.integers(0, _RANK_N, _RANK_NNZ))
    cols = rng.integers(0, _RANK_N, _RANK_NNZ)
    vals = rng.standard_normal(_RANK_NNZ)
    blk = SparseBlock(rows, cols, vals, (_RANK_N, _RANK_N))
    blk.csr_arrays()  # warm the structure cache, as a resident session has
    wide = (rng.standard_normal((_RANK_N, 8)), rng.standard_normal((_RANK_N, 8)))
    gat = make_gat_operands(rng.standard_normal(_RANK_N), rng.standard_normal(_RANK_N))
    record = {}
    for width, (A, B) in ((8, wide), (2, gat)):
        out = np.zeros_like(A)
        kernels = {
            "sddmm_coo": lambda: sddmm_coo(A, B, rows, cols, profile=prof),
            "spmm_scatter": lambda: spmm_scatter(
                rows, cols, vals, B, out, profile=prof
            ),
            "spmm_a_block": lambda: spmm_a_block(blk, B, out, profile=prof),
        }
        for kernel, fn in kernels.items():
            record[f"{kernel}@8k,w{width}"] = _best_of(fn, _RANK_CALLS)
    return record


def measure_backend(name: str, workload) -> dict:
    S, A, B, blk, uL, uR, gat_op = workload
    prof = RankProfile()
    prof.kernels = get_kernel_backend(name).warmup()
    out_a = np.zeros_like(A)
    out_b = np.zeros_like(B)
    by_col = np.argsort(S.cols, kind="stable")  # the home rank's cached order
    column_major = (S.cols[by_col], S.rows[by_col], S.vals[by_col])
    return {
        "sddmm_coo": _best_of(
            lambda: sddmm_coo(A, B, S.rows, S.cols, s_vals=S.vals, profile=prof)
        ),
        "sddmm_custom": _best_of(
            lambda: sddmm_custom(A, B, S.rows, S.cols, gat_op, profile=prof)
        ),
        "gat_edge_scores": _best_of(
            lambda: gat_edge_scores(uL, uR, S.rows, S.cols, profile=prof)
        ),
        "spmm_a_block": _best_of(lambda: spmm_a_block(blk, B, out_a, profile=prof)),
        "spmm_b_block": _best_of(lambda: spmm_b_block(blk, A, out_b, profile=prof)),
        "spmm_scatter": _best_of(
            lambda: spmm_scatter(S.rows, S.cols, S.vals, B, out_a, profile=prof)
        ),
        # the SpMMB orientation (output index = column) of the same chunk:
        # as a circulating chunk arrives — column-major, prepared once at
        # its home rank — and as an unprepared caller hands it over
        "spmm_scatter_sorted": _best_of(
            lambda: spmm_scatter(*column_major, A, out_b, profile=prof)
        ),
        "spmm_scatter_unsorted": _best_of(
            lambda: spmm_scatter(S.cols, S.rows, S.vals, A, out_b, profile=prof)
        ),
        **measure_rank_sized(prof),
    }


def measure() -> dict:
    S = erdos_renyi(_N, _N, _NNZ_PER_ROW, seed=5)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((_N, _R))
    B = rng.standard_normal((_N, _R))
    blk = SparseBlock(S.rows, S.cols, S.vals, S.shape)
    blk.csr()  # warm the structure caches, as resident sessions would
    blk.csr_t()
    uL = rng.standard_normal(_N)
    uR = rng.standard_normal(_N)
    gat_op = GatScoreOp(rng.standard_normal(_R), rng.standard_normal(_R))
    workload = (S, A, B, blk, uL, uR, gat_op)

    backends = {b: measure_backend(b, workload) for b in available_kernel_backends()}
    record = {
        "config": {
            "n": _N,
            "nnz_per_row": _NNZ_PER_ROW,
            "r": _R,
            "repeats": _REPEATS,
            "rank_nnz": _RANK_NNZ,
        },
        "backends": backends,
    }
    if "numba" in backends:
        record["speedup"] = {
            k: backends["numpy"][k] / backends["numba"][k]
            for k in backends["numpy"]
        }
    return record


def check_headline(record) -> None:
    """The CI kernel-backends lane's gate: with numba installed, the
    compiled kernels must clear their per-kernel speedup floors."""
    speedup = record.get("speedup")
    if speedup is None:
        return  # numpy-only host: nothing to compare
    for kernel, floor in SPEEDUP_FLOORS.items():
        got = speedup[kernel]
        assert got >= floor, (
            f"{kernel}: numba speedup {got:.2f}x below the {floor:.1f}x floor "
            f"(numpy {record['backends']['numpy'][kernel]:.3f} ms, "
            f"numba {record['backends']['numba'][kernel]:.3f} ms)"
        )


def render(record) -> str:
    rows = []
    for kernel in sorted(record["backends"]["numpy"]):
        row = [kernel, round(record["backends"]["numpy"][kernel], 3)]
        if "numba" in record["backends"]:
            row.append(round(record["backends"]["numba"][kernel], 3))
            row.append(f"{record['speedup'][kernel]:.2f}x")
        else:
            row.extend(["-", "-"])
        rows.append(row)
    cfg = record["config"]
    return (
        f"Kernel backends (n={cfg['n']}, ~{cfg['nnz_per_row']} nnz/row, "
        f"r={cfg['r']}, best of {cfg['repeats']}; @8k rows: "
        f"{cfg['rank_nnz']} nnz at the named width) — per-kernel ms under "
        f"each available backend\n"
        + format_table(["kernel", "numpy ms", "numba ms", "speedup"], rows)
    )


if __name__ == "__main__":
    record = measure()
    print(render(record))
    check_headline(record)
