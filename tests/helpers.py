"""Helpers to run distributed kernels inside tests."""

from __future__ import annotations

import inspect

import numpy as np

import repro
from repro.model.resolve import resolve
from repro.runtime.spmd import run_spmd
from repro.sparse.generate import erdos_renyi
from repro.types import Mode

#: the phi sweep the sparse-comm volume / peak-buffer claims are stated
#: over: ER, n = 2048, r = 64, phi = nnz_per_row / 64 from 0.016 to 0.5,
#: one (family, elision, p, c) grid per sparse-comm-capable family
SWEEP_NNZ_PER_ROW = [1, 2, 4, 8, 16, 32]
SWEEP_SPARSE_SHIFT = ("1.5d-sparse-shift", "replication-reuse", 8, 4)
SWEEP_SPARSE_REPLICATE = ("2.5d-sparse-replicate", "none", 8, 2)


#: ``repro.plan``'s own defaults — the one place the knobs are declared
PLAN_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(repro.plan).parameters.items()
    if param.default is not inspect.Parameter.empty
}


def resolve_plan(n, nnz, r, m=None, **knobs):
    """:func:`repro.model.resolve.resolve` on shape statistics alone, every
    knob not given at ``repro.plan``'s default (no matrix, no rank)."""
    return resolve(n if m is None else m, n, nnz, r, **{**PLAN_DEFAULTS, **knobs})


def sweep_dense_vs_sparse(nnz_per_row, name, elision, p, c):
    """One FusedMM of the phi sweep under ``comm="dense"`` and
    ``comm="sparse"`` (outputs checked equal): ``(phi, dense report,
    sparse report)``."""
    n, r = 2048, 64
    S = erdos_renyi(n, n, nnz_per_row, seed=5)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, r))
    B = rng.standard_normal((n, r))
    kw = dict(p=p, c=c, algorithm=name, elision=elision)
    out_d, rep_d = repro.fusedmm_b(S, A, B, comm="dense", **kw)
    out_s, rep_s = repro.fusedmm_b(S, A, B, comm="sparse", **kw)
    np.testing.assert_allclose(out_s, out_d, rtol=1e-8, atol=1e-10)
    return S.nnz / (n * r), rep_d, rep_s


def run_rank_method(alg, plan, locals_, method, *args, **kwargs):
    """Run ``method(ctx, plan, local, *args, **kwargs)`` on all ranks."""

    def body(comm):
        ctx = alg.make_context(comm)
        method(ctx, plan, locals_[comm.rank], *args, **kwargs)

    return run_spmd(alg.p, body)


def dist_sddmm(alg, S, A, B, **kw):
    plan = alg.plan(S.nrows, S.ncols, A.shape[1])
    locals_ = alg.distribute(plan, S, A, B)
    run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SDDMM, **kw)
    return alg.collect_sddmm(plan, locals_, S)


def dist_spmm_a(alg, S, B, **kw):
    plan = alg.plan(S.nrows, S.ncols, B.shape[1])
    locals_ = alg.distribute(plan, S, None, B)
    run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_A, **kw)
    return alg.collect_dense_a(plan, locals_)


def dist_spmm_b(alg, S, A, **kw):
    plan = alg.plan(S.nrows, S.ncols, A.shape[1])
    locals_ = alg.distribute(plan, S, A, None)
    run_rank_method(alg, plan, locals_, alg.rank_kernel, Mode.SPMM_B, **kw)
    return alg.collect_dense_b(plan, locals_)


def dist_fused(alg, S, A, B, method_name, out_side):
    plan = alg.plan(S.nrows, S.ncols, A.shape[1])
    locals_ = alg.distribute(plan, S, A, B)
    run_rank_method(alg, plan, locals_, getattr(alg, method_name))
    if out_side == "a":
        return alg.collect_dense_a(plan, locals_)
    return alg.collect_dense_b(plan, locals_)


#: the families whose sparse chunks circulate, and the grid coordinates
#: naming the ring a rank's chunk travels and the rank's position on it
#: (1.5D: the layer, position u; 2.5D: the grid row, position y); a
#: round's shifts move every chunk to position - 1
CHUNK_RINGS = {
    "1.5d-sparse-shift": lambda u, v: (v, u),
    "2.5d-dense-replicate": lambda x, y, z: ((x, z), y),
}


def _chunk_layout(alg, S, r):
    """``(where, rings)``: per rank its ``(ring, position)``, and per ring
    the nonzeros of its home chunks by position; ``S`` in natural layout,
    both empty where S does not circulate."""
    ring_of = CHUNK_RINGS.get(alg.name)
    if ring_of is None:
        return [], {}
    locals_ = alg.distribute_sparse(alg.plan(S.nrows, S.ncols, r), S)
    where = [ring_of(*alg.grid.coords(rank)) for rank in range(alg.p)]
    at = {}
    for (ring, pos), loc in zip(where, locals_):
        at.setdefault(ring, {})[pos] = len(loc.S_rows)
    return where, {ring: [nnz[k] for k in sorted(nnz)] for ring, nnz in at.items()}


def chunk_ring_members(alg, S, r):
    """Per rank, ``(position, nnz)``: its position on the ring its S chunk
    circulates on, and that ring's home-chunk nonzeros by position."""
    where, rings = _chunk_layout(alg, S, r)
    return [(pos, rings[ring]) for ring, pos in where]


def chunk_rings(alg, S, r):
    """``(size, nnz)`` of every ring ``alg``'s S chunks circulate on, for
    ``S`` in natural layout; empty where S does not circulate."""
    _, rings = _chunk_layout(alg, S, r)
    return [(len(nnz), sum(nnz)) for nnz in rings.values()]


def chunk_round_traffic(alg, S, r, warm=False, read_only=False):
    """The nonzeros one chunk round of ``alg`` on ``S`` (natural layout)
    receives, rank-summed, one message per rank per shift (a ring of one
    rank moves nothing).  Cold, every rank receives each chunk of its
    ring once per round, 3 words per nonzero — but a round that only
    reads its chunk (``read_only``: an SpMM's) makes ``L − 1`` shifts on
    a ring of ``L``, so no rank receives its own; warm, every round makes
    ``L − 1`` shifts, so each chunk reaches ``L − 1`` ranks, 1 word per
    nonzero.  0 where S does not circulate."""
    return sum(
        (size - 1 if warm or read_only else size) * nnz
        for size, nnz in chunk_rings(alg, S, r)
        if size > 1
    )
