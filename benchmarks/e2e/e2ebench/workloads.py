"""The five workloads: generated inputs, the op, and its serial reference.

Inputs come from ``--seed`` alone (sparse structure from ``seed``, dense
operands from ``seed + 1``); the program receives only generated arrays.
``quick=True`` shrinks every size for the tier-1 smoke test — quick numbers
mean nothing, they only prove the plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro
from repro.baselines import serial

Arrays = Tuple[np.ndarray, ...]


@dataclass
class Config:
    """What one session is planned with (knobs may be ``"auto"``/``None``)."""

    S: Any
    r: int
    p: int
    c: Any
    algorithm: str
    elision: str
    comm: str
    overlap: str = "auto"

    def plan(self, **override):
        kw = dict(
            p=self.p, c=self.c, algorithm=self.algorithm, elision=self.elision,
            comm=self.comm, overlap=self.overlap,
        )
        kw.update(override)
        return repro.plan(self.S, self.r, **kw)


@dataclass
class KernelWorkload:
    """A closed loop of ops on one resident session, one driver thread."""

    name: str
    config: Config
    #: the op cycles through these (A, B) pairs: op i uses operands[i % len]
    operands: List[Tuple[np.ndarray, np.ndarray]]
    #: runs one op on a session, returns its outputs
    op: Callable[[Any, np.ndarray, np.ndarray], Arrays]
    #: the same op on repro.baselines.serial — the correctness oracle
    reference: Callable[[np.ndarray, np.ndarray], Arrays]
    size: Dict[str, Any] = field(default_factory=dict)


@dataclass
class AlsWorkload:
    """ALS sweeps; one op is one outer sweep, timed by differencing a
    ``long_iters``-sweep run against a 1-sweep run."""

    name: str
    C_obs: Any
    r: int
    als: Any
    run_seed: int
    long_iters: int
    #: final training RMSE must not exceed this
    rmse_threshold: float
    #: the CG matvec (fusedmm_a on the indicator pattern, ALS's plan config)
    #: as a kernel workload: the layer probes and session.* run on it
    matvec: KernelWorkload
    size: Dict[str, Any] = field(default_factory=dict)


def _dense(rng: np.random.Generator, n: int, r: int, count: int) -> List[np.ndarray]:
    return [rng.standard_normal((n, r)) for _ in range(count)]


def fused_a(sess, A, B) -> Arrays:
    return (sess.fusedmm_a(A, B)[0],)


def _size(S, cfg: Config, **extra) -> Dict[str, Any]:
    return {
        "m": S.nrows, "n": S.ncols, "nnz": S.nnz, "r": cfg.r, "p": cfg.p,
        "phi": S.nnz / (float(S.ncols) * cfg.r), "c": cfg.c,
        "algorithm": cfg.algorithm, "elision": cfg.elision, "comm": cfg.comm,
        "overlap": cfg.overlap, **extra,
    }


def er_comm(seed: int, quick: bool) -> KernelWorkload:
    n, r = (512, 32) if quick else (16384, 128)
    S = repro.erdos_renyi(n, n, 4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((n, r))
    cfg = Config(S, r, p=8, c=4, algorithm="1.5d-sparse-shift",
                 elision="replication-reuse", comm="sparse")
    # the ALS pattern: A changes every op, B stays (bind-skip on one side)
    return KernelWorkload(
        "er_comm", cfg, [(A, B) for A in _dense(rng, n, r, 4)], fused_a,
        lambda A, B: (serial.fusedmm_a_serial(S, A, B),),
        _size(S, cfg, op="fusedmm_a(A_i, B), A cycling over 4 arrays"),
    )


def er_compute(seed: int, quick: bool) -> KernelWorkload:
    n, per_row, r = (512, 8, 16) if quick else (8192, 32, 32)
    S = repro.erdos_renyi(n, n, per_row, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cfg = Config(S, r, p=8, c=2, algorithm="1.5d-dense-shift",
                 elision="local-kernel-fusion", comm="dense")
    pairs = list(zip(_dense(rng, n, r, 4), _dense(rng, n, r, 4)))
    return KernelWorkload(
        "er_compute", cfg, pairs, fused_a,
        lambda A, B: (serial.fusedmm_a_serial(S, A, B),),
        _size(S, cfg, op="fusedmm_a(A_i, B_i), both operands new every op"),
    )


def rmat_25d(seed: int, quick: bool) -> KernelWorkload:
    scale, r = (9, 16) if quick else (14, 64)
    S = repro.rmat(scale, 8, seed=seed)
    rng = np.random.default_rng(seed + 1)
    (A,), (B,) = _dense(rng, S.nrows, r, 1), _dense(rng, S.ncols, r, 1)
    cfg = Config(S, r, p=8, c=2, algorithm="2.5d-sparse-replicate",
                 elision="none", comm="auto")

    def pair(sess, A, B) -> Arrays:
        return (sess.fusedmm_a(A, B)[0], sess.fusedmm_b(A, B)[0])

    return KernelWorkload(
        "rmat_25d", cfg, [(A, B)], pair,
        lambda A, B: (serial.fusedmm_a_serial(S, A, B),
                      serial.fusedmm_b_serial(S, A, B)),
        _size(S, cfg, op="fusedmm_a + fusedmm_b, timed as a pair"),
    )


def small_auto(seed: int, quick: bool) -> KernelWorkload:
    n, r = (256, 16) if quick else (2048, 64)
    S = repro.erdos_renyi(n, n, 8, seed=seed)
    rng = np.random.default_rng(seed + 1)
    (A,), (B,) = _dense(rng, n, r, 1), _dense(rng, n, r, 1)
    cfg = Config(S, r, p=4, c=None, algorithm="auto", elision="none",
                 comm="auto", overlap="auto")

    def cycle(sess, A, B) -> Arrays:
        return (sess.sddmm(A, B)[0].vals, sess.spmm_a(B)[0], sess.spmm_b(A)[0],
                sess.fusedmm_a(A, B)[0])

    return KernelWorkload(
        "small_auto", cfg, [(A, B)], cycle,
        lambda A, B: (serial.sddmm_serial(S, A, B).vals,
                      serial.spmm_a_serial(S, B), serial.spmm_b_serial(S, A),
                      serial.fusedmm_a_serial(S, A, B)),
        _size(S, cfg, op="sddmm, spmm_a, spmm_b, fusedmm_a timed as one cycle"),
    )


def als_sweep(seed: int, quick: bool) -> AlsWorkload:
    from repro.apps.als import DistributedALS
    from repro.types import Elision

    n, rank, per_row, r = (256, 4, 8, 8) if quick else (4096, 16, 16, 32)
    cg_iters = 3 if quick else 10
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, rank)) / np.sqrt(rank)
    Q = rng.standard_normal((n, rank)) / np.sqrt(rank)
    pattern = repro.erdos_renyi(n, n, per_row, seed=seed, values="ones")
    C_obs = pattern.with_values(
        np.einsum("ij,ij->i", P[pattern.rows], Q[pattern.cols])
    )
    als = DistributedALS(
        p=8, c=2, algorithm="1.5d-sparse-shift",
        elision=Elision.REPLICATION_REUSE, lam=0.05, cg_iters=cg_iters,
    )
    cfg = Config(pattern, r, p=8, c=2, algorithm="1.5d-sparse-shift",
                 elision="replication-reuse", comm="dense")
    drng = np.random.default_rng(seed + 1)
    matvec = KernelWorkload(
        "als_sweep", cfg, [(drng.standard_normal((n, r)),
                            drng.standard_normal((n, r)))],
        fused_a, lambda A, B: (serial.fusedmm_a_serial(pattern, A, B),),
    )
    long_iters = 2 if quick else 4
    # a rank-`rank` matrix fitted at r > rank: the fit must explain the
    # observations to within a few percent of their spread
    rmse_threshold = (0.5 if quick else 0.05) * float(np.std(C_obs.vals))
    return AlsWorkload(
        "als_sweep", C_obs, r, als, seed + 1, long_iters, rmse_threshold, matvec,
        _size(pattern, cfg, true_rank=rank, lam=0.05, cg_iters=cg_iters,
              long_iters=long_iters, rmse_threshold=rmse_threshold,
              op="one outer ALS sweep: 2 x (1 rhs SpMM + cg_iters + 1 FusedMM "
                 "matvecs) + 1 loss SDDMM"),
    )


BUILDERS: Dict[str, Callable[[int, bool], Any]] = {
    "er_comm": er_comm,
    "er_compute": er_compute,
    "rmat_25d": rmat_25d,
    "small_auto": small_auto,
    "als_sweep": als_sweep,
}
