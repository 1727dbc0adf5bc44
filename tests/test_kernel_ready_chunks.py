"""Kernel-ready circulating chunks.

A chunk of the chunk-circulating families (1.5D sparse-shift, dense and
packed comm; 2.5D dense-replicate) is prepared once at its home rank —
kernel-space coordinates, the mode's travel order — and the ring moves it
as-is (ARCHITECTURE.md "Propagation schedule -> What travels").  Covers:

* ``spmm_scatter``'s sorted-keys fast path: a chunk and its stable
  row-sort are bitwise-equal on every backend's CSR loop, degenerate
  shapes included, and the caller's arrays are never written;
* travel order: SpMMB / FusedMMB with the prepared (column-major) chunk
  are bitwise-equal to the same call circulating the chunk in distributed
  order, across comm, before and after ``update_values``, with
  equal word and message counts; SDDMM values still come home in
  distributed order;
* the home-side cache: built once per resident structure, reused across
  calls and ``update_values``, <= 3 words per home nonzero per mode, and
  nothing index-shaped is cached for a visiting chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.base import DistributedAlgorithm
from repro.algorithms.registry import make_algorithm
from repro.baselines import serial
from repro.errors import DistributionError
from repro.kernels.spmm import spmm_scatter
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import run_spmd
from repro.sparse.generate import erdos_renyi
from repro.types import Mode

# ----------------------------------------------------------------------
# spmm_scatter: sorted keys skip the sort, bit for bit
# ----------------------------------------------------------------------

SCATTER_CASES = [
    "random", "duplicate_rows", "duplicate_pairs", "single_row", "nnz0", "nnz1",
]


def _scatter_case(rng, case):
    m, n, nnz = 11, 7, 60
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n, nnz)
    if case == "duplicate_rows":
        rows = rng.integers(3, 5, nnz)
    elif case == "duplicate_pairs":
        rows, cols = np.tile(rows[:12], 5), np.tile(cols[:12], 5)
    elif case == "single_row":
        rows = np.full(nnz, 6)
    elif case == "nnz0":
        rows, cols = rows[:0], cols[:0]
    elif case == "nnz1":
        rows, cols = rows[:1], cols[:1]
    return m, n, rows, cols, rng.standard_normal(len(rows))


def _csr_hook_profile():
    """The compiled route without numba: ``NumbaKernels.spmm_csr_add``
    runs the plain-Python row loop where numba is absent."""
    from repro.kernels.backend_numba import NumbaKernels

    class CsrOnly:
        spmm_csr_add = staticmethod(NumbaKernels.spmm_csr_add)

    prof = RankProfile()
    prof.kernels = CsrOnly()
    return prof


def _assert_sorted_equals_shuffled(rng, case, make_profile):
    m, n, rows, cols, vals = _scatter_case(rng, case)
    order = np.argsort(rows, kind="stable")
    sorted_chunk = (rows[order], cols[order], vals[order])
    B = rng.standard_normal((n, 5))
    start = rng.standard_normal((m, 5))
    outs = []
    for chunk in ((rows, cols, vals), sorted_chunk):
        frozen = [a.copy() for a in chunk]
        out = spmm_scatter(*chunk, B, start.copy(), profile=make_profile())
        outs.append(out)
        for a, b in zip(chunk, frozen):  # inputs are read, never written
            assert np.array_equal(a, b)
    assert np.array_equal(outs[0], outs[1])
    return outs[1]


class TestScatterSortedKeys:
    @pytest.mark.parametrize("case", SCATTER_CASES)
    @pytest.mark.parametrize("route", ["numpy", "numba-loop"])
    def test_sorted_chunk_equals_its_shuffle_bitwise(self, rng, case, route):
        make = (lambda: None) if route == "numpy" else _csr_hook_profile
        _assert_sorted_equals_shuffled(rng, case, make)

    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_routes_agree_on_sorted_keys(self, case):
        a = _assert_sorted_equals_shuffled(
            np.random.default_rng(5), case, lambda: None
        )
        b = _assert_sorted_equals_shuffled(
            np.random.default_rng(5), case, _csr_hook_profile
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_numba_lane_sorted_equals_shuffled(self, rng, case):
        pytest.importorskip("numba")
        from repro.kernels.registry import get_kernel_backend

        def make():
            prof = RankProfile()
            prof.kernels = get_kernel_backend("numba")
            return prof

        got = _assert_sorted_equals_shuffled(rng, case, make)
        ref = _assert_sorted_equals_shuffled(
            np.random.default_rng(12345), case, lambda: None
        )
        assert np.array_equal(got, ref)  # numpy == numba on sorted keys too

    def test_sorted_keys_are_not_sorted_again(self, rng, monkeypatch):
        m, n, rows, cols, vals = _scatter_case(rng, "random")
        order = np.argsort(rows, kind="stable")
        B = rng.standard_normal((n, 3))

        def no_sort(*a, **k):
            raise AssertionError("argsort on non-decreasing keys")

        monkeypatch.setattr(np, "argsort", no_sort)
        spmm_scatter(rows[order], cols[order], vals[order], B, np.zeros((m, 3)))
        with pytest.raises(AssertionError, match="argsort"):
            spmm_scatter(rows, cols, vals, B, np.zeros((m, 3)))


# ----------------------------------------------------------------------
# travel order == distributed order, bit for bit
# ----------------------------------------------------------------------

#: (family, p, c, comm) of every chunk-circulating path
CHUNK_PATHS = [
    ("1.5d-sparse-shift", 8, 2, "dense"),
    ("1.5d-sparse-shift", 8, 2, "sparse"),
    ("1.5d-sparse-shift", 8, 4, "sparse"),
    ("1.5d-sparse-shift", 9, 1, "dense"),
    ("2.5d-dense-replicate", 8, 2, "dense"),
    ("2.5d-dense-replicate", 9, 1, "dense"),
    ("2.5d-dense-replicate", 18, 2, "dense"),
]


@pytest.fixture
def distributed_order(monkeypatch):
    """Call to circulate every chunk *unprepared* from then on —
    kernel-space coordinates, but in distributed order for every mode, so
    ``spmm_scatter`` sorts at every phase as the parent did."""
    prepared = DistributedAlgorithm.home_chunk

    def unprepared(self, cache, space, coords, mode):
        return prepared(self, cache, space, coords, Mode.SDDMM)

    return lambda: monkeypatch.setattr(
        DistributedAlgorithm, "home_chunk", unprepared
    )


def _run_kernels(S, A, B, name, p, c, comm, elision):
    """spmm_b / fusedmm_b / sddmm before and after update_values, with
    the per-call (words, messages)."""
    new_vals = np.linspace(0.5, 1.5, S.nnz)
    out = []
    with repro.plan(
        S, A.shape[1], p=p, c=c, algorithm=name, elision=elision, comm=comm,
    ) as sess:
        for _ in range(2):
            for call in (
                lambda: sess.spmm_b(A),
                lambda: sess.fusedmm_b(A, B),
                lambda: sess.spmm_a(B),
                lambda: sess.sddmm(A, B),
            ):
                res, report = call()
                arr = res.vals if hasattr(res, "vals") else res
                out.append((arr, report.comm_words, report.comm_messages))
            sess.update_values(new_vals)
    return out


class TestTravelOrder:
    @pytest.mark.parametrize("elision", ["none", "replication-reuse"])
    @pytest.mark.parametrize("name,p,c,comm", CHUNK_PATHS)
    def test_prepared_equals_distributed_order_bitwise(
        self, small_problem, distributed_order, name, p, c, comm, elision
    ):
        S, A, B = small_problem
        got = _run_kernels(S, A, B, name, p, c, comm, elision)
        distributed_order()
        ref = _run_kernels(S, A, B, name, p, c, comm, elision)
        assert len(got) == len(ref) == 8
        for (a, words_a, msgs_a), (b, words_b, msgs_b) in zip(got, ref):
            assert np.array_equal(a, b)
            # the ring still carries 3 words per nonzero per phase
            assert (words_a, msgs_a) == (words_b, msgs_b)

    @pytest.mark.parametrize("name,p,c,comm", CHUNK_PATHS)
    def test_values_follow_update_values_and_come_home_in_order(
        self, small_problem, name, p, c, comm
    ):
        """The cached permutation is applied to the *current* values, and
        SDDMM values land where ``collect_sddmm`` reads them."""
        S, A, B = small_problem
        new_vals = np.linspace(0.5, 1.5, S.nnz)
        S2 = S.with_values(new_vals)
        with repro.plan(S, A.shape[1], p=p, c=c, algorithm=name, comm=comm) as sess:
            sess.spmm_b(A)  # builds the column-major cache on the old values
            sess.update_values(new_vals)
            out_b, _ = sess.spmm_b(A)
            fused, _ = sess.fusedmm_b(A, B)
            dots, _ = sess.sddmm(A, B)
        np.testing.assert_allclose(out_b, serial.spmm_b_serial(S2, A), rtol=1e-12)
        np.testing.assert_allclose(
            fused, serial.fusedmm_b_serial(S2, A, B), rtol=1e-11, atol=1e-11
        )
        ref = serial.sddmm_serial(S2, A, B)
        assert np.array_equal(dots.rows, ref.rows)
        assert np.array_equal(dots.cols, ref.cols)
        np.testing.assert_allclose(dots.vals, ref.vals, rtol=1e-12)


# ----------------------------------------------------------------------
# the home-side cache
# ----------------------------------------------------------------------


def _rank_rounds(name, p, c, packed, modes, rounds=2, update=None):
    """Run ``rank_kernel`` for each of ``modes``, ``rounds`` times, on a
    resident distribution; returns the locals and the cache snapshots."""
    m, n, r = 61, 53, 6
    alg = make_algorithm(name, p, c)
    S = erdos_renyi(m, n, 4, seed=11)
    rng = np.random.default_rng(5)
    plan = alg.plan(m, n, r)
    locals_ = alg.distribute(
        plan, S, rng.standard_normal((m, r)), rng.standard_normal((n, r))
    )
    sparse_plans = alg.build_comm_plans(plan, S) if packed else [None] * p
    snapshots = []

    def body(comm):
        ctx = alg.make_context(comm)
        local = locals_[comm.rank]
        kw = {"sparse_plan": sparse_plans[comm.rank]} if packed else {}
        for mode in modes:
            alg.rank_kernel(ctx, plan, local, mode, **kw)

    for k in range(rounds):
        run_spmd(p, body)
        snapshots.append([dict(loc.travel) for loc in locals_])
        if update is not None:
            alg.update_values(plan, locals_, update(S.nnz, k))
    return locals_, snapshots


class TestHomeCache:
    @pytest.mark.parametrize("name,p,c,packed", [
        ("1.5d-sparse-shift", 8, 2, False),
        ("1.5d-sparse-shift", 8, 2, True),
        ("2.5d-dense-replicate", 8, 2, False),
    ])
    def test_built_once_per_structure_and_small(self, name, p, c, packed):
        modes = (Mode.SDDMM, Mode.SPMM_A, Mode.SPMM_B)
        locals_, (first, second) = _rank_rounds(
            name, p, c, packed, modes,
            update=lambda nnz, k: np.full(nnz, 2.0 + k),
        )
        space = "packed" if packed else "panel" if "1.5d" in name else "block"
        for loc, a, b in zip(locals_, first, second):
            assert a.keys() == b.keys() == {(space, mode) for mode in modes}
            for key in a:  # same objects: nothing was rebuilt
                assert all(x is y for x, y in zip(a[key], b[key]))
            nnz = len(loc.S_rows)
            for rows, cols, perm in a.values():
                assert len(rows) == len(cols) == nnz
                words = sum(
                    arr.size for arr in (rows, cols, perm)
                    if arr is not None and arr is not loc.S_rows
                    and arr is not loc.S_cols
                )
                assert words <= 3 * nnz
            # a canonical (row-major) chunk needs no permutation for the
            # row-keyed modes; SpMMB's is a stable column-major sort
            assert a[space, Mode.SPMM_A][2] is None
            _, cols_b, perm_b = a[space, Mode.SPMM_B]
            assert np.all(cols_b[1:] >= cols_b[:-1])
            if perm_b is not None:
                assert np.array_equal(np.sort(perm_b), np.arange(nnz))

    def test_unowned_column_is_rejected_once_at_home(self):
        alg = make_algorithm("1.5d-sparse-shift", 4, 2)
        S = erdos_renyi(20, 20, 3, seed=1)
        plan = alg.plan(20, 20, 4)
        locals_ = alg.distribute(plan, S, np.ones((20, 4)), np.ones((20, 4)))
        victim = next(loc for loc in locals_ if len(loc.S_cols))
        foreign = np.flatnonzero(victim.loc_b < 0)[0]
        victim.S_cols = victim.S_cols.copy()
        victim.S_cols[0] = foreign
        with pytest.raises(DistributionError, match="not owned by this layer"):
            alg._kernel_coords(victim, None)
