"""Layout: a skewed operand is distributed under the paper's random
row / column permutation, decided at plan time.

``resolve()`` answers ``layout`` from block statistics of the structure
(``repro.sparse.stats.layout_statistics``); a permuted session distributes
``S.permuted(row_perm, col_perm)`` — same nonzero order — and
``DistributedAlgorithm.dense_index`` composes the inverse permutations
into the rows it returns, so operands are gathered from, and outputs
scattered into, the caller's arrays directly.  Covers:

* permuted == natural to rounding for the five kernels on every family x
  comm mode, plus ``update_values``, ``use_values=False``, ALS and GAT;
* a permuted session is bitwise across placement x cold / warm session
  calls / one-shot, and across comm modes exactly where the natural
  layout is;
* the resolver: which inputs permute, independence from every knob,
  determinism;
* the seam: no family module names the layout.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.registry import ALGORITHMS, make_algorithm, supports_sparse_comm
from repro.apps import als as als_module
from repro.apps import gat as gat_module
from repro.apps.als import DistributedALS
from repro.apps.gat import DistributedGAT, gat_forward_reference
from repro.model.resolve import LAYOUT_IMBALANCE
from repro.session import Session
from repro.sparse.coo import CooMatrix
from repro.sparse.generate import random_permutations, rmat
from repro.sparse.partition import block_ranges
from repro.sparse.stats import LAYOUT_SEED, layout_permutations, layout_statistics

from helpers import resolve_plan

SRC = Path(repro.__file__).parent

#: (p, c, elision) per family: c > 1 so replication runs
GRIDS = {
    "1.5d-dense-shift": (8, 2, "replication-reuse"),
    "1.5d-sparse-shift": (8, 2, "replication-reuse"),
    "2.5d-dense-replicate": (8, 2, "replication-reuse"),
    "2.5d-sparse-replicate": (8, 2, "none"),
}
CASES = [
    (name, comm)
    for name in sorted(ALGORITHMS)
    for comm in ("dense", "sparse")[: 1 + supports_sparse_comm(name)]
]
R = 8


def laid_out(S, r, layout, placement=None, **knobs) -> Session:
    """The session ``repro.plan`` builds, with ``layout`` (and optionally
    ``placement``) swapped into its resolved plan."""
    resolved = resolve_plan(
        S.ncols, S.nnz, r, m=S.nrows, structure=layout_statistics(S, knobs["p"]),
        **knobs,
    )
    forced = dict(layout=layout, placement=placement or resolved.placement)
    return Session(S, dataclasses.replace(resolved, **forced))


def five(sess, A, B):
    return [
        sess.sddmm(A, B)[0].vals,
        sess.spmm_a(B)[0],
        sess.spmm_b(A)[0],
        sess.fusedmm_a(A, B)[0],
        sess.fusedmm_b(A, B)[0],
    ]


def banded_with_hubs(n, half_width, hubs, hub_degree, seed=0) -> CooMatrix:
    """A band (locality the natural layout already exploits) plus a few
    dense hub rows in the first eighth of the rows (skew)."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), 2 * half_width + 1)
    cols = (rows + np.tile(np.arange(-half_width, half_width + 1), n)) % n
    hub_rows = np.repeat(rng.choice(n // 8, hubs, replace=False), hub_degree)
    hub_cols = rng.integers(0, n, hubs * hub_degree)
    return CooMatrix(
        np.concatenate([rows, hub_rows]), np.concatenate([cols, hub_cols]),
        np.ones(len(rows) + len(hub_rows)), (n, n),
    )


@pytest.fixture(scope="module")
def skewed():
    """A power-law operand the resolver permutes, and dense operands."""
    S = rmat(9, 8, seed=3)
    rng = np.random.default_rng(4)
    return S, rng.standard_normal((S.nrows, R)), rng.standard_normal((S.ncols, R))


class TestPermutedEqualsNatural:
    @pytest.mark.parametrize("name,comm", CASES)
    def test_five_kernels(self, name, comm, skewed):
        S, A, B = skewed
        p, c, elision = GRIDS[name]
        outs = {}
        for layout in ("natural", "permuted"):
            with laid_out(
                S, R, layout, p=p, c=c, algorithm=name, elision=elision, comm=comm
            ) as sess:
                assert sess.layout == sess.explain().layout == layout
                outs[layout] = five(sess, A, B)
                sddmm = sess.sddmm(A, B)[0]
                # the SDDMM output is the caller's S, nonzero for nonzero
                assert np.array_equal(sddmm.rows, S.rows)
                assert np.array_equal(sddmm.cols, S.cols)
        for natural, permuted in zip(outs["natural"], outs["permuted"]):
            np.testing.assert_allclose(permuted, natural, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name,comm", CASES)
    def test_update_values(self, name, comm, skewed):
        S, A, B = skewed
        p, c, elision = GRIDS[name]
        vals = np.random.default_rng(9).standard_normal(S.nnz)
        outs = {}
        for layout in ("natural", "permuted"):
            with laid_out(
                S, R, layout, p=p, c=c, algorithm=name, elision=elision, comm=comm
            ) as sess:
                sess.fusedmm_a(A, B)  # build the forward orientation first
                sess.update_values(vals)
                outs[layout] = five(sess, A, B)
        expected = five_serial(S.with_values(vals), A, B)
        for natural, permuted, want in zip(outs["natural"], outs["permuted"], expected):
            np.testing.assert_allclose(permuted, natural, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(permuted, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "name", ["1.5d-dense-shift", "1.5d-sparse-shift", "2.5d-dense-replicate"]
    )
    def test_pattern_only_sddmm(self, name, skewed):
        S, A, B = skewed
        p, c, elision = GRIDS[name]
        outs = {}
        for layout in ("natural", "permuted"):
            with laid_out(S, R, layout, p=p, c=c, algorithm=name, elision=elision) as sess:
                outs[layout] = sess.sddmm(A, B, use_values=False)[0].vals
        np.testing.assert_allclose(
            outs["permuted"], outs["natural"], rtol=1e-12, atol=1e-12
        )
        dots = np.einsum("ij,ij->i", A[S.rows], B[S.cols])
        np.testing.assert_allclose(outs["permuted"], dots, rtol=1e-12, atol=1e-12)

    def test_als_run(self, monkeypatch):
        S = rmat(9, 8, seed=5)
        rng = np.random.default_rng(0)
        C = S.with_values(
            np.einsum(
                "ij,ij->i",
                rng.standard_normal((S.nrows, 4))[S.rows],
                rng.standard_normal((S.ncols, 4))[S.cols],
            )
        )
        runs = {}
        for layout in ("natural", "permuted"):
            monkeypatch.setattr(
                als_module, "plan", lambda S, r, **knobs: laid_out(S, r, layout, **knobs)
            )
            als = DistributedALS(
                p=8, c=2, algorithm="1.5d-sparse-shift", lam=0.05, cg_iters=4
            )
            runs[layout] = als.run(C, 6, outer_iters=2, seed=5)
        # CG amplifies the reassociated sums: a few factor entries differ
        # in the 9th digit after two sweeps
        natural, permuted = runs["natural"], runs["permuted"]
        np.testing.assert_allclose(permuted.A, natural.A, rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(permuted.B, natural.B, rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(
            permuted.loss_history, natural.loss_history, rtol=1e-9
        )

    @pytest.mark.parametrize("elision", ["none", "replication-reuse"])
    def test_gat_forward(self, elision, monkeypatch):
        """GAT reads ``alg.dense_index`` itself (rank-side gather, driver
        collect): the composed rows keep it right."""
        S = rmat(9, 8, seed=3, values="ones")
        X = np.random.default_rng(0).standard_normal((S.nrows, 12))
        ref = None
        for layout in ("natural", "permuted"):
            monkeypatch.setattr(
                gat_module, "plan", lambda S, r, **knobs: laid_out(S, r, layout, **knobs)
            )
            with DistributedGAT(
                p=4, c=2, n_heads=2, r_in=12, r_head=6,
                elision=repro.Elision(elision), seed=5,
            ) as gat:
                out = gat.forward(S, X)
                assert gat._sess.layout == layout
            ref = gat_forward_reference(S, X, gat.heads) if ref is None else ref
            np.testing.assert_allclose(out.output, ref, rtol=1e-9, atol=1e-12)


def five_serial(S, A, B):
    from repro.baselines import serial

    return [
        serial.sddmm_serial(S, A, B).vals,
        serial.spmm_a_serial(S, B),
        serial.spmm_b_serial(S, A),
        serial.fusedmm_a_serial(S, A, B),
        serial.fusedmm_b_serial(S, A, B),
    ]


class TestPermutedIsBitwise:
    @pytest.mark.parametrize("name,comm", CASES)
    def test_across_placement_and_entry_points(self, name, comm, skewed):
        S, A, B = skewed
        p, c, elision = GRIDS[name]
        knobs = dict(p=p, c=c, algorithm=name, elision=elision, comm=comm)
        first = None
        for placement in ("spread", "packed"):
            with laid_out(S, R, "permuted", placement, **knobs) as sess:
                cold = five(sess, A, B)
                warm = five(sess, A, B)  # resident replicas and chunks reused
            first = first or cold
            for got, want in zip(cold + warm, first + first):
                assert np.array_equal(got, want), placement
            # the one-shot wrappers plan the same permuted layout
            one_shot = [
                repro.sddmm(S, A, B, **knobs)[0].vals,
                repro.fusedmm_a(S, A, B, **knobs)[0],
            ]
            assert np.array_equal(one_shot[0], first[0])
            assert np.array_equal(one_shot[1], first[3])

    @pytest.mark.parametrize(
        "name", sorted(n for n in ALGORITHMS if supports_sparse_comm(n))
    )
    def test_across_comm_exactly_where_natural_is(self, name, skewed):
        """Need-list and ring collectives sum in the same order on the
        1.5D sparse-shifting family and in a different one for the 2.5D
        SDDMM; the permutation changes neither."""
        S, A, B = skewed
        p, c, elision = GRIDS[name]
        same = {}
        for layout in ("natural", "permuted"):
            outs = {}
            for comm in ("dense", "sparse"):
                with laid_out(
                    S, R, layout, p=p, c=c, algorithm=name, elision=elision, comm=comm
                ) as sess:
                    outs[comm] = five(sess, A, B)
            same[layout] = [
                np.array_equal(d, s) for d, s in zip(outs["dense"], outs["sparse"])
            ]
        assert same["permuted"] == same["natural"]
        if name == "1.5d-sparse-shift":
            assert all(same["permuted"])


class TestResolver:
    def test_balanced_er_stays_natural(self):
        S = repro.erdos_renyi(4096, 4096, 8, seed=7)
        stats = layout_statistics(S, 8)
        assert max(stats["row_imbalance"], stats["col_imbalance"]) < 1.1
        plan = resolve_plan(4096, S.nnz, 32, p=8, structure=stats)
        assert plan.layout == "natural"
        assert plan.why["layout"]["reason"] == "balanced blocks"

    def test_power_law_goes_permuted(self):
        S = rmat(14, 8, seed=7)  # the rmat_25d operand
        stats = layout_statistics(S, 8)
        assert round(stats["row_imbalance"], 2) == 3.36
        assert (stats["union_natural"], stats["union_permuted"]) == (14377, 8798)
        plan = resolve_plan(S.ncols, S.nnz, 64, p=8, structure=stats)
        assert plan.layout == "permuted"
        assert plan.why["layout"] == {
            **stats, "threshold": LAYOUT_IMBALANCE,
            "reason": "skewed blocks: the permutation narrows the unions",
        }

    def test_banded_with_hubs_stays_natural(self):
        """Skewed, but a band is what the natural blocks are good at: the
        permutation would widen every block's union."""
        S = banded_with_hubs(2048, 2, 4, 128)
        stats = layout_statistics(S, 8)
        assert stats["row_imbalance"] > LAYOUT_IMBALANCE
        assert stats["union_permuted"] > 2 * stats["union_natural"]
        plan = resolve_plan(2048, S.nnz, 32, p=8, structure=stats)
        assert plan.layout == "natural"
        assert "widens" in plan.why["layout"]["reason"]

    def test_shape_only_requests_stay_natural(self):
        plan = resolve_plan(16384, 119961, 64, p=8)
        assert plan.layout == "natural"
        assert plan.why["layout"]["row_imbalance"] is None

    def test_no_knob_moves_the_layout(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.backend.mpi_available", lambda: True)
        stats = layout_statistics(rmat(10, 8, seed=3), 8)
        layouts = {
            resolve_plan(
                1024, 6703, 32, p=8, comm=comm, backend=backend,
                algorithm=algorithm, structure=stats,
            ).layout
            for comm, backend, algorithm in itertools.product(
                ("dense", "sparse", "auto"), ("threads", "mpi"),
                ("auto", "2.5d-sparse-replicate"),
            )
        }
        assert layouts == {"permuted"}

    def test_deterministic(self, skewed):
        S, A, B = skewed
        assert layout_statistics(S, 8) == layout_statistics(S, 8)
        knobs = dict(p=8, c=2, algorithm="2.5d-sparse-replicate", comm="sparse")
        outs = []
        for _ in range(2):
            with repro.plan(S, R, **knobs) as sess:
                assert sess.layout == "permuted"
                outs.append(five(sess, A, B))
        for one, two in zip(*outs):
            assert np.array_equal(one, two)

    def test_plan_reports_the_layout(self, skewed):
        S, A, B = skewed
        with repro.plan(S, R, p=8, c=2, algorithm="1.5d-sparse-shift") as sess:
            sess.spmm_a(B)
            plan = sess.explain()
            assert plan.layout == "permuted" and "layout='permuted'" in repr(sess)
            assert sess.metrics()[0]["plan"]["layout"] == "permuted"
            assert sess.metrics()[0]["plan"]["why"]["layout"]["seed"] == 0


class TestThePermutation:
    def test_random_blocks_in_original_order(self):
        """``layout_permutations`` puts every index in the block the plain
        random permutation does (so ``layout_statistics``, which counts on
        the plain one, describes the session's layout exactly) and keeps
        each block's indices in their original order."""
        p, m, n = 8, 1000, 700
        plain = random_permutations(m, n, LAYOUT_SEED)
        for perm, raw, total in zip(layout_permutations(m, n, p), plain, (m, n)):
            assert sorted(perm) == list(range(total))
            bounds = block_ranges(total, p)
            for b in range(p):
                inside = np.flatnonzero(
                    (perm >= bounds[b]) & (perm < bounds[b + 1])
                )
                raw_inside = np.flatnonzero(
                    (raw >= bounds[b]) & (raw < bounds[b + 1])
                )
                assert np.array_equal(inside, raw_inside)
                assert np.array_equal(perm[inside], np.arange(bounds[b], bounds[b + 1]))


class TestTheSeam:
    def test_no_family_module_names_the_layout(self):
        """Families state their Table II pieces (``piece_index``); the base
        class composes the row order — nothing else knows a layout."""
        for name in sorted(ALGORITHMS):
            module = type(make_algorithm(name, 4, 1)).__module__.rsplit(".", 1)[-1]
            tree = ast.parse((SRC / "algorithms" / f"{module}.py").read_text())
            names = [
                getattr(node, attr)
                for node in ast.walk(tree)
                for attr in ("id", "attr", "arg", "name")
                if isinstance(getattr(node, attr, None), str)
            ]
            assert not [n for n in names if "layout" in n.lower()], module

    def test_declared_order_round_trips_without_aliasing(self):
        m, n, r = 37, 29, 6
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        rows, cols = rng.permutation(m), rng.permutation(n)
        for name, (p, c, _) in GRIDS.items():
            alg = make_algorithm(name, p, c)
            plan = alg.plan(m, n, r)
            locals_ = alg.distribute_sparse(plan, None)
            alg.order_rows(plan, rows, cols)
            alg.bind_dense(plan, locals_, A, B)
            for loc in locals_:
                assert loc.A.flags["C_CONTIGUOUS"] and not np.shares_memory(loc.A, A)
                prows, pcols = alg.piece_index(plan, loc, "a")
                assert np.array_equal(loc.A, A[rows[prows], pcols])
            assert np.array_equal(alg.collect_dense_a(plan, locals_), A)
            assert np.array_equal(alg.collect_dense_b(plan, locals_), B)
            # an order is bound to its plan object, not to an equal one
            other = alg.plan(m, n, r)
            loc = locals_[0]
            assert np.array_equal(
                np.arange(m)[alg.dense_index(other, loc, "a")[0]],
                np.arange(m)[alg.piece_index(other, loc, "a")[0]],
            )
