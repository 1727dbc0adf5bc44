"""The kernel-backend seam: registry, guards, calibration, equivalence.

The registry / guard / calibration tests run everywhere (tier-1, no
numba).  The numpy-vs-numba equivalence suite is gated on numba being
installed and runs in the CI ``kernel-backends`` lane.

Bitwise policy under test (see ``repro/kernels/registry.py``):
``spmm_a_block``, ``spmm_b_block``, ``spmm_scatter`` (one CSR walk
each), ``gat_edge_scores`` and opaque-callable ``sddmm_custom`` must be
**bitwise identical** across backends.  ``sddmm_coo`` and the
:class:`GatScoreOp` path of ``sddmm_custom`` carry a documented
tolerance: their numpy formulations reduce through ``np.einsum`` / BLAS
gemv, whose internal accumulation order is SIMD-width- and
library-version-dependent and cannot be replicated portably; the
compiled kernels use a fixed left-to-right order, so the difference is
bounded by ``O(r * eps)`` per reduced element.
"""

from __future__ import annotations

import importlib.util
import json

import numpy as np
import pytest

import repro
from repro.errors import (
    KernelBackendUnavailableError,
    ReproError,
    UnknownKernelBackendError,
)
from repro.kernels.backend_numpy import NUMPY
from repro.kernels.registry import (
    DISPATCHED_KERNELS,
    KERNEL_BACKENDS,
    available_kernel_backends,
    ensure_kernel_backend_available,
    get_kernel_backend,
    numba_available,
    validate_kernel_backend_name,
)
from repro.kernels.sddmm import GatScoreOp, gat_edge_scores, sddmm_coo, sddmm_custom
from repro.kernels.spmm import spmm_a_block, spmm_b_block, spmm_scatter
from repro.runtime.profile import RankProfile
from repro.sparse.coo import SparseBlock

from helpers import resolve_plan

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: tolerance for the documented-tolerance kernels (r <= 64 here, so the
#: O(r * eps) reduction-order bound sits far below these)
TOL = dict(rtol=1e-11, atol=1e-12)


def backend_profile(name: str) -> RankProfile:
    """A rank profile carrying backend ``name``, warmed for dispatch."""
    prof = RankProfile()
    prof.kernels = get_kernel_backend(name).warmup()
    return prof


# ----------------------------------------------------------------------
# name registry
# ----------------------------------------------------------------------


class TestKernelRegistry:
    def test_registry_contents(self):
        assert KERNEL_BACKENDS == ("numpy", "numba")
        assert set(DISPATCHED_KERNELS) == {
            "sddmm_coo", "sddmm_custom", "gat_edge_scores",
            "spmm_a_block", "spmm_b_block", "spmm_scatter",
        }

    @pytest.mark.parametrize("name", ["numpy", "numba", "NUMPY", " numba ", "auto"])
    def test_known_names_normalize(self, name):
        assert validate_kernel_backend_name(name) in KERNEL_BACKENDS + ("auto",)

    @pytest.mark.parametrize("bad", ["cuda", "cython", "", "np", "numba2"])
    def test_unknown_name_typed_error(self, bad):
        with pytest.raises(UnknownKernelBackendError) as exc:
            validate_kernel_backend_name(bad)
        msg = str(exc.value)
        assert "numpy" in msg and "numba" in msg  # lists the registry

    def test_auto_rejected_when_disallowed(self):
        with pytest.raises(UnknownKernelBackendError):
            validate_kernel_backend_name("auto", allow_auto=False)

    def test_errors_are_repro_errors(self):
        assert issubclass(UnknownKernelBackendError, ReproError)
        assert issubclass(KernelBackendUnavailableError, ReproError)

    def test_numpy_always_available(self):
        ensure_kernel_backend_available("numpy")
        choice = resolve_plan(64, 256, 16, kernels="numpy")
        assert choice.kernels == "numpy"
        backend = get_kernel_backend(choice.kernels)
        assert backend is NUMPY  # the process-wide numpy backend
        assert backend.warmup() is backend
        for hook in ("sddmm_dots_add", "spmm_csr_add", "gat_edge_scores",
                     "sddmm_gat_score"):
            assert callable(getattr(backend, hook))
        assert choice.compute_gamma is None  # model keeps assumed gamma

    def test_numba_availability_reflects_import(self):
        assert numba_available() == HAVE_NUMBA
        assert "numpy" in available_kernel_backends()
        assert ("numba" in available_kernel_backends()) == HAVE_NUMBA

    def test_missing_numba_install_hint(self, monkeypatch):
        monkeypatch.setattr(
            "repro.kernels.registry.numba_available", lambda: False
        )
        with pytest.raises(KernelBackendUnavailableError) as exc:
            ensure_kernel_backend_available("numba")
        msg = str(exc.value)
        assert "pip install numba" in msg
        assert "numpy" in msg  # points at the always-available fallback

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_missing_numba_install_hint_real(self):
        with pytest.raises(KernelBackendUnavailableError, match="numba"):
            resolve_plan(64, 256, 16, kernels="numba")

    def test_backend_numba_imports_without_numba(self):
        # The module must import cleanly so guards raise typed errors,
        # not ImportError, in environments without numba.
        import repro.kernels.backend_numba as bn

        assert bn.NumbaKernels.name == "numba"


# ----------------------------------------------------------------------
# session / api / cli plumbing
# ----------------------------------------------------------------------


class TestSessionKernels:
    def test_plan_rejects_unknown_kernels(self, small_problem):
        S, A, _ = small_problem
        with pytest.raises(UnknownKernelBackendError):
            repro.plan(S, A.shape[1], p=4, c=2, kernels="cuda")

    def test_compiled_kernels_thread_backend_only(self, small_problem):
        """The guard fires before the availability check (so it is
        testable without numba) and before any mpi4py requirement."""
        S, A, _ = small_problem
        with pytest.raises(ReproError, match="thread"):
            repro.plan(S, A.shape[1], p=4, c=2, backend="mpi", kernels="numba")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_plan_numba_without_numba_hint(self, small_problem):
        S, A, _ = small_problem
        with pytest.raises(KernelBackendUnavailableError, match="numba"):
            repro.plan(S, A.shape[1], p=4, c=2, kernels="numba")

    def test_knob_surfaces(self, small_problem):
        S, A, B = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2) as sess:
            assert sess.kernels == "numpy"
            assert "kernels='numpy'" in repr(sess)
            sess.sddmm(A, B)
            assert sess.metrics()[-1]["kernels"] == "numpy"
            assert sess.report().kernel_backend == "numpy"
            assert "kernels" in sess.report().summary()

    def test_one_shot_kernels_knob(self, small_problem):
        S, A, B = small_problem
        ref, _ = repro.fusedmm_a(S, A, B, p=4, c=2)
        out, rep = repro.fusedmm_a(S, A, B, p=4, c=2, kernels="numpy")
        assert np.array_equal(out, ref)
        assert rep.kernel_backend == "numpy"

    def test_cli_accepts_kernels_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "--n", "128", "--r", "8", "--p", "4",
                     "--algorithm", "1.5d-dense-shift",
                     "--kernels", "numpy"]) == 0
        assert "output shape: (128, 8)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# kernels="auto": measured per-host calibration
# ----------------------------------------------------------------------


class TestAutoCalibration:
    @pytest.fixture
    def cal_env(self, tmp_path, monkeypatch):
        """Point the calibration cache into the test's tmp dir."""
        from repro.model import calibrate as cal

        path = tmp_path / "kernel_calibration.json"
        monkeypatch.setenv(cal.CALIBRATION_ENV, str(path))
        cal._MEMO.clear()
        yield path
        cal._MEMO.clear()

    def test_calibrate_measures_and_caches(self, cal_env):
        from repro.model import calibrate as cal

        doc = cal.calibrate()
        assert doc["host"] == cal.host_key()
        for name in available_kernel_backends():
            entry = doc["backends"][name]
            assert entry["gamma"] > 0
            assert entry["sddmm_ms"] > 0 and entry["spmm_ms"] > 0
        # persisted, and the second call reuses the memo
        assert json.loads(cal_env.read_text())["host"] == doc["host"]
        assert cal.calibrate() is doc

    def test_host_mismatch_remeasures(self, cal_env):
        from repro.model import calibrate as cal

        cal_env.write_text(json.dumps(
            {"host": "someone-else", "backends": {"numpy": {"gamma": 1.0}}}
        ))
        doc = cal.calibrate()
        assert doc["host"] == cal.host_key()  # stale cache replaced
        assert json.loads(cal_env.read_text())["host"] == cal.host_key()

    def test_kernel_revision_mismatch_remeasures(self, cal_env):
        """A cache measured by another revision of the probed kernels
        (same host, same library versions) must not feed the model."""
        from repro.model import calibrate as cal

        current = cal.host_key()
        token = f"kernels-r{cal.KERNEL_REVISION}"
        assert token in current
        stale_key = current.replace(token, f"kernels-r{cal.KERNEL_REVISION - 1}")
        stale = {"gamma": 123.0, "gflops": 0.0, "sddmm_ms": 1.0, "spmm_ms": 1.0}
        cal_env.write_text(json.dumps(
            {"host": stale_key,
             "backends": {b: stale for b in available_kernel_backends()}}
        ))
        doc = cal.calibrate()
        assert doc["host"] == current
        assert doc["backends"]["numpy"]["gamma"] != 123.0
        assert json.loads(cal_env.read_text())["host"] == current

    def test_unwritable_cache_not_fatal(self, tmp_path, monkeypatch):
        from repro.model import calibrate as cal

        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a *file* where the cache dir should be
        monkeypatch.setenv(cal.CALIBRATION_ENV, str(blocker / "cal.json"))
        cal._MEMO.clear()
        try:
            doc = cal.calibrate()
            assert doc["backends"]["numpy"]["gamma"] > 0
        finally:
            cal._MEMO.clear()

    def test_choose_kernel_backend_is_available(self, cal_env):
        from repro.model.calibrate import choose_kernel_backend

        name, gamma = choose_kernel_backend()
        assert name in available_kernel_backends()
        assert gamma > 0

    def test_auto_session_resolves_and_matches(self, cal_env, small_problem):
        S, A, B = small_problem
        ref, _ = repro.fusedmm_a(S, A, B, p=4, c=2)
        out, rep = repro.fusedmm_a(S, A, B, p=4, c=2, kernels="auto")
        assert rep.kernel_backend in available_kernel_backends()
        assert np.allclose(out, ref, **TOL)

    def test_auto_never_raises_without_numba(self, cal_env, monkeypatch):
        """auto considers only available backends: no numba, no error."""
        monkeypatch.setattr(
            "repro.kernels.registry.numba_available", lambda: False
        )
        from repro.model import calibrate as cal

        cal._MEMO.clear()
        name, gamma = cal.choose_kernel_backend()
        assert name == "numpy" and gamma > 0

    def test_auto_gamma_feeds_comm_model(self, cal_env, small_problem):
        """The measured gamma reaches choose_comm_mode: a session planned
        with kernels='auto' and comm='auto' still plans successfully and
        records a dense/sparse decision."""
        S, A, _ = small_problem
        with repro.plan(
            S, A.shape[1], p=4, c=2, algorithm="1.5d-sparse-shift",
            comm="auto", kernels="auto",
        ) as sess:
            assert sess.comm_mode.value in ("dense", "sparse")
            plan = sess.explain()
            assert plan.compute_gamma is not None and plan.compute_gamma > 0
            assert plan.why["kernels"]["gamma"][plan.kernels] == plan.compute_gamma
            assert set(plan.why["comm"]) >= {"dense", "sparse", "picked"}


# ----------------------------------------------------------------------
# satellite fixes: zero-fill semantics, FLOP accounting
# ----------------------------------------------------------------------


class TestSddmmCooOutSemantics:
    def test_fresh_output_each_call(self, rng):
        A = rng.standard_normal((20, 8))
        B = rng.standard_normal((30, 8))
        rows = np.array([0, 5, 19]); cols = np.array([2, 2, 29])
        first = sddmm_coo(A, B, rows, cols)
        second = sddmm_coo(A, B, rows, cols)
        np.testing.assert_array_equal(first, second)

    def test_out_overwritten_unless_accumulate(self, rng):
        A = rng.standard_normal((20, 8))
        B = rng.standard_normal((30, 8))
        rows = np.array([0, 5, 19]); cols = np.array([2, 2, 29])
        ref = sddmm_coo(A, B, rows, cols)
        out = np.full(3, 7.0)
        sddmm_coo(A, B, rows, cols, out=out)
        np.testing.assert_array_equal(out, ref)  # stale contents cleared
        out = np.full(3, 7.0)
        sddmm_coo(A, B, rows, cols, out=out, accumulate=True)
        np.testing.assert_allclose(out, ref + 7.0)


class TestFlopAccounting:
    def test_gat_score_op_flops_per_edge(self):
        op = GatScoreOp(np.zeros(16), np.zeros(16))
        assert op.flops_per_edge == 4 * 16 + 2

    def test_sddmm_custom_flop_resolution(self, rng):
        r = 8
        A = rng.standard_normal((10, r))
        B = rng.standard_normal((10, r))
        rows = np.arange(10); cols = np.arange(10)
        # opaque callable: generic 2r estimate
        prof = RankProfile()
        sddmm_custom(A, B, rows, cols, lambda ga, gb: ga[:, 0] * gb[:, 0],
                     profile=prof)
        assert prof.total().flops == 10 * 2 * r
        # structured op: its own honest count
        prof = RankProfile()
        op = GatScoreOp(rng.standard_normal(r), rng.standard_normal(r))
        sddmm_custom(A, B, rows, cols, op, profile=prof)
        assert prof.total().flops == 10 * op.flops_per_edge
        # explicit argument wins over both
        prof = RankProfile()
        sddmm_custom(A, B, rows, cols, op, flops_per_edge=3, profile=prof)
        assert prof.total().flops == 10 * 3


# ----------------------------------------------------------------------
# the compiled-backend route of spmm_scatter, without needing numba
# ----------------------------------------------------------------------


class TestScatterBackendRoute:
    """``spmm_scatter`` hands every backend the same CSR (full-height or
    touched-rows).
    The hook under test is ``NumbaKernels.spmm_csr_add`` itself — its
    row loop jitted where numba is installed, the plain-Python function
    otherwise (the ``njit`` stub) — so the route is covered in tier-1."""

    @pytest.fixture
    def hook_profile(self):
        from repro.kernels.backend_numba import NumbaKernels

        class CsrOnly:
            spmm_csr_add = staticmethod(NumbaKernels.spmm_csr_add)

        prof = RankProfile()
        prof.kernels = CsrOnly()
        return prof

    def test_bitwise_with_numpy_route(self, hook_profile, rng):
        m, n, r, nnz = 30, 20, 6, 150
        rows = rng.integers(0, m, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        wide = rng.standard_normal((n, 2 * r))
        for B in (wide[:, :r].copy(), wide[:, r:]):  # contiguous and sliced
            start = rng.standard_normal((m, r))
            a = spmm_scatter(rows, cols, vals, B, start.copy())
            b = spmm_scatter(rows, cols, vals, B, start.copy(), profile=hook_profile)
            np.testing.assert_array_equal(a, b)
        assert hook_profile.total().flops == 2 * 2 * nnz * r

    def test_float32_takes_numpy_route(self, rng):
        class Exploding:
            def spmm_csr_add(self, *args):
                raise AssertionError("compiled hook called for float32")

        prof = RankProfile()
        prof.kernels = Exploding()
        rows = rng.integers(0, 5, 12); cols = rng.integers(0, 4, 12)
        vals = rng.standard_normal(12).astype(np.float32)
        B = rng.standard_normal((4, 3)).astype(np.float32)
        got = spmm_scatter(rows, cols, vals, B, np.zeros((5, 3), np.float32),
                           profile=prof)
        ref = spmm_scatter(rows, cols, vals, B, np.zeros((5, 3), np.float32))
        np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------
# numpy-vs-numba equivalence (CI kernel-backends lane)
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaEquivalence:
    @pytest.fixture(scope="class")
    def profs(self):
        return backend_profile("numpy"), backend_profile("numba")

    @pytest.fixture
    def coords(self, rng):
        m, n, r, nnz = 60, 80, 16, 400
        rows = np.sort(rng.integers(0, m, nnz))
        cols = rng.integers(0, n, nnz)
        A = rng.standard_normal((m, r))
        B = rng.standard_normal((n, r))
        return m, n, rows, cols, A, B

    # -- bitwise-gated kernels -----------------------------------------

    def test_spmm_a_block_bitwise(self, profs, coords, rng):
        np_prof, nb_prof = profs
        m, n, rows, cols, A, B = coords
        block = SparseBlock(rows, cols, rng.standard_normal(len(rows)), (m, n))
        outs = []
        for prof in (np_prof, nb_prof):
            out = np.zeros((m, B.shape[1]))
            spmm_a_block(block, B, out, profile=prof)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_spmm_a_block_values_override_bitwise(self, profs, coords, rng):
        np_prof, nb_prof = profs
        m, n, rows, cols, A, B = coords
        block = SparseBlock(rows, cols, rng.standard_normal(len(rows)), (m, n))
        vals = rng.standard_normal(len(rows))
        outs = []
        for prof in (np_prof, nb_prof):
            out = np.zeros((m, B.shape[1]))
            spmm_a_block(block, B, out, values=vals, profile=prof)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_spmm_b_block_bitwise(self, profs, coords, rng):
        np_prof, nb_prof = profs
        m, n, rows, cols, A, B = coords
        block = SparseBlock(rows, cols, rng.standard_normal(len(rows)), (m, n))
        outs = []
        for prof in (np_prof, nb_prof):
            out = np.zeros((n, A.shape[1]))
            spmm_b_block(block, A, out, profile=prof)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_spmm_empty_block(self, profs):
        _, nb_prof = profs
        block = SparseBlock(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64),
                            np.array([]), (4, 4))
        out = np.zeros((4, 3))
        spmm_a_block(block, np.ones((4, 3)), out, profile=nb_prof)
        np.testing.assert_array_equal(out, 0.0)

    def test_spmm_duplicate_coordinates_bitwise(self, profs):
        np_prof, nb_prof = profs
        rows = np.array([1, 1, 1, 2]); cols = np.array([0, 0, 1, 1])
        vals = np.array([0.3, -0.7, 2.0, 1.5])
        block = SparseBlock(rows, cols, vals, (4, 2))
        B = np.arange(6.0).reshape(2, 3)
        outs = []
        for prof in (np_prof, nb_prof):
            out = np.zeros((4, 3))
            spmm_a_block(block, B, out, profile=prof)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_spmm_scatter_bitwise(self, profs, coords, rng):
        np_prof, nb_prof = profs
        m, n, rows, cols, _, B = coords
        vals = rng.standard_normal(len(rows))
        for rws in (rows, rng.permutation(rows)):  # sorted and unsorted
            outs = []
            for prof in (np_prof, nb_prof):
                out = np.ones((m, B.shape[1]))
                spmm_scatter(rws, cols, vals, B, out, profile=prof)
                outs.append(out)
            np.testing.assert_array_equal(outs[0], outs[1])

    def test_spmm_scatter_full_height_bitwise(self, profs, rng, monkeypatch):
        """A chunk into an ``out`` at most ``2 * nnz`` rows tall, most of
        them empty, reaches the compiled hook with ``rows=None`` (it adds
        each non-empty row's sum straight into ``out``): bitwise numpy."""
        np_prof, nb_prof = profs
        m, n, r, nnz = 120, 80, 16, 60
        rows = np.sort(rng.choice([2, 3, 50, 51, 119], nnz))
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        B = rng.standard_normal((n, r))
        start = rng.standard_normal((m, r))
        hook = nb_prof.kernels.spmm_csr_add
        seen = []

        def spy(*args):
            seen.append(args[5] if len(args) > 5 else None)
            return hook(*args)

        monkeypatch.setattr(nb_prof.kernels, "spmm_csr_add", spy)
        for rws in (rows, rng.permutation(rows)):  # sorted and unsorted
            outs = []
            for prof in (np_prof, nb_prof):
                out = start.copy()
                spmm_scatter(rws, cols, vals, B, out, profile=prof)
                outs.append(out)
            np.testing.assert_array_equal(outs[0], outs[1])
        assert seen == [None, None]

    def test_gat_edge_scores_bitwise(self, profs, coords, rng):
        np_prof, nb_prof = profs
        m, n, rows, cols, _, _ = coords
        uL = rng.standard_normal(m); uR = rng.standard_normal(n)
        a = gat_edge_scores(uL, uR, rows, cols, profile=np_prof)
        b = gat_edge_scores(uL, uR, rows, cols, profile=nb_prof)
        np.testing.assert_array_equal(a, b)

    def test_sddmm_custom_opaque_callable_bitwise(self, profs, coords):
        """Opaque callables never dispatch to the compiled backend, so
        equality holds by construction — gated anyway as the contract."""
        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        op = lambda ga, gb: np.maximum(ga, gb).sum(axis=1)  # noqa: E731
        a = sddmm_custom(A, B, rows, cols, op, profile=np_prof)
        b = sddmm_custom(A, B, rows, cols, op, profile=nb_prof)
        np.testing.assert_array_equal(a, b)

    def test_float32_falls_back_bitwise(self, profs, coords):
        """Non-float64 operands take the numpy path on every backend."""
        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        A32 = A.astype(np.float32); B32 = B.astype(np.float32)
        a = sddmm_coo(A32, B32, rows, cols, profile=np_prof)
        b = sddmm_coo(A32, B32, rows, cols, profile=nb_prof)
        np.testing.assert_array_equal(a, b)

    # -- documented-tolerance kernels ----------------------------------

    def test_sddmm_coo_tolerance(self, profs, coords, rng):
        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        a = sddmm_coo(A, B, rows, cols, profile=np_prof)
        b = sddmm_coo(A, B, rows, cols, profile=nb_prof)
        np.testing.assert_allclose(a, b, **TOL)
        # s_vals scaling stays in the wrapper: same tolerance applies
        s = rng.standard_normal(len(rows))
        a = sddmm_coo(A, B, rows, cols, s_vals=s, profile=np_prof)
        b = sddmm_coo(A, B, rows, cols, s_vals=s, profile=nb_prof)
        np.testing.assert_allclose(a, b, **TOL)

    def test_sddmm_coo_col_range_and_accumulate(self, profs, coords):
        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        outs = []
        for prof in (np_prof, nb_prof):
            out = np.ones(len(rows))
            sddmm_coo(A, B, rows, cols, out=out, accumulate=True,
                      col_range=(4, 12), profile=prof)
            outs.append(out)
        np.testing.assert_allclose(outs[0], outs[1], **TOL)

    def test_sddmm_custom_gat_op_tolerance(self, profs, coords, rng):
        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        op = GatScoreOp(rng.standard_normal(A.shape[1]),
                        rng.standard_normal(B.shape[1]), 0.2)
        a = sddmm_custom(A, B, rows, cols, op, profile=np_prof)
        b = sddmm_custom(A, B, rows, cols, op, profile=nb_prof)
        np.testing.assert_allclose(a, b, **TOL)

    def test_read_only_operands_are_warmed_up(self, profs, coords):
        """Bound dense blocks reach the SDDMM kernels read-only in either
        operand position, and a warm chunk round's coordinates (frozen by
        ``CarriedCoords``) reach ``sddmm_coo`` read-only: the warm-up
        compiled every combination, so a call compiles nothing and
        matches the writeable operands."""
        import repro.kernels.backend_numba as bn

        np_prof, nb_prof = profs
        _, _, rows, cols, A, B = coords
        A_ro, B_ro = A.copy(), B.copy()
        rows_ro, cols_ro = rows.copy(), cols.copy()
        for arr in (A_ro, B_ro, rows_ro, cols_ro):
            arr.flags.writeable = False
        op = GatScoreOp(np.ones(A.shape[1]), np.ones(B.shape[1]), 0.2)
        kernels = (bn._sddmm_dots_add, bn._sddmm_gat_score)
        compiled = [len(k.signatures) for k in kernels]
        want = sddmm_coo(A, B, rows, cols, profile=np_prof)
        want_gat = sddmm_custom(A, B, rows, cols, op, profile=np_prof)
        for X, Y in ((A_ro, B), (A, B_ro), (A_ro, B_ro)):
            got = sddmm_coo(X, Y, rows, cols, profile=nb_prof)
            np.testing.assert_allclose(got, want, **TOL)
            got = sddmm_custom(X, Y, rows, cols, op, profile=nb_prof)
            np.testing.assert_allclose(got, want_gat, **TOL)
        for X, Y in ((A, B), (A_ro, B), (A, B_ro), (A_ro, B_ro)):
            got = sddmm_coo(X, Y, rows_ro, cols_ro, profile=nb_prof)
            np.testing.assert_allclose(got, want, **TOL)
        assert [len(k.signatures) for k in kernels] == compiled

    def test_read_only_sparse_values_are_warmed_up(self, profs, coords):
        """A circulating chunk's resident sparse values, and a warm chunk
        round's coordinates (frozen by ``CarriedCoords``), reach the SpMM
        kernel read-only, apart or together: the warm-up compiled that
        too."""
        import repro.kernels.backend_numba as bn

        np_prof, nb_prof = profs
        m, _, rows, cols, _, B = coords
        vals = np.linspace(-1.0, 1.0, len(rows))
        vals_ro, rows_ro, cols_ro = vals.copy(), rows.copy(), cols.copy()
        for arr in (vals_ro, rows_ro, cols_ro):
            arr.flags.writeable = False
        compiled = len(bn._spmm_csr_add.signatures)
        want = spmm_scatter(rows, cols, vals, B, np.zeros((m, B.shape[1])),
                            profile=np_prof)
        for rr, cc, vv in (
            (rows, cols, vals_ro),
            (rows_ro, cols_ro, vals),
            (rows_ro, cols_ro, vals_ro),
        ):
            got = spmm_scatter(rr, cc, vv, B, np.zeros((m, B.shape[1])),
                               profile=nb_prof)
            np.testing.assert_allclose(got, want, **TOL)
        assert len(bn._spmm_csr_add.signatures) == compiled

    # -- end to end ----------------------------------------------------

    def test_session_end_to_end(self, small_problem):
        S, A, B = small_problem
        ref, _ = repro.fusedmm_a(S, A, B, p=4, c=2)
        out, rep = repro.fusedmm_a(S, A, B, p=4, c=2, kernels="numba")
        assert rep.kernel_backend == "numba"
        np.testing.assert_allclose(out, ref, **TOL)
