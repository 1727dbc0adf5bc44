"""The execution-backend seam: registry, guards, and graceful degradation.

Everything here runs on the thread backend or against the guard layer, so
the suite is tier-1 (no mpi4py required).  The mpi transport itself is
exercised bitwise by the CI ``mpi-smoke`` lane (``repro.cli mpi-smoke``
under ``mpirun``) and by re-running the equivalence suites with
``--exec-backend mpi``.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

import repro
from repro.errors import BackendUnavailableError, ReproError, UnknownBackendError
from repro.runtime.backend import (
    BACKENDS,
    Transport,
    World,
    ensure_backend_available,
    mpi_available,
    resolve_backend,
    validate_backend_name,
)
from repro.runtime.spmd import WorkerPool, make_worker_pool, run_spmd

HAVE_MPI4PY = importlib.util.find_spec("mpi4py") is not None


# ----------------------------------------------------------------------
# name registry
# ----------------------------------------------------------------------


class TestBackendRegistry:
    def test_registry_contents(self):
        assert BACKENDS == ("threads", "mpi")

    @pytest.mark.parametrize("name", ["threads", "mpi", "THREADS", " mpi "])
    def test_known_names_normalize(self, name):
        assert validate_backend_name(name) in BACKENDS

    @pytest.mark.parametrize("bad", ["gasnet", "ucx", "", "thread", "mpich"])
    def test_unknown_name_typed_error(self, bad):
        with pytest.raises(UnknownBackendError) as exc:
            validate_backend_name(bad)
        msg = str(exc.value)
        assert "threads" in msg and "mpi" in msg  # lists the registry

    def test_unknown_backend_is_repro_error(self):
        assert issubclass(UnknownBackendError, ReproError)
        assert issubclass(BackendUnavailableError, ReproError)

    def test_threads_always_available(self):
        ensure_backend_available("threads")
        assert resolve_backend("threads") == "threads"

    def test_mpi_availability_reflects_mpi4py(self):
        assert mpi_available() == HAVE_MPI4PY

    def test_missing_mpi4py_install_hint(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.backend.mpi_available", lambda: False
        )
        with pytest.raises(BackendUnavailableError) as exc:
            ensure_backend_available("mpi")
        assert "mpi4py" in str(exc.value)
        assert "mpirun" in str(exc.value) or "pip install" in str(exc.value)

    @pytest.mark.skipif(HAVE_MPI4PY, reason="mpi4py installed here")
    def test_missing_mpi4py_install_hint_real(self):
        with pytest.raises(BackendUnavailableError) as exc:
            resolve_backend("mpi")
        assert "mpi4py" in str(exc.value)


# ----------------------------------------------------------------------
# factory + transport surface
# ----------------------------------------------------------------------


class TestFactory:
    def test_threads_pool(self):
        with make_worker_pool("threads", 2) as pool:
            assert isinstance(pool, WorkerPool)
            assert pool.spans_processes is False
            results, _ = pool.run(lambda comm: comm.rank)
            assert results == [0, 1]

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError):
            make_worker_pool("smp", 2)

    def test_world_is_a_transport(self):
        w = World(2)
        assert isinstance(w, Transport)
        for attr in ("deliver", "collect", "abort", "reset", "describe_blocked"):
            assert callable(getattr(w, attr))

    def test_transport_is_abstract(self):
        with pytest.raises(TypeError):
            Transport()  # type: ignore[abstract]

    def test_backend_mpi_imports_without_mpi4py(self):
        # The module must import cleanly so guards raise typed errors,
        # not ImportError, in environments without mpi4py.
        import repro.runtime.backend_mpi as bm

        assert bm.MpiWorkerPool.spans_processes is True

    def test_run_spmd_backend_knob(self):
        results, _ = run_spmd(2, lambda comm: comm.rank, backend="threads")
        assert results == [0, 1]
        with pytest.raises(UnknownBackendError):
            run_spmd(2, lambda comm: comm.rank, backend="bogus")


# ----------------------------------------------------------------------
# session / api plumbing
# ----------------------------------------------------------------------


class TestSessionBackend:
    def test_explicit_threads_equals_default(self, small_problem):
        S, A, B = small_problem
        ref, _ = repro.fusedmm_a(S, A, B, p=4, c=2, algorithm="1.5d-dense-shift")
        out, _ = repro.fusedmm_a(
            S, A, B, p=4, c=2, algorithm="1.5d-dense-shift", backend="threads"
        )
        assert np.array_equal(out, ref)

    def test_plan_rejects_unknown_backend(self, small_problem):
        S, A, _ = small_problem
        with pytest.raises(UnknownBackendError):
            repro.plan(S, A.shape[1], p=4, c=2, backend="fabric")

    def test_repr_names_backend(self, small_problem):
        S, A, _ = small_problem
        with repro.plan(S, A.shape[1], p=4, c=2) as sess:
            assert "backend='threads'" in repr(sess)

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"faults": {"seed": 1, "crash_rate": 0.5}}, "fault"),
            ({"retries": 1}, "retries"),
        ],
    )
    def test_mpi_thread_only_guards(self, small_problem, kwargs, needle):
        """Thread-only features are rejected before the availability check,
        so the guard is testable without mpi4py."""
        S, A, _ = small_problem
        with pytest.raises(ReproError, match=needle):
            repro.plan(S, A.shape[1], p=4, c=2, backend="mpi", **kwargs)

    @pytest.mark.skipif(HAVE_MPI4PY, reason="mpi4py installed here")
    def test_plan_mpi_without_mpi4py_hint(self, small_problem):
        S, A, _ = small_problem
        with pytest.raises(BackendUnavailableError, match="mpi4py"):
            repro.plan(S, A.shape[1], p=4, c=2, backend="mpi")

    @pytest.mark.skipif(HAVE_MPI4PY, reason="mpi4py installed here")
    def test_one_shot_mpi_without_mpi4py_hint(self, small_problem):
        S, A, B = small_problem
        with pytest.raises(BackendUnavailableError, match="mpi4py"):
            repro.fusedmm_a(S, A, B, p=4, c=2, backend="mpi")
