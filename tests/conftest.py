"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix
from repro.sparse.generate import erdos_renyi


def pytest_addoption(parser):
    parser.addoption(
        "--exec-backend",
        default="threads",
        choices=["threads", "mpi"],
        help="execution backend used by the backend-parameterized "
        "equivalence suites (mpi requires mpi4py under mpirun)",
    )


@pytest.fixture(scope="session")
def exec_backend(request):
    """The backend under test; skips mpi runs when mpi4py is absent."""
    backend = request.config.getoption("--exec-backend")
    if backend != "threads":
        from repro.runtime.backend import mpi_available

        if not mpi_available():
            pytest.skip("backend 'mpi' requested but mpi4py is not installed")
    return backend


def require_world_size(backend, p):
    """Skip a test whose grid a process backend cannot host in this job.

    The thread backend spawns any ``p``; a process backend is pinned to
    the launcher's world size, so only matching grids can run.
    """
    if backend == "threads":
        return
    from repro.runtime.backend_mpi import mpi_world_size

    size = mpi_world_size()
    if size != p:
        pytest.skip(f"backend 'mpi' needs mpirun -n {p}, running under -n {size}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_problem(rng):
    """A rectangular sparse matrix with tall-skinny dense operands."""
    m, n, r = 97, 123, 16
    S = erdos_renyi(m, n, 6, seed=2)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    return S, A, B


@pytest.fixture
def square_problem(rng):
    m = n = 96
    r = 8
    S = erdos_renyi(m, n, 5, seed=7)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((n, r))
    return S, A, B


def make_problem(m, n, r, nnz_per_row, seed=0):
    rng_ = np.random.default_rng(seed)
    S = erdos_renyi(m, n, nnz_per_row, seed=seed)
    A = rng_.standard_normal((m, r))
    B = rng_.standard_normal((n, r))
    return S, A, B


def coo_from_dense(D: np.ndarray) -> CooMatrix:
    rows, cols = np.nonzero(D)
    return CooMatrix(rows, cols, D[rows, cols], D.shape, dedupe=False)


@pytest.fixture
def allreduce_calls(monkeypatch):
    """Record every ``Communicator.allreduce`` as ``(world rank, group
    size, input shape)``, in call order per rank (the rank threads append
    to one list)."""
    from repro.runtime.comm import Communicator

    calls = []
    allreduce = Communicator.allreduce

    def recording(self, arr, *args, **kw):
        calls.append((self.group[self.rank], self.size, np.shape(arr)))
        return allreduce(self, arr, *args, **kw)

    monkeypatch.setattr(Communicator, "allreduce", recording)
    return calls
