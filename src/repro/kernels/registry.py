"""Kernel-backend registry: ``kernels="numpy"|"numba"|"auto"``.

The six hot local kernels — :func:`~repro.kernels.sddmm.sddmm_coo`,
:func:`~repro.kernels.sddmm.sddmm_custom`,
:func:`~repro.kernels.sddmm.gat_edge_scores`,
:func:`~repro.kernels.spmm.spmm_a_block`,
:func:`~repro.kernels.spmm.spmm_b_block` and
:func:`~repro.kernels.spmm.spmm_scatter` — dispatch their inner compute
loop through the backend object a :class:`~repro.session.Session`
attaches to its rank profiles (``profile.kernels``):
:data:`~repro.kernels.backend_numpy.NUMPY` (the default,
``kernels="numpy"``: SciPy's CSR loop on raw arrays, ``np.take``
gathers) or, for ``"numba"``, the JIT'd ``prange`` kernels of
:mod:`repro.kernels.backend_numba`.  Calls without a profile, and calls
on non-float64 operands, always run the numpy backend.

This module holds the names, their availability and the dispatch
objects, on the same :class:`~repro.types.NameRegistry` the execution
backends use (:mod:`repro.runtime.backend`):
:func:`validate_kernel_backend_name` canonicalizes and raises a typed
:class:`~repro.errors.UnknownKernelBackendError` for names outside
:data:`KERNEL_BACKENDS`; :func:`ensure_kernel_backend_available` raises
:class:`~repro.errors.KernelBackendUnavailableError` with the install
hint when numba is missing.  Validation never checks availability, so
feature guards (e.g. the thread-backend-only rule) can fire first.

``kernels="auto"`` is not decided here: the measured per-host pick
(:mod:`repro.model.calibrate`) and the resolution of the knob
(:func:`repro.model.resolve.resolve`) live one layer up and import this
module — nothing under ``kernels/`` imports the model.

**Bitwise policy** (gated in ``tests/test_kernel_backends.py``):
``spmm_a_block``, ``spmm_b_block``, ``spmm_scatter`` (all one CSR walk),
``gat_edge_scores`` and the numpy fallback of ``sddmm_custom`` are
bitwise-identical across backends.  ``sddmm_coo`` and the compiled
:class:`~repro.kernels.sddmm.GatScoreOp` path of ``sddmm_custom`` carry
a documented tolerance instead: their numpy formulations reduce through
``np.einsum`` / BLAS gemv, whose internal accumulation order depends on
SIMD width and numpy/BLAS version and cannot be replicated portably
(error bound ``O(r * eps)`` per reduced element; see
``backend_numba.py``).

**Adding a third backend** (e.g. cupy): extend :data:`KERNEL_BACKENDS`,
add an availability probe, and return an object from
:func:`get_kernel_backend` with the four inner-compute hooks
(``sddmm_dots_add``, ``gat_edge_scores``, ``sddmm_gat_score``,
``spmm_csr_add``), a ``name`` attribute and a
``warmup()`` method — the wrappers and the Session never special-case a
backend.
"""

from __future__ import annotations

import importlib.util

from repro.errors import KernelBackendUnavailableError, UnknownKernelBackendError
from repro.kernels.backend_numpy import NUMPY
from repro.types import NameRegistry

#: registered kernel backends, in default-preference order
KERNEL_BACKENDS = ("numpy", "numba")

#: the dispatched kernels (informational; the registry ships them all)
DISPATCHED_KERNELS = (
    "sddmm_coo",
    "sddmm_custom",
    "gat_edge_scores",
    "spmm_a_block",
    "spmm_b_block",
    "spmm_scatter",
)


def numba_available() -> bool:
    """True when :mod:`numba` is importable (without importing it)."""
    return importlib.util.find_spec("numba") is not None


_REGISTRY = NameRegistry(
    "kernel backend",
    KERNEL_BACKENDS,
    UnknownKernelBackendError,
    KernelBackendUnavailableError,
    {
        "numba": (
            lambda: numba_available(),  # looked up per call: tests patch it
            "kernels='numba' needs numba, which is not installed. "
            "Install it with `pip install numba`, or use the default "
            "kernels='numpy' (always available) / kernels='auto' "
            "(picks the fastest measured backend among those installed).",
        )
    },
)


def validate_kernel_backend_name(kernels: str, allow_auto: bool = True) -> str:
    """Canonicalize a kernel-backend name or raise a typed error.

    Accepts the names in :data:`KERNEL_BACKENDS` plus ``"auto"`` (unless
    ``allow_auto=False``), case-insensitively; anything else raises
    :class:`~repro.errors.UnknownKernelBackendError` naming the
    registered backends.  Availability is *not* checked here — see
    :func:`ensure_kernel_backend_available` — so callers can validate
    knobs (and apply feature guards) before deciding whether the backend
    must actually run.
    """
    return _REGISTRY.validate(kernels, also=("auto",) if allow_auto else ())


#: ``available_kernel_backends() -> tuple``: the registered backends that
#: can actually run here, in registry order.
available_kernel_backends = _REGISTRY.available

#: ``ensure_kernel_backend_available(kernels)`` raises
#: :class:`~repro.errors.KernelBackendUnavailableError` with the install
#: hint if ``kernels`` (already validated, not ``"auto"``) cannot run here.
ensure_kernel_backend_available = _REGISTRY.ensure_available


_NUMBA_SINGLETON = None


def get_kernel_backend(kernels: str):
    """The dispatch object for a validated, available backend name.

    Both are process-wide singletons: the numpy backend is stateless,
    and numba's JIT warmup is per-process, not per-session.
    """
    if kernels == "numpy":
        return NUMPY
    global _NUMBA_SINGLETON
    if _NUMBA_SINGLETON is None:
        ensure_kernel_backend_available(kernels)
        from repro.kernels.backend_numba import NumbaKernels

        _NUMBA_SINGLETON = NumbaKernels()
    return _NUMBA_SINGLETON
