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

Name resolution mirrors the execution-backend registry in
:mod:`repro.runtime.backend`: :func:`validate_kernel_backend_name`
canonicalizes and raises a typed
:class:`~repro.errors.UnknownKernelBackendError` for names outside
:data:`KERNEL_BACKENDS`; :func:`ensure_kernel_backend_available` raises
:class:`~repro.errors.KernelBackendUnavailableError` with the install
hint when numba is missing.  Validation never checks availability, so
feature guards (e.g. the thread-backend-only rule) can fire first — the
same guard-ordering rule the execution backends established.

``kernels="auto"`` picks the backend with the highest *measured* flops
ceiling from the per-host microbenchmark calibration in
:mod:`repro.model.calibrate`; only available backends are considered, so
``auto`` degrades to numpy (never raises) on hosts without numba.

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
from typing import NamedTuple, Optional

from repro.errors import KernelBackendUnavailableError, UnknownKernelBackendError
from repro.kernels.backend_numpy import NUMPY

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
    name = str(kernels).strip().lower()
    if name == "auto" and allow_auto:
        return name
    if name not in KERNEL_BACKENDS:
        raise UnknownKernelBackendError(
            f"unknown kernel backend {kernels!r}; registered backends: "
            f"{', '.join(KERNEL_BACKENDS)}"
            + (" (or 'auto' for the measured-calibration pick)" if allow_auto else "")
        )
    return name


def numba_available() -> bool:
    """True when :mod:`numba` is importable (without importing it)."""
    return importlib.util.find_spec("numba") is not None


def available_kernel_backends() -> tuple:
    """The registered backends that can actually run here, in order."""
    return tuple(
        b for b in KERNEL_BACKENDS if b != "numba" or numba_available()
    )


def ensure_kernel_backend_available(kernels: str) -> None:
    """Raise :class:`~repro.errors.KernelBackendUnavailableError` if
    ``kernels`` (already validated, not ``"auto"``) cannot run here."""
    if kernels == "numba" and not numba_available():
        raise KernelBackendUnavailableError(
            "kernels='numba' needs numba, which is not installed. "
            "Install it with `pip install numba`, or use the default "
            "kernels='numpy' (always available) / kernels='auto' "
            "(picks the fastest measured backend among those installed)."
        )


class KernelChoice(NamedTuple):
    """A fully resolved ``kernels=`` knob.

    ``backend`` is the dispatch object rank profiles carry, and
    ``compute_gamma`` is the calibrated seconds-per-FLOP of the chosen
    backend when the choice came from ``"auto"`` (``None`` for explicit
    choices: the cost model then keeps the machine's assumed gamma).
    """

    name: str
    backend: object
    compute_gamma: Optional[float]


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


def resolve_kernel_backend(kernels: str) -> KernelChoice:
    """Validate, availability-check and (for ``"auto"``) calibrate.

    ``"auto"`` consults the cached per-host microbenchmark calibration
    (:func:`repro.model.calibrate.choose_kernel_backend`) over the
    *available* backends, so it never raises on a host without numba —
    it measures what is installed and returns the fastest, together with
    its measured seconds-per-FLOP for the cost model's compute terms.
    """
    name = validate_kernel_backend_name(kernels)
    if name == "auto":
        from repro.model.calibrate import choose_kernel_backend

        picked, gamma = choose_kernel_backend()
        return KernelChoice(picked, get_kernel_backend(picked), gamma)
    ensure_kernel_backend_available(name)
    return KernelChoice(name, get_kernel_backend(name), None)
