"""Tests for FusedMM variant/elision dispatch: ``native_procedure`` and the
one-shot ``repro.fusedmm_a`` / ``repro.fusedmm_b`` that run it."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms.fused import native_procedure
from repro.algorithms.registry import ALGORITHMS, make_algorithm
from repro.baselines.serial import fusedmm_a_serial, fusedmm_b_serial, sddmm_serial
from repro.errors import ReproError
from repro.types import Elision, FusedVariant


def fused(variant, S, A, B, **knobs):
    """One-shot FusedMM on the synchronous schedule."""
    run = repro.fusedmm_a if variant == FusedVariant.FUSED_A else repro.fusedmm_b
    return run(S, A, B, overlap="off", **knobs)


ALL_COMBOS = [
    (name, elision, variant)
    for name, cls in sorted(ALGORITHMS.items())
    for elision in cls.elisions
    for variant in (FusedVariant.FUSED_A, FusedVariant.FUSED_B)
]


@pytest.mark.parametrize(
    "name,elision,variant",
    ALL_COMBOS,
    ids=[f"{n}/{e.value}/{v.value}" for n, e, v in ALL_COMBOS],
)
class TestAllVariantElisionCombos:
    def test_matches_serial(self, name, elision, variant, small_problem):
        S, A, B = small_problem
        out, _ = fused(variant, S, A, B, p=8, c=2, algorithm=name, elision=elision)
        if variant == FusedVariant.FUSED_A:
            ref = fusedmm_a_serial(S, A, B)
        else:
            ref = fusedmm_b_serial(S, A, B)
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)


class TestNativeProcedure:
    def test_native_passthrough(self):
        alg = make_algorithm("1.5d-dense-shift", 4, 1)
        t, native, method = native_procedure(
            alg, FusedVariant.FUSED_B, Elision.REPLICATION_REUSE
        )
        assert (t, native) == (False, "b")
        assert method == alg.rank_fusedmm_reuse

    def test_transposition_for_opposite_variant(self):
        alg = make_algorithm("1.5d-dense-shift", 4, 1)
        t, native, method = native_procedure(
            alg, FusedVariant.FUSED_A, Elision.REPLICATION_REUSE
        )
        assert (t, native) == (True, "b")
        assert method == alg.rank_fusedmm_reuse
        t, native, method = native_procedure(
            alg, FusedVariant.FUSED_B, Elision.LOCAL_KERNEL_FUSION
        )
        assert (t, native) == (True, "a")
        assert method == alg.rank_fusedmm_lkf

    def test_none_is_native_both_ways(self):
        alg = make_algorithm("2.5d-sparse-replicate", 8, 2)
        for variant, want in ((FusedVariant.FUSED_A, "a"), (FusedVariant.FUSED_B, "b")):
            t, native, method = native_procedure(alg, variant, Elision.NONE)
            assert (t, native) == (False, want)
            assert method == getattr(alg, f"rank_fusedmm_none_{want}")

    def test_unsupported_elision_raises(self):
        alg = make_algorithm("2.5d-sparse-replicate", 8, 2)
        with pytest.raises(ReproError):
            native_procedure(alg, FusedVariant.FUSED_A, Elision.LOCAL_KERNEL_FUSION)
        alg = make_algorithm("1.5d-sparse-shift", 8, 2)
        with pytest.raises(ReproError):
            native_procedure(alg, FusedVariant.FUSED_A, Elision.LOCAL_KERNEL_FUSION)


class TestDriverMechanics:
    KNOBS = dict(p=4, c=2, algorithm="1.5d-dense-shift")

    def test_collect_sddmm_intermediate(self, small_problem):
        S, A, B = small_problem
        _, R, _ = fused(
            FusedVariant.FUSED_B, S, A, B, elision=Elision.NONE,
            collect_sddmm=True, **self.KNOBS,
        )
        ref = sddmm_serial(S, A, B)
        np.testing.assert_allclose(
            R.to_scipy().toarray(), ref.to_scipy().toarray(), rtol=1e-9
        )

    def test_collect_sddmm_transposed_path(self, small_problem):
        """With a transposing orientation, R must come back untransposed."""
        S, A, B = small_problem
        _, R, _ = fused(
            FusedVariant.FUSED_A, S, A, B, elision=Elision.REPLICATION_REUSE,
            collect_sddmm=True, **self.KNOBS,
        )
        assert R.shape == S.shape
        ref = sddmm_serial(S, A, B)
        np.testing.assert_allclose(
            R.to_scipy().toarray(), ref.to_scipy().toarray(), rtol=1e-9
        )

    def test_multiple_calls_accumulate_traffic(self, small_problem):
        S, A, B = small_problem
        _, one = fused(FusedVariant.FUSED_A, S, A, B, calls=1, **self.KNOBS)
        _, five = fused(FusedVariant.FUSED_A, S, A, B, calls=5, **self.KNOBS)
        assert five.comm_words == 5 * one.comm_words
        assert five.comm_messages == 5 * one.comm_messages

    def test_shape_mismatch_raises(self, small_problem, rng):
        S, A, B = small_problem
        wide = rng.standard_normal((S.ncols, A.shape[1] + 1))
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, A, wide, **self.KNOBS)
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, rng.standard_normal((3, 4)), B, **self.KNOBS)
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, rng.standard_normal(4), B, **self.KNOBS)
