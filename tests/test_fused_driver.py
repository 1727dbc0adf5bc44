"""Tests for kernel dispatch: ``native_procedure``, the one table for all
five kernels, the session's one submit path that runs it, and the
one-shot ``repro.fusedmm_a`` / ``repro.fusedmm_b``."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.session
from repro.algorithms.fused import native_procedure
from repro.algorithms.registry import ALGORITHMS, make_algorithm
from repro.baselines.serial import fusedmm_a_serial, fusedmm_b_serial, sddmm_serial
from repro.errors import ReproError
from repro.types import Elision, FusedVariant, Mode


def fused(variant, S, A, B, **knobs):
    """One-shot FusedMM."""
    run = repro.fusedmm_a if variant == FusedVariant.FUSED_A else repro.fusedmm_b
    return run(S, A, B, **knobs)


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

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "mode,side", [(Mode.SDDMM, ""), (Mode.SPMM_A, "a"), (Mode.SPMM_B, "b")]
    )
    def test_single_modes_run_the_unified_kernel(self, name, mode, side):
        """A single mode is un-transposed, writes its own side (the SDDMM
        none: R lives with the sparse values) and skips the elision check
        — even an elision the family lacks names no FusedMM here."""
        alg = make_algorithm(name, 8, 2)
        for elision in Elision:
            t, written, method = native_procedure(alg, mode, elision)
            assert (t, written) == (False, side)
            assert method.func == alg.rank_kernel
            assert method.args == () and method.keywords == {"mode": mode}


#: per family: the comm and elision its all-kernels session runs (a
#: transposing elision where the family has one; sparse comm where it can)
FAMILY_SESSIONS = {
    "1.5d-dense-shift": ("dense", Elision.REPLICATION_REUSE),
    "1.5d-sparse-shift": ("sparse", Elision.REPLICATION_REUSE),
    "2.5d-dense-replicate": ("dense", Elision.REPLICATION_REUSE),
    "2.5d-sparse-replicate": ("sparse", Elision.NONE),
}


@pytest.mark.parametrize("name", sorted(FAMILY_SESSIONS))
class TestOneSubmitPath:
    """Every kernel a session runs goes through ``native_procedure``: one
    label rule, and no kernel leaves a side it wrote dirty — its output is
    transient, the inputs stay resident."""

    KERNELS = [
        (Mode.SDDMM, lambda s, A, B: s.sddmm(A, B)),
        (Mode.SPMM_A, lambda s, A, B: s.spmm_a(B)),
        (Mode.SPMM_B, lambda s, A, B: s.spmm_b(A)),
        (FusedVariant.FUSED_A, lambda s, A, B: s.fusedmm_a(A, B)),
        (FusedVariant.FUSED_B, lambda s, A, B: s.fusedmm_b(A, B)),
    ]

    def test_labels_and_rescattered_sides(self, name, small_problem):
        S, A, B = small_problem
        comm, elision = FAMILY_SESSIONS[name]
        suffix = "/sparse-comm" if comm == "sparse" else ""
        with repro.plan(
            S, A.shape[1], p=8, c=2, algorithm=name, elision=elision, comm=comm
        ) as sess:
            for kernel, run in self.KERNELS:
                single = isinstance(kernel, Mode)
                label = f"{name}/{(kernel if single else elision).value}{suffix}"
                # the probe reads both sides of the kernel's orientation
                # with the same operands: nothing is scattered again, not
                # even the side the kernel wrote
                probe = self.KERNELS[0][1] if single else run
                sess.reset_profile()
                *_, report = run(sess, A, B)
                before = dict(sess.dense_bind_counts)
                probe(sess, A, B)
                rescattered = {
                    s for s, n in sess.dense_bind_counts.items() if n != before[s]
                }
                assert rescattered == set(), kernel
                assert report.label == f"{label}/x1"
                assert sess.metrics()[0]["label"] == label

#: the SDDMM options a family's rank_kernel does not take
SDDMM_OPTIONS = {"use_values": False, "edge_op": lambda a, b: (a * b).sum(1)}
LACKING = [
    (name, key)
    for name, cls in sorted(ALGORITHMS.items())
    for key in SDDMM_OPTIONS
    if key not in inspect.signature(cls.rank_kernel).parameters
]


@pytest.mark.parametrize("name,key", LACKING, ids=[f"{n}/{k}" for n, k in LACKING])
def test_sddmm_keyword_the_family_lacks_is_typed(name, key, small_problem):
    """An SDDMM option the family's rank_kernel does not take fails before
    any rank runs, naming the family and the keyword."""
    S, A, B = small_problem
    comm, elision = FAMILY_SESSIONS[name]
    with repro.plan(
        S, A.shape[1], p=8, c=2, algorithm=name, elision=elision, comm=comm
    ) as sess:
        with pytest.raises(ReproError, match=f"{name}.*{key}"):
            sess.sddmm(A, B, **{key: SDDMM_OPTIONS[key]})
        assert sess.metrics() == []
        assert sess.plan_builds == 0


def test_session_compares_nothing_against_the_spmm_modes():
    """Which side a single mode writes is the table's answer, not a
    branch in the session."""
    tree = ast.parse(Path(repro.session.__file__).read_text())
    spmm = {"SPMM_A", "SPMM_B"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                assert not (
                    isinstance(operand, ast.Attribute) and operand.attr in spmm
                ), f"session.py:{node.lineno} compares against Mode.{operand.attr}"


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
        """Five calls move one cold call plus four warm ones: a warm call's
        input A is the very block the first call bound, so its fiber
        replica is reused.  Each call's SDDMM and SpMMA rounds read the
        circulating B block only, so it skips its hop home in both."""
        S, A, B = small_problem
        _, one = fused(FusedVariant.FUSED_A, S, A, B, calls=1, **self.KNOBS)
        _, five = fused(FusedVariant.FUSED_A, S, A, B, calls=5, **self.KNOBS)
        with repro.plan(S, A.shape[1], **self.KNOBS) as sess:
            sess.fusedmm_a(A, B)
            sess.reset_profile()
            _, warm = sess.fusedmm_a(A, B)
        assert (one.comm_words, one.comm_messages) == (1776, 4)
        assert (warm.comm_words, warm.comm_messages) == (1392, 3)
        assert five.comm_words == one.comm_words + 4 * warm.comm_words
        assert five.comm_messages == one.comm_messages + 4 * warm.comm_messages

    def test_shape_mismatch_raises(self, small_problem, rng):
        S, A, B = small_problem
        wide = rng.standard_normal((S.ncols, A.shape[1] + 1))
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, A, wide, **self.KNOBS)
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, rng.standard_normal((3, 4)), B, **self.KNOBS)
        with pytest.raises(ReproError):
            fused(FusedVariant.FUSED_A, S, rng.standard_normal(4), B, **self.KNOBS)
