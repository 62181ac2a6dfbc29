import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ffk
from ffk import fusion
from ffk.documents import FrameDocument
from ffk.erasure import erasure_certificate
from ffk.errors import (
    DimensionMismatch,
    EmptyRemainder,
    NonFiniteEntries,
    NonPositiveWeight,
    NotAFusionFrame,
    NotUniformWeights,
    SingularOperator,
    UnknownExample,
    ZeroSubspace,
)
from ffk.fusion import (
    FusionFrame,
    Subspace,
    apply_operator,
    build_fusion_frame,
    classify,
    erase,
    excess,
    frame_bounds,
    fusion_frame_operator,
    operator_image_report,
    redundancy_at,
    redundancy_equivalent,
    redundancy_range,
    redundancy_samples,
    synthesis_matrix,
    union,
    verify_projection_decomposition,
)
from ffk.gallery import EXAMPLE_NAMES, example_frame
from ffk.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthogonal_decomposition,
    random_subspace,
    random_system,
    random_tight_uniform_fusion_frame,
    random_unitary,
    random_vector_frame,
)
from ffk.numerics import COMPLEX, REAL, Tolerance, sample_unit_vectors
from ffk.systems import check_local_additivity, parseval_equivalences, redundancy_one_equivalence
from ffk.vector_frames import VectorFrame, canonical_dual, dual_redundancy_sandwich
from test_differential import projection, reference_member_bases, reference_sampled_equivalence_gap


def coordinate_vector(i: int, n: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def embed_blockwise(frame: FusionFrame, total: int, offset: int) -> FusionFrame:
    """Lift a frame into a larger ambient space as a block at ``offset``."""
    bases = []
    for basis in reference_member_bases(frame):
        lifted = np.zeros((total, basis.shape[1]), dtype=basis.dtype)
        lifted[offset : offset + basis.shape[0], :] = basis
        bases.append(lifted)
    return FusionFrame(bases, frame.weights)


@pytest.mark.parametrize("kind", ["subspaces", "vectors"])
def test_members_are_the_stacked_blocks_unchecked_for_the_benchmark_probe(kind, rng, monkeypatch):
    # ``members`` has one reader, the benchmark's probe: construction builds no
    # Subspace, the first read builds one per member, each basis is block i of
    # ``bases`` bit for bit, read-only, and no basis is checked again.
    built, init = [], Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__", lambda self, basis: built.append(basis) or init(self, basis))
    frame = random_fusion_frame(rng, n=5, members=4) if kind == "subspaces" else random_vector_frame(rng, n=4, count=7)
    assert built == []
    check, calls = fusion._orthonormal_basis, []
    monkeypatch.setattr(fusion, "_orthonormal_basis", lambda *args: calls.append(args) or check(*args))
    members = frame.members
    assert calls == [] and frame.members is members and len(members) == len(built) == frame.member_count
    for member, block, weight in zip(members, reference_member_bases(frame), frame.weights.tolist()):
        basis = member.subspace.basis
        assert (basis.shape, basis.tobytes()) == (block.shape, block.tobytes())
        assert np.shares_memory(basis, frame.bases) and not basis.flags.writeable
        assert member.weight == weight


class TestGalleryOracles:
    """Frozen expected values for the four named presets."""

    def test_names(self):
        assert EXAMPLE_NAMES == ("7.1", "7.1-V", "7.2", "7.3")
        with pytest.raises(UnknownExample):
            example_frame("nope")

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_repeated_line_family(self, n):
        frame = example_frame("7.1", n)
        assert frame.member_count == 2 * n
        report = classify(frame)
        assert report.redundancy[0] == pytest.approx(1.0, abs=1e-9)
        assert report.redundancy[1] == pytest.approx(n + 1.0, abs=1e-9)
        assert not report.tight
        assert not report.uniform_redundancy
        assert report.excess == n
        assert not report.minimal
        assert abs(redundancy_at(frame, coordinate_vector(0, n)) - (n + 1)) < 1e-9
        assert abs(redundancy_at(frame, coordinate_vector(n - 1, n)) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_doubled_line_family(self, n):
        frame = example_frame("7.1-V", n)
        report = classify(frame)
        assert report.redundancy[0] == pytest.approx(2.0, abs=1e-9)
        assert report.redundancy[1] == pytest.approx(2.0, abs=1e-9)
        assert report.tight
        assert not report.parseval
        assert report.uniform_redundancy
        assert report.uniform_weights
        assert report.excess == n

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_orthonormal_fusion_basis(self, n):
        frame = example_frame("7.2", n)
        report = classify(frame)
        assert report.bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert report.bounds.upper == pytest.approx(1.0, abs=1e-12)
        assert report.tight and report.parseval and report.orthonormal_fusion_basis
        assert report.minimal and report.excess == 0
        assert report.uniform_redundancy and report.uniform_weights
        assert not report.bessel_only

    def test_weighted_coordinate_family(self):
        frame = example_frame("7.3")
        assert frame.ambient_dim == 5
        assert frame.field == COMPLEX
        assert tuple(frame.dims) == (3, 3, 2, 2)
        assert np.allclose(
            frame.weights**2, [2.0 / 3.0, 4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]
        )
        assert np.allclose(fusion_frame_operator(frame), 2.0 * np.eye(5), atol=1e-12)
        report = classify(frame)
        assert report.bounds.lower == pytest.approx(2.0, abs=1e-12)
        assert report.bounds.upper == pytest.approx(2.0, abs=1e-12)
        assert report.tight and not report.parseval
        assert not report.uniform_weights
        assert report.uniform_redundancy
        assert report.redundancy == pytest.approx((2.0, 2.0), abs=1e-12)
        assert report.excess == 5

    def test_weighted_family_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            example_frame("7.3", 4)

    def test_scalable_preset_needs_dimension_at_least_two(self):
        with pytest.raises(DimensionMismatch):
            example_frame("7.1", 1)


class TestConstruction:
    def test_build_from_spans(self):
        frame = build_fusion_frame(
            [(np.array([[1.0], [0.0]]), 1.0), (np.array([[0.0], [1.0]]), 1.0)], 2
        )
        assert frame.is_frame
        assert frame.member_count == 2

    def test_member_indexed_zero_span(self):
        with pytest.raises(ZeroSubspace, match="member 1"):
            build_fusion_frame(
                [(np.array([[1.0], [0.0]]), 1.0), (np.zeros((2, 1)), 1.0)], 2
            )

    def test_member_indexed_bad_weight(self):
        with pytest.raises(NonPositiveWeight, match="member 0"):
            build_fusion_frame([(np.array([[1.0], [0.0]]), -1.0)], 2)

    def test_bases_and_weights_build_the_stacked_form(self, rng):
        Q1, Q2 = random_subspace(rng, 4, 1), random_subspace(rng, 4, 3)
        frame = FusionFrame([Q1, Q2], [0.5, 2.0])
        assert frame.weights.tolist() == [0.5, 2.0]
        assert frame.dims.tolist() == [1, 3] and frame.offsets.tolist() == [0, 1, 4]
        assert frame.bases.tobytes() == np.concatenate([Q1, Q2], axis=1).tobytes()
        assert frame.is_frame and frame.field == COMPLEX

    def test_nonpositive_weight_rejected(self, rng):
        bases = [random_subspace(rng, 3, 1), random_subspace(rng, 3, 2)]
        for weight in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveWeight, match=r"^member 1: weight must be strictly positive"):
                FusionFrame(bases, [1.0, weight])

    def test_non_orthonormal_basis_names_its_member(self):
        with pytest.raises(DimensionMismatch, match=r"^member 1: basis columns are not orthonormal"):
            FusionFrame([np.eye(2)[:, :1], np.array([[1.0], [1.0]])], [1.0, 1.0])

    def test_non_finite_basis_names_its_member(self):
        with pytest.raises(NonFiniteEntries, match=r"^member 0: basis contains NaN or infinite entries$"):
            FusionFrame([np.array([[np.nan], [1.0]]), np.eye(2)], [1.0, 1.0])

    def test_basis_of_the_wrong_shape_names_its_member(self):
        with pytest.raises(DimensionMismatch, match=r"^member 0: basis must be n x d"):
            FusionFrame([np.array([1.0, 0.0])], [1.0])

    def test_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="^2 bases for 1 weights$"):
            FusionFrame([np.eye(2)[:, :1], np.eye(2)[:, 1:]], [1.0])

    def test_mixed_ambient_dimensions_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="^member 1 lives in dimension 4, expected 3$"):
            FusionFrame([random_subspace(rng, 3, 1), random_subspace(rng, 4, 1)], [1.0, 1.0])

    def test_mixed_fields_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="mix real and complex"):
            FusionFrame([random_subspace(rng, 3, 1, field) for field in (REAL, COMPLEX)], [1.0, 1.0])

    def test_empty_family_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least one member"):
            FusionFrame([], [])

    def test_random_family_that_cannot_span_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            random_fusion_frame(np.random.default_rng(0), 15, members=3, max_dim=4)
        with pytest.raises(DimensionMismatch):
            random_fusion_frame(np.random.default_rng(0), 40)
        for seed in range(20):
            assert random_fusion_frame(np.random.default_rng(seed), 15).is_frame

    def test_bessel_only_is_tagged_not_raised(self):
        frame = build_fusion_frame([(np.array([[1.0], [0.0]]), 1.0)], 2)
        assert not frame.is_frame
        with pytest.raises(NotAFusionFrame):
            frame_bounds(frame)

    def test_bessel_only_classification(self):
        frame = build_fusion_frame([(np.array([[1.0], [0.0]]), 2.0)], 2)
        report = classify(frame)
        assert report.bessel_only
        assert report.bounds.lower is None
        assert report.bounds.upper == pytest.approx(4.0, abs=1e-12)
        assert report.redundancy[0] == pytest.approx(0.0, abs=1e-12)
        assert not (report.tight or report.parseval or report.uniform_redundancy)


class TestRedundancy:
    def test_values_are_rayleigh_quotients(self, rng):
        frame = random_fusion_frame(rng, n=4)
        values = redundancy_samples(frame, rng, 100)
        low, high = redundancy_range(frame)
        assert values.min() >= low - 1e-9
        assert values.max() <= high + 1e-9

    def test_spectrum_of_s1_is_decomposed_once(self, rng, monkeypatch):
        frame = random_fusion_frame(rng, n=5)
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: shapes.append(M.shape) or eigvalsh(M))
        report = classify(frame)
        values = redundancy_samples(frame, rng, 50)
        assert classify(frame).redundancy == report.redundancy == redundancy_range(frame)
        redundancy_samples(frame, rng, 50)
        assert shapes == [(5, 5)]
        assert values.min() >= report.redundancy[0] - 1e-12
        assert values.max() <= report.redundancy[1] + 1e-12

    def test_range_brackets_member_count(self, rng):
        frame = random_fusion_frame(rng)
        low, high = redundancy_range(frame)
        assert 0.0 <= low <= high <= frame.member_count + 1e-9

    def test_tight_uniform_weight_one_frame_has_constant_redundancy(self, rng):
        frame = random_tight_uniform_fusion_frame(rng, n=4, layers=3)
        low, high = redundancy_range(frame)
        assert low == pytest.approx(3.0, abs=1e-9)
        assert high == pytest.approx(3.0, abs=1e-9)
        bounds = frame_bounds(frame)
        assert bounds.lower == pytest.approx(3.0, abs=1e-9)
        assert bounds.upper == pytest.approx(3.0, abs=1e-9)

    def test_redundancy_ignores_weights(self, rng):
        frame = random_fusion_frame(rng, n=4, members=5)
        scaled = FusionFrame(reference_member_bases(frame), 3.0 * frame.weights)
        assert redundancy_equivalent(frame, scaled)


class TestExcessAndMinimality:
    def test_excess_counts_synthesis_kernel(self, rng):
        frame = random_fusion_frame(rng, n=5)
        m = synthesis_matrix(frame)
        assert excess(frame) == int(frame.dims.sum()) - np.linalg.matrix_rank(m)

    def test_orthogonal_decomposition_is_minimal(self, rng):
        frame = random_orthogonal_decomposition(rng, 6, parts=3)
        assert classify(frame).minimal
        assert excess(frame) == 0
        assert redundancy_range(frame) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_minimal_does_not_force_uniform_redundancy(self):
        """Two lines at 45 degrees: zero excess, redundancy 1 -/+ sqrt(2)/2."""
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
        frame = build_fusion_frame(
            [(np.array([[1.0], [0.0]]), 1.0), (diag, 1.0)], 2
        )
        assert classify(frame).minimal
        low, high = redundancy_range(frame)
        assert low == pytest.approx(1.0 - math.sqrt(2) / 2, abs=1e-9)
        assert high == pytest.approx(1.0 + math.sqrt(2) / 2, abs=1e-9)
        assert not classify(frame).uniform_redundancy

    def test_excess_invariant_under_unitary(self, rng):
        frame = random_fusion_frame(rng, n=4)
        image = apply_operator(frame, random_unitary(rng, 4, frame.field))
        assert excess(image) == excess(frame)

    def test_excess_invariant_under_weight_scaling(self, rng):
        frame = random_fusion_frame(rng, n=4)
        for alpha in (0.5, 3.0):
            scaled = FusionFrame(reference_member_bases(frame), alpha * frame.weights)
            assert excess(scaled) == excess(frame)

    def test_excess_adds_over_orthogonal_direct_sums(self, rng):
        a = random_fusion_frame(rng, n=3, field=COMPLEX)
        b = random_fusion_frame(rng, n=4, field=COMPLEX)
        total = union(embed_blockwise(a, 7, 0), embed_blockwise(b, 7, 3))
        assert total.is_frame
        assert excess(total) == excess(a) + excess(b)


class TestUnion:
    def test_union_with_orthonormal_fusion_basis_shifts_redundancy_by_one(self, rng):
        for parts in (1, 2, 4):
            frame = random_fusion_frame(rng, n=4, field=COMPLEX)
            basis = random_orthogonal_decomposition(rng, 4, parts=parts)
            combined = union(frame, basis)
            low, high = redundancy_range(frame)
            lo2, hi2 = redundancy_range(combined)
            assert lo2 == pytest.approx(low + 1.0, abs=1e-9)
            assert hi2 == pytest.approx(high + 1.0, abs=1e-9)
            assert excess(combined) == excess(frame) + 4

    def test_union_redundancy_extremes_are_sub_and_superadditive(self, rng):
        for _ in range(10):
            a = random_fusion_frame(rng, n=4, field=REAL)
            b = random_fusion_frame(rng, n=4, field=REAL)
            la, ha = redundancy_range(a)
            lb, hb = redundancy_range(b)
            lu, hu = redundancy_range(union(a, b))
            assert lu >= la + lb - 1e-9
            assert hu <= ha + hb + 1e-9

    def test_union_requires_matching_spaces(self, rng):
        a = random_fusion_frame(rng, n=3, field=REAL)
        b = random_fusion_frame(rng, n=4, field=REAL)
        with pytest.raises(DimensionMismatch):
            union(a, b)


class TestErasure:
    def test_erase_returns_guaranteed_bound(self):
        frame = example_frame("7.3")
        remaining, guaranteed = erase(frame, [0, 2])
        assert remaining.member_count == 2
        assert guaranteed == pytest.approx(2.0 - 4.0 / 3.0, abs=1e-12)
        low, _ = redundancy_range(remaining)
        bounds = frame_bounds(remaining)
        assert bounds.lower == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert bounds.lower >= guaranteed - 1e-9

    def test_erase_can_leave_bessel_only_family(self):
        frame = example_frame("7.3")
        remaining, guaranteed = erase(frame, [0, 1])
        assert guaranteed is None
        assert not remaining.is_frame

    def test_erase_floor_slack_scales_with_the_operator_norm(self):
        """B = 1e8 puts eigvalsh roundoff near 1e-8, above eig_rel * A = 1e-9."""
        for seed in range(200):
            U = random_unitary(np.random.default_rng(seed), 6, REAL)
            columns = [U[:, :1], U[:, :1]] + [U[:, j : j + 1] for j in range(1, 6)]
            weights = [1.0, 1e-3] + [1e4] * 5
            frame = FusionFrame(columns, weights)
            remaining, guaranteed = erase(frame, [1])
            assert remaining.is_frame and guaranteed == pytest.approx(1.0, abs=1e-6)

    def test_erase_floor_needs_the_weight_rule(self):
        # S = diag(1, 1.2675e-10) is a frame; erasing one weak line leaves
        # lambda_min / lambda_max = 8.45e-11 < rank_rel, so A - a is no floor.
        e = np.eye(2)
        frame = build_fusion_frame([(e[:, [0]], 1.0)] + [(e[:, [1]], 6.5e-6)] * 3, 2)
        remaining, guaranteed = erase(frame, [1])
        assert guaranteed is None
        assert not remaining.is_frame
        assert erasure_certificate(frame).weight_rule == 0

    def test_erase_rejects_bad_indices(self):
        frame = example_frame("7.2", 3)
        with pytest.raises(DimensionMismatch):
            erase(frame, [5])
        with pytest.raises(EmptyRemainder):
            erase(frame, [0, 1, 2])

    def test_certificate_for_weighted_coordinate_family(self):
        frame = example_frame("7.3")
        cert = erasure_certificate(frame, budget=2)
        assert cert.budget == 2
        assert cert.certified == 2
        assert cert.universal == 1
        assert cert.weight_rule == 2
        assert cert.rule == "weight-sum-bound"
        assert cert.mode == "exhaustive"

    def test_only_two_pairs_survive(self):
        frame = example_frame("7.3")
        surviving = []
        for i in range(4):
            for j in range(i + 1, 4):
                remaining, _ = erase(frame, [i, j])
                if remaining.is_frame:
                    surviving.append((i, j))
        assert surviving == [(0, 2), (1, 3)]

    def test_certificate_for_doubled_lines(self):
        frame = example_frame("7.1-V", 4)
        cert = erasure_certificate(frame, budget=1)
        assert cert.certified == 1
        assert cert.universal == 1
        both_copies_gone, _ = erase(frame, [0, 1])
        assert not both_copies_gone.is_frame

    def test_doubled_lines_spectral_rule_beats_weight_rule(self):
        frame = example_frame("7.1-V", 4)
        cert = erasure_certificate(frame, budget=2)
        assert cert.certified == 2
        assert cert.universal == 1
        assert cert.weight_rule == 1
        assert cert.rule == "spectral"

    def test_basis_certifies_zero(self):
        frame = example_frame("7.2", 4)
        cert = erasure_certificate(frame, budget=2)
        assert cert.certified == 0
        assert cert.universal == 0
        assert cert.rule == "none"

    def test_greedy_mode_certifies_the_exhaustive_count(self):
        # The witness reaches the dimension bound, so greedy certified is exact.
        frame = example_frame("7.3")
        greedy = erasure_certificate(frame, budget=2, mode="greedy")
        exhaustive = erasure_certificate(frame, budget=2, mode="exhaustive")
        assert greedy.mode == "greedy"
        assert greedy.certified == exhaustive.certified == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown erasure search mode"):
            erasure_certificate(example_frame("7.3"), budget=1, mode="random")

    def test_indices_and_budget_must_be_integers(self):
        frame = example_frame("7.3")
        for indices in ([1.9], ["2"]):
            with pytest.raises(DimensionMismatch, match="integers"):
                erase(frame, indices)
        for budget in ("2", 2.5):
            with pytest.raises(ValueError, match="must be an integer"):
                erasure_certificate(frame, budget=budget)
        remaining, guaranteed = erase(frame, [np.int64(0), np.intp(2)])
        assert remaining.member_count == 2 and guaranteed == erase(frame, [0, 2])[1]
        assert erasure_certificate(frame, budget=np.int64(2)) == erasure_certificate(frame, budget=2)

    def test_exhaustive_mode_rejects_too_many_members(self):
        frame = example_frame("7.2", 23)
        assert frame.member_count == 23
        with pytest.raises(ValueError, match="at most 22 members"):
            erasure_certificate(frame, budget=1, mode="exhaustive")

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("budget, expected", [(None, 3), (-2, 0), (0, 0), (2, 2), (3, 3), (9, 3)])
    def test_budget_is_clamped_to_the_members(self, mode, budget, expected):
        cert = erasure_certificate(example_frame("7.3"), budget, mode)
        assert cert.budget == expected
        assert cert.mode == mode
        if expected == 0:
            assert (cert.certified, cert.universal, cert.weight_rule, cert.rule) == (0, 0, 0, "none")

    def test_certificate_requires_frame(self):
        bessel = build_fusion_frame([(np.array([[1.0], [0.0]]), 1.0)], 2)
        with pytest.raises(NotAFusionFrame):
            erasure_certificate(bessel, budget=1)

    def test_random_frames_certified_levels_are_witnessed(self, rng):
        for _ in range(5):
            frame = random_fusion_frame(rng, n=3, members=5)
            cert = erasure_certificate(frame, budget=2)
            assert 0 <= cert.universal <= cert.certified <= cert.budget
            assert cert.weight_rule <= cert.certified


class TestOperatorImages:
    def test_identity_changes_nothing(self, rng):
        frame = random_fusion_frame(rng, n=4)
        report = operator_image_report(frame, np.eye(4))
        assert report.condition == pytest.approx(1.0, abs=1e-12)
        assert report.bounds_hold and report.redundancy_holds
        assert redundancy_equivalent(frame, report.image)

    def test_unitary_preserves_spectrum(self, rng):
        frame = random_fusion_frame(rng, n=4, field=COMPLEX)
        u = random_unitary(rng, 4, COMPLEX)
        report = operator_image_report(frame, u)
        assert report.condition == pytest.approx(1.0, abs=1e-9)
        original = frame_bounds(frame)
        assert report.computed_bounds.lower == pytest.approx(original.lower, abs=1e-9)
        assert report.computed_bounds.upper == pytest.approx(original.upper, abs=1e-9)

    def test_conditioning_brackets_hold(self, rng):
        for _ in range(10):
            frame = random_fusion_frame(rng, n=4)
            op = random_invertible(rng, 4, frame.field, condition=5.0)
            report = operator_image_report(frame, op)
            assert report.bounds_hold
            assert report.redundancy_holds

    @pytest.mark.parametrize("seed", range(300))
    def test_derived_brackets_hold_on_seeded_sweep(self, seed):
        """The ``k^2`` brackets of ``OperatorImageReport``, and of its rank-one case ``U = S^-1``, hold."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        frame = random_fusion_frame(rng, n=n)
        report = operator_image_report(frame, random_invertible(rng, n, frame.field, condition=10 ** rng.uniform(0, 3)))
        assert report.bounds_hold and report.redundancy_holds
        assert dual_redundancy_sandwich(random_vector_frame(rng, n=n)).holds

    @pytest.mark.parametrize("seed", range(20))
    def test_canonical_dual_lines_are_the_image_under_the_inverse_operator(self, seed):
        """``dual_redundancy_sandwich`` is ``operator_image_report`` on the frame's lines with ``U = S^-1``."""
        vectors = random_vector_frame(np.random.default_rng(seed))
        lines = build_fusion_frame([(column[:, None], 1.0) for column in vectors.synthesis.T], vectors.ambient_dim)
        report = operator_image_report(lines, np.linalg.inv(vectors.operator))
        check = dual_redundancy_sandwich(vectors)
        assert report.condition == pytest.approx(check.upper**0.5, rel=1e-9)
        assert report.image_redundancy == pytest.approx(redundancy_range(canonical_dual(vectors)), rel=1e-9)

    def test_one_svd_of_the_operator(self, monkeypatch):
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **kw: shapes.append(np.shape(M)) or svd(M, *a, **kw))
        report = operator_image_report(example_frame("7.2", 3), 2.0 * np.eye(3))
        assert shapes.count((3, 3)) == 1
        assert report.condition == 1.0 and report.bounds_hold

    def test_singular_operator_rejected(self, rng):
        frame = random_fusion_frame(rng, n=3)
        with pytest.raises(SingularOperator):
            apply_operator(frame, np.diag([1.0, 1.0, 0.0]))

    def test_complex_operator_on_real_frame_rejected(self, rng):
        frame = random_fusion_frame(rng, n=3, field=REAL)
        with pytest.raises(DimensionMismatch):
            apply_operator(frame, 1j * np.eye(3))


class TestRedundancyEquivalence:
    def test_permutation_invariance(self, rng):
        frame = random_fusion_frame(rng, n=4, members=5)
        order = rng.permutation(5)
        bases = reference_member_bases(frame)
        permuted = FusionFrame([bases[i] for i in order], frame.weights[order])
        assert redundancy_equivalent(frame, permuted)

    def test_distinct_families_detected(self):
        assert not redundancy_equivalent(example_frame("7.1", 4), example_frame("7.2", 4))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            redundancy_equivalent(
                random_fusion_frame(rng, n=3, field=REAL),
                random_fusion_frame(rng, n=4, field=REAL),
            )

    def test_sampled_check_allows_the_operator_gap(self, monkeypatch):
        # S1 = I + uu* and I + vv* agree entrywise within eig_rel = 0.05
        # but differ by ||uu* - vv*||_2 = 1 at u; the test-side sampled
        # check must allow that gap rather than fail.
        n = 64
        u = np.ones(n) / np.sqrt(n)
        v = np.resize([1.0, -1.0], n) / np.sqrt(n)
        monkeypatch.setattr(FusionFrame, "tol", Tolerance(eig_rel=0.05))
        a = build_fusion_frame([(np.eye(n), 1.0), (u[:, None], 1.0)], n)
        b = build_fusion_frame([(np.eye(n), 1.0), (v[:, None], 1.0)], n)
        assert redundancy_equivalent(a, b)
        gap, bound = reference_sampled_equivalence_gap(a, b, sample_unit_vectors(np.random.default_rng(0), n, 256, REAL))
        assert gap <= bound
        gap, bound = reference_sampled_equivalence_gap(a, b, u[None, :])
        assert gap == pytest.approx(1.0, abs=1e-12) and gap <= bound


class TestProjectionDecomposition:
    def test_identity_splits_into_coordinate_projections(self):
        p1 = np.diag([1.0, 1.0, 0.0, 0.0])
        p2 = np.diag([0.0, 0.0, 1.0, 1.0])
        check = verify_projection_decomposition(np.eye(4), [p1, p2])
        assert check.is_decomposition
        assert check.common_rank == 2
        assert check.sum_residual < 1e-12
        assert check.trace_residual < 1e-12

    def test_random_projection_sums(self, rng):
        parts = [projection(random_subspace(rng, 5, 2)) for _ in range(3)]
        t = sum(parts)
        check = verify_projection_decomposition(t, parts)
        assert check.is_decomposition
        assert check.common_rank == 2

    def test_rejects_non_projection(self):
        check = verify_projection_decomposition(np.eye(2), [np.array([[1.0, 1.0], [0.0, 1.0]])])
        assert not check.projections_valid
        assert not check.is_decomposition

    def test_rejects_wrong_sum(self):
        p = np.diag([1.0, 0.0])
        check = verify_projection_decomposition(np.eye(2), [p])
        assert check.projections_valid
        assert not check.is_decomposition

    def test_rejects_mixed_ranks(self):
        p1 = np.diag([1.0, 0.0, 0.0])
        p2 = np.diag([0.0, 1.0, 1.0])
        check = verify_projection_decomposition(np.eye(3), [p1, p2])
        assert check.common_rank is None
        assert not check.is_decomposition


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=5),
    members=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sampled_redundancy_always_inside_range(n, members, seed):
    gen = np.random.default_rng(seed)
    frame = random_fusion_frame(gen, n=n, members=members)
    low, high = redundancy_range(frame)
    values = redundancy_samples(frame, gen, 24)
    assert np.all(values >= low - 1e-9)
    assert np.all(values <= high + 1e-9)


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    alpha=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_weight_scaling_never_changes_redundancy_or_excess(n, seed, alpha):
    gen = np.random.default_rng(seed)
    frame = random_fusion_frame(gen, n=n)
    scaled = FusionFrame(reference_member_bases(frame), alpha * frame.weights)
    assert redundancy_equivalent(frame, scaled)
    assert excess(scaled) == excess(frame)


CHECKED_FACTS_SCRIPT = """
import sys
import ffk.fusion as fusion
from ffk.errors import InvariantViolation
from ffk.gallery import example_frame

def outcome(call):
    try:
        call()
    except InvariantViolation:
        return "raised"
    return "passed"

# A spectrum that breaks the erasure floor A - a.
frame = example_frame("7.1-V", 4)
fusion.hermitian_eigenrange = lambda M, tol=None: (1e-3, 2.0)
print(sys.flags.optimize, outcome(lambda: fusion.erase(frame, [0])))
"""


def test_checked_facts_raise_under_optimize():
    src = str(Path(ffk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", CHECKED_FACTS_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "raised"]


def test_library_paths_construct_no_subspace(monkeypatch):
    # The stacked form is the only form: documents, erasure, unions, images,
    # duals and systems never build member objects, so nothing reads
    # ``members``, and a system holds its local families as stacked arrays,
    # so building one from a document takes the frame's one eigvalsh.
    rng = np.random.default_rng(26)
    frame = random_fusion_frame(rng, n=4, members=6)
    other = random_fusion_frame(rng, n=4, members=3, field=frame.field)
    text = FrameDocument.from_fusion_frame(frame, random_system(rng, frame, "parseval")).to_json_text()
    unit = random_orthogonal_decomposition(rng, 4, parts=3, field=frame.field)
    unit_text = FrameDocument.from_fusion_frame(unit, random_system(rng, unit, "parseval")).to_json_text()
    U = random_invertible(rng, 4, frame.field)
    x = sample_unit_vectors(rng, 4, 1, frame.field)[0]
    monkeypatch.setattr(Subspace, "__init__", lambda self, basis: pytest.fail("a Subspace was constructed"))
    monkeypatch.setattr(VectorFrame, "__init__", lambda self, vectors: pytest.fail("a VectorFrame was constructed"))
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(args) or eigvalsh(*args, **kwargs))
    built, system = FrameDocument.from_json_text(text).build()
    assert len(calls) == 1  # the frame's S: no local family solves an eigenproblem
    _, unit_system = FrameDocument.from_json_text(unit_text).build()
    assert len(calls) == 2
    assert system is not None and built.is_frame
    assert check_local_additivity(system, x).fusion_value == redundancy_at(built, x)
    assert parseval_equivalences(system).consistent
    with pytest.raises(NotUniformWeights):
        redundancy_one_equivalence(system)
    assert redundancy_one_equivalence(unit_system).consistent
    for mode in ("exhaustive", "greedy"):
        erasure_certificate(built, mode=mode)
    assert erase(built, [0, 2])[0].member_count == 4
    assert union(built, other).member_count == 9
    assert built.canonical_dual.member_count == 6
    assert apply_operator(built, U).member_count == 6
    FrameDocument.from_fusion_frame(built, system).to_json_text()
