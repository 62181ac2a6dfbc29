import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffk.documents import FrameDocument
from ffk.duality import verify_alternate_dual
from ffk.errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotADual,
    NotAFrame,
    NotAFusionFrame,
    NotUnitVector,
    WrongEtaCount,
    ZeroVector,
)
from ffk.fusion import FusionFrame, classify, erase, frame_bounds, redundancy_at, redundancy_range, union
from ffk.generators import random_tight_vector_frame, random_vector_frame
from ffk.numerics import COMPLEX, REAL, sample_unit_vectors
from ffk.vector_frames import (
    VectorFrame,
    alternate_dual,
    canonical_dual,
    check_norm_inequality,
    dual_redundancy_sandwich,
    dual_residual,
)
from test_differential import projection, reference_member_bases, reference_vector_redundancy

MERCEDES = [
    np.array([0.0, 1.0]),
    np.array([-math.sqrt(3) / 2, -0.5]),
    np.array([math.sqrt(3) / 2, -0.5]),
]


class TestConstruction:
    def test_columns_and_counts(self):
        frame = VectorFrame(MERCEDES)
        assert frame.ambient_dim == 2
        assert frame.member_count == 3
        assert frame.field == REAL
        assert np.allclose(frame.synthesis[:, 0], MERCEDES[0])

    def test_matrix_is_read_only(self):
        frame = VectorFrame(MERCEDES)
        with pytest.raises(ValueError):
            frame.synthesis[0, 0] = 7.0

    def test_from_matrix_transposes(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        frame = VectorFrame.from_matrix(m)
        assert frame.member_count == 3
        assert np.allclose(frame.synthesis, m)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            VectorFrame([np.array([1.0, 0.0]), np.array([0.0, 0.0])])

    def test_overflowing_norm_is_not_a_zero_vector(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEntries, match="norms"):
            VectorFrame([[1e300, 0.0], [0.0, 1.0]])

    def test_overflowing_operator_names_the_frame_operator(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEntries, match="^frame operator"):
            VectorFrame([[1e154, 0.0], [1e154, 0.0]])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            VectorFrame([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    def test_is_the_fusion_frame_of_its_lines(self, rng):
        frame = random_vector_frame(rng, n=4, count=7)
        assert isinstance(frame, FusionFrame) and frame.dims.tolist() == [1] * frame.member_count
        lines = reference_member_bases(frame)
        assert frame.tol.near(sum(projection(line) for line in lines), frame.normalized_operator)
        remaining, _ = erase(frame, [0])
        assert remaining.member_count == frame.member_count - 1
        assert union(frame, frame).member_count == 2 * frame.member_count
        document = FrameDocument.from_fusion_frame(frame)
        assert (document.field, document.dimension, len(document.vectors)) == (frame.field, 4, frame.member_count)

    def test_non_spanning_family_is_tagged_and_refused_by_frame_operations(self):
        frame = VectorFrame([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert not frame.is_frame
        assert redundancy_at(frame, np.array([0.6, 0.8])) == pytest.approx(0.72, abs=1e-12)
        assert redundancy_range(frame) == pytest.approx((0.0, 2.0), abs=1e-12)
        report = classify(frame)
        assert report.bessel_only and report.bounds.lower is None and not report.tight
        with pytest.raises(NotAFusionFrame):
            frame_bounds(frame)
        operations = [
            canonical_dual,
            lambda f: alternate_dual(f, [np.zeros(2)] * 2),
            lambda f: check_norm_inequality(f, f, np.array([1.0, 0.0])),
            dual_redundancy_sandwich,
        ]
        for operation in operations:
            with pytest.raises(NotAFrame):
                operation(frame)


class TestOperatorsAndRedundancy:
    def test_mercedes_frame_operator_is_three_halves_identity(self):
        frame = VectorFrame(MERCEDES)
        assert np.allclose(frame.operator, 1.5 * np.eye(2), atol=1e-12)

    def test_mercedes_redundancy_constant(self):
        frame = VectorFrame(MERCEDES)
        low, high = redundancy_range(frame)
        assert abs(low - 1.5) < 1e-12
        assert abs(high - 1.5) < 1e-12
        assert abs(redundancy_at(frame, np.array([1.0, 0.0])) - 1.5) < 1e-12

    def test_repeated_basis_vector(self):
        frame = VectorFrame(
            [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        )
        assert abs(redundancy_at(frame, np.array([1.0, 0.0])) - 2.0) < 1e-12
        assert abs(redundancy_at(frame, np.array([0.0, 1.0])) - 1.0) < 1e-12
        diag = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(redundancy_at(frame, diag) - 1.5) < 1e-12
        assert redundancy_range(frame) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_normalization_ignores_vector_scaling(self):
        frame = VectorFrame([np.array([3.0, 0.0]), np.array([0.0, 0.25])])
        assert np.allclose(frame.normalized_operator, np.eye(2), atol=1e-12)

    def test_redundancy_at_is_the_per_vector_sum_up_to_roundoff(self, rng):
        for _ in range(20):
            frame = random_vector_frame(rng)
            for x in sample_unit_vectors(rng, frame.ambient_dim, 10, frame.field):
                assert frame.tol.near(reference_vector_redundancy(frame.synthesis, x), redundancy_at(frame, x))

    def test_redundancy_needs_unit_vector(self):
        frame = VectorFrame(MERCEDES)
        with pytest.raises(NotUnitVector):
            redundancy_at(frame, np.array([1.0, 1.0]))

    def test_mean_redundancy_is_count_over_dimension(self, rng):
        for _ in range(20):
            frame = random_vector_frame(rng)
            low, high = redundancy_range(frame)
            mean = frame.member_count / frame.ambient_dim
            assert low <= mean + 1e-9
            assert high >= mean - 1e-9

    def test_analysis_reuses_the_frame_operator_spectrum(self, rng, monkeypatch):
        frame = random_vector_frame(rng, n=5, count=8)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a) or eigvalsh(*a))
        classify(frame)
        assert len(calls) == 1  # the normalized operator's; S's was taken at construction

    def test_classify_mercedes(self):
        report = classify(VectorFrame(MERCEDES))
        assert report.tight
        assert report.uniform_weights
        assert report.bounds.lower == pytest.approx(1.5, abs=1e-12)
        assert report.bounds.upper == pytest.approx(1.5, abs=1e-12)


class TestCanonicalDual:
    def test_mercedes_dual_is_two_thirds_of_frame(self):
        frame = VectorFrame(MERCEDES)
        dual = canonical_dual(frame)
        assert np.allclose(dual.synthesis, frame.synthesis * (2.0 / 3.0), atol=1e-12)

    def test_reconstruction_identity(self, rng):
        for _ in range(25):
            frame = random_vector_frame(rng)
            dual = canonical_dual(frame)
            assert dual_residual(frame, dual) <= 1e-10
            assert frame.tol.reconstructs(dual_residual(frame, dual))

    def test_duality_is_symmetric(self, rng):
        frame = random_vector_frame(rng, n=4, count=7)
        dual = canonical_dual(frame)
        assert frame.tol.reconstructs(dual_residual(dual, frame))

    def test_tight_dual_is_scaled_frame(self, rng):
        for _ in range(10):
            frame = random_tight_vector_frame(rng, bound=2.5)
            dual = canonical_dual(frame)
            assert np.allclose(dual.synthesis, frame.synthesis / 2.5, atol=1e-10)

    def test_no_scalar_multiple_is_dual_when_not_tight(self, rng):
        for _ in range(10):
            frame = random_vector_frame(rng, n=4, count=6)
            report = classify(frame)
            a, b = report.bounds.lower, report.bounds.upper
            if b / a < 1.05:
                continue
            for c in (1.0 / a, 1.0 / b, 2.0 / (a + b)):
                candidate = VectorFrame.from_matrix(c * frame.synthesis)
                assert dual_residual(frame, candidate) > 1e-6

    def test_both_canonical_duals_read_the_same_columns(self, rng, monkeypatch):
        # frame.canonical_dual is the fusion dual {(S^-1 span phi_i, ||phi_i||)};
        # canonical_dual(frame) is the vector family {S^-1 phi_i}.  One QR factor
        # of Phi* gives both, so their lines coincide.
        frame, calls, qr = random_vector_frame(rng, n=4, count=7, field=COMPLEX), [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args) or qr(*args, **kwargs))
        lines, vectors = frame.canonical_dual, canonical_dual(frame)
        assert type(lines) is FusionFrame and type(vectors) is VectorFrame
        assert np.array_equal(lines.weights, frame.weights)
        assert np.array_equal(vectors.synthesis, frame.dual_synthesis)
        for member, line in zip(reference_member_bases(lines), reference_member_bases(vectors)):
            gap = projection(member) - projection(line)
            assert np.linalg.norm(gap, 2) <= 1e-12
        assert verify_alternate_dual(frame, lines).is_dual
        assert frame.tol.reconstructs(dual_residual(frame, alternate_dual(frame, list(frame.synthesis.T))))
        assert len(calls) == 1


class TestAlternateDual:
    def test_zero_perturbation_gives_canonical(self, rng):
        frame = random_vector_frame(rng, n=3, count=5, field=COMPLEX)
        zeros = [np.zeros(3, dtype=complex)] * 5
        dual = alternate_dual(frame, zeros)
        assert np.allclose(dual.synthesis, canonical_dual(frame).synthesis, atol=1e-12)

    def test_random_perturbations_stay_dual(self, rng):
        for _ in range(25):
            frame = random_vector_frame(rng)
            eta = [
                sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
                for _ in range(frame.member_count)
            ]
            dual = alternate_dual(frame, eta)
            assert dual_residual(frame, dual) <= 1e-8

    def test_wrong_count_rejected(self, rng):
        frame = random_vector_frame(rng, n=3, count=5)
        with pytest.raises(WrongEtaCount):
            alternate_dual(frame, [np.zeros(3)] * 4)

    def test_complex_perturbation_of_real_frame_rejected(self, rng):
        frame = random_vector_frame(rng, n=3, count=5, field=REAL)
        with pytest.raises(DimensionMismatch):
            alternate_dual(frame, [np.zeros(3) * 1j] * 5)


class TestNormInequality:
    def test_canonical_coefficients_are_minimal(self, rng):
        for _ in range(30):
            frame = random_vector_frame(rng)
            eta = [
                0.5 * sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
                for _ in range(frame.member_count)
            ]
            dual = alternate_dual(frame, eta)
            x = sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
            lhs, rhs, holds = check_norm_inequality(frame, dual, x)
            assert holds
            assert lhs <= rhs + 1e-9

    def test_equality_for_the_canonical_dual(self, rng):
        frame = random_vector_frame(rng, n=4, count=7)
        x = sample_unit_vectors(rng, 4, 1, frame.field)[0]
        lhs, rhs, holds = check_norm_inequality(frame, canonical_dual(frame), x)
        assert holds
        assert abs(lhs - rhs) < 1e-10

    def test_rejects_non_dual_candidate(self, rng):
        frame = random_vector_frame(rng, n=3, count=5, field=REAL)
        other = random_vector_frame(rng, n=3, count=5, field=REAL)
        x = sample_unit_vectors(rng, 3, 1, REAL)[0]
        if dual_residual(frame, other) > frame.tol.recon_abs:
            with pytest.raises(NotADual):
                check_norm_inequality(frame, other, x)

    def test_decided_relative_to_the_coefficient_scale(self):
        """Coefficient norms scale like 1/scale; an absolute slack misjudged genuine duals at 1e-8."""
        scale = 1e-8
        for seed in range(200):
            rng = np.random.default_rng(seed)
            frame = VectorFrame.from_matrix(random_vector_frame(rng, 4, 6, COMPLEX).synthesis * scale)
            eta = [(rng.normal(size=4) + 1j * rng.normal(size=4)) * (1e-9 / scale) for _ in range(6)]
            dual = alternate_dual(frame, eta)
            x = sample_unit_vectors(rng, 4, 1, COMPLEX)[0]
            assert check_norm_inequality(frame, dual, x)[2], seed

    def test_one_factorization_for_many_points(self, rng, monkeypatch):
        frame = random_vector_frame(rng, n=4, count=7)
        dual = VectorFrame.from_matrix(np.linalg.solve(frame.synthesis @ frame.synthesis.conj().T, frame.synthesis))
        calls, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args) or qr(*args, **kwargs))
        for x in sample_unit_vectors(rng, 4, 10, frame.field):
            assert check_norm_inequality(frame, dual, x)[2]
        assert len(calls) == 1

    def test_equal_norm_duals_bound_redundancy_ratio(self, rng):
        """For equal-norm canonical and alternate duals the redundancy of the
        canonical dual is at most (d/c)^2 times the alternate's, where c and d
        are the respective common norms."""
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        frame = VectorFrame([e1, e1, e2, e2])
        t = 0.3
        a, b = 0.5 + t * 1j, 0.5 - t * 1j
        dual = VectorFrame([a * e1, b * e1, a * e2, b * e2])
        assert frame.tol.reconstructs(dual_residual(frame, dual))
        canon = canonical_dual(frame)
        c = canon.weights
        d = dual.weights
        assert np.ptp(c) < 1e-12 and np.ptp(d) < 1e-12
        ratio = (d[0] / c[0]) ** 2
        assert ratio == pytest.approx(1.0 + 4 * t * t, abs=1e-12)
        for x in sample_unit_vectors(rng, 2, 20, COMPLEX):
            r_canon = redundancy_at(canon, x)
            r_dual = redundancy_at(dual, x)
            assert r_canon <= ratio * r_dual + 1e-9


class TestSandwich:
    def test_holds_on_random_frames(self, rng):
        for _ in range(30):
            check = dual_redundancy_sandwich(random_vector_frame(rng))
            assert check.holds
            assert check.lower <= 1.0 <= check.upper

    def test_tight_frame_collapses_bracket(self, rng):
        check = dual_redundancy_sandwich(random_tight_vector_frame(rng, n=4, count=9))
        assert check.lower == pytest.approx(1.0, abs=1e-8)
        assert check.upper == pytest.approx(1.0, abs=1e-8)
        assert check.ratio_minus == pytest.approx(1.0, abs=1e-8)
        assert check.ratio_plus == pytest.approx(1.0, abs=1e-8)

    def test_tight_dual_redundancy_matches_pointwise(self, rng):
        frame = random_tight_vector_frame(rng, n=3, count=8, bound=2.0)
        dual = canonical_dual(frame)
        for x in sample_unit_vectors(rng, 3, 25, frame.field):
            assert redundancy_at(frame, x) == pytest.approx(
                redundancy_at(dual, x), abs=1e-10
            )


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_redundancy_range_brackets_every_sample(n, extra, seed):
    gen = np.random.default_rng(seed)
    frame = random_vector_frame(gen, n=n, count=n + extra)
    low, high = redundancy_range(frame)
    for x in sample_unit_vectors(gen, n, 16, frame.field):
        value = redundancy_at(frame, x)
        assert low - 1e-9 <= value <= high + 1e-9


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(n=5, seed=6770)  # B / A about 4.8e7
@example(n=4, seed=539)
def test_alternate_duals_reconstruct(n, seed):
    gen = np.random.default_rng(seed)
    frame = random_vector_frame(gen, n=n)
    eta = [gen.normal(size=n) for _ in range(frame.member_count)]
    if frame.field == COMPLEX:
        eta = [e + 1j * gen.normal(size=n) for e in eta]
    dual = alternate_dual(frame, eta)
    assert dual_residual(frame, dual) <= 1e-7
