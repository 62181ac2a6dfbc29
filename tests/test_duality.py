import math

import numpy as np
import pytest

from ffk.duality import (
    alternate_dual_bounds,
    canonical_dual_fusion,
    canonical_ratio_bounds,
    verify_alternate_dual,
)
from ffk.errors import (
    NotADual,
    NotAFusionFrame,
    NotPositiveDefinite,
    NotUniformWeights,
)
from ffk.fusion import (
    FusionFrame,
    build_fusion_frame,
    erasure_certificate,
    frame_bounds,
)
from ffk.gallery import example_frame
from ffk.generators import (
    random_fusion_frame,
    random_orthogonal_decomposition,
    random_tight_uniform_fusion_frame,
)
from ffk.numerics import REAL
from test_differential import projection_gap, reference_member_bases, reference_pencil, unit_weight_frame


def with_unit_weights(frame: FusionFrame) -> FusionFrame:
    return FusionFrame(reference_member_bases(frame), np.ones(frame.member_count))


def forty_five_degree_lines() -> FusionFrame:
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
    return build_fusion_frame(
        [(np.array([[1.0], [0.0]]), 1.0), (diag, 1.0)], 2
    )


class TestCanonicalDual:
    def test_tight_frame_is_self_dual(self):
        frame = example_frame("7.3")
        dual = canonical_dual_fusion(frame)
        for original, image in zip(reference_member_bases(frame), reference_member_bases(dual)):
            assert projection_gap(original, image) <= 1e-8
        assert dual.weights.tolist() == frame.weights.tolist()

    def test_dual_preserves_dims_and_weights(self, rng):
        frame = random_fusion_frame(rng, n=4)
        dual = canonical_dual_fusion(frame)
        assert dual.is_frame
        assert tuple(dual.dims) == tuple(frame.dims)
        assert np.allclose(dual.weights, frame.weights)

    def test_tight_double_dual_returns_to_the_frame(self, rng):
        frame = random_tight_uniform_fusion_frame(rng, n=4, layers=2)
        double_dual = canonical_dual_fusion(canonical_dual_fusion(frame))
        for original, image in zip(reference_member_bases(frame), reference_member_bases(double_dual)):
            assert projection_gap(original, image) <= 1e-8

    def test_reconstruction_identity_holds(self, rng):
        for _ in range(15):
            frame = random_fusion_frame(rng)
            certificate = verify_alternate_dual(frame, canonical_dual_fusion(frame))
            assert certificate.is_dual
            assert certificate.residual <= 1e-9

    def test_bessel_only_has_no_dual(self):
        bessel = build_fusion_frame([(np.array([[1.0], [0.0]]), 1.0)], 2)
        with pytest.raises(NotAFusionFrame):
            canonical_dual_fusion(bessel)


class TestVerifyAlternateDual:
    def test_bessel_bound_of_self_dual_tight_family(self):
        frame = example_frame("7.3")
        certificate = verify_alternate_dual(frame, frame)
        assert certificate.is_dual
        assert certificate.residual <= 1e-12
        assert certificate.bessel_bound == pytest.approx(2.0, abs=1e-9)

    def test_unrelated_family_is_rejected_as_dual(self, rng):
        frame = with_unit_weights(random_fusion_frame(rng, n=4, members=5, field=REAL))
        other = with_unit_weights(random_fusion_frame(rng, n=4, members=5, field=REAL))
        certificate = verify_alternate_dual(frame, other)
        assert certificate.residual > 1e-6
        assert not certificate.is_dual

    def test_member_count_mismatch(self, rng):
        frame = random_fusion_frame(rng, n=3, members=4)
        candidate = random_fusion_frame(rng, n=3, members=5, field=frame.field)
        with pytest.raises(NotADual):
            verify_alternate_dual(frame, candidate)

    def test_ambient_mismatch(self, rng):
        frame = random_fusion_frame(rng, n=3, members=4, field=REAL)
        candidate = random_fusion_frame(rng, n=4, members=4, field=REAL)
        with pytest.raises(NotADual):
            verify_alternate_dual(frame, candidate)


class TestCanonicalRatioBounds:
    def test_requires_unit_weights(self, rng):
        with pytest.raises(NotUniformWeights):
            canonical_ratio_bounds(example_frame("7.3"), rng)

    def test_bracket_endpoints(self, rng):
        frame = forty_five_degree_lines()
        bounds = frame_bounds(frame)
        check = canonical_ratio_bounds(frame, rng, samples=500)
        assert check.lower == pytest.approx(bounds.lower**3 / bounds.upper, rel=1e-12)
        assert check.upper == pytest.approx(bounds.upper**3 / bounds.lower, rel=1e-12)
        assert check.samples == 500
        assert check.observed[0] <= check.observed[1]
        assert check.holds

    def test_parseval_family_sits_at_ratio_one(self, rng):
        frame = random_orthogonal_decomposition(rng, 5, parts=3)
        check = canonical_ratio_bounds(frame, rng, samples=200)
        assert check.holds
        assert check.observed[0] == pytest.approx(1.0, abs=1e-9)
        assert check.observed[1] == pytest.approx(1.0, abs=1e-9)

    def test_tight_non_parseval_bracket_degenerates(self, rng):
        frame = example_frame("7.1-V", 4)
        check = canonical_ratio_bounds(frame, rng, samples=200)
        assert check.lower == pytest.approx(4.0, abs=1e-9)
        assert check.upper == pytest.approx(4.0, abs=1e-9)
        assert check.observed[0] == pytest.approx(1.0, abs=1e-9)
        assert not check.holds

    def test_exact_extremes_leave_the_claimed_bracket(self):
        # The sample misses what the exact range of R_frame / R_dual shows:
        # its minimum lies below A^3/B.  The range stays in [(A/B)^2, (B/A)^2].
        frame = unit_weight_frame(213)
        A, B = frame_bounds(frame).lower, frame_bounds(frame).upper
        check = canonical_ratio_bounds(frame, np.random.default_rng(0), samples=1000)
        assert (check.lower, check.upper, check.holds) == (pytest.approx(A**3 / B), pytest.approx(B**3 / A), True)
        assert check.observed == pytest.approx((0.4717688284234134, 2.0030674926237477), rel=1e-9)
        (dual_low, dual_high), _, _ = reference_pencil(frame, canonical_dual_fusion(frame))
        low, high = 1 / dual_high, 1 / dual_low  # the range of R_frame / R_dual
        assert low == pytest.approx(0.39351485020963534, rel=1e-9) and low < check.lower
        assert frame.tol.within((low, high), (A / B) ** 2, (B / A) ** 2)
        assert frame.tol.within(check.observed, low, high)


class TestAlternateDualBounds:
    def test_floor_invariant_on_generic_unit_weight_frames(self, rng):
        held = 0
        for _ in range(15):
            frame = with_unit_weights(random_fusion_frame(rng, n=4))
            if not frame.is_frame:
                continue
            dual = canonical_dual_fusion(frame)
            check = alternate_dual_bounds(frame, dual)
            assert check.bounds_hold
            bounds = frame_bounds(frame)
            assert check.floor == pytest.approx(
                bounds.lower**2 / bounds.upper, rel=1e-9
            )
            held += 1
        assert held >= 10

    def test_orthonormal_fusion_basis_self_dual_holds_everywhere(self, rng):
        frame = random_orthogonal_decomposition(rng, 4, parts=2)
        check = alternate_dual_bounds(frame, frame)
        assert check.holds
        assert check.bounds_hold and check.ratios_hold
        assert check.floor == pytest.approx(1.0, abs=1e-9)

    def test_tight_self_dual_ratio_bracket_degenerates(self, rng):
        frame = random_tight_uniform_fusion_frame(rng, n=4, layers=2)
        check = alternate_dual_bounds(frame, frame)
        assert check.bounds_hold
        assert not check.ratios_hold
        assert not check.holds
        assert check.lower == pytest.approx(4.0, abs=1e-8)
        assert check.upper == pytest.approx(1.0, abs=1e-8)
        assert check.observed[0] == pytest.approx(1.0, abs=1e-8)

    def test_exact_extremes_leave_the_claimed_lower_end(self):
        # [1/||S^-1||^2, C/A] is a claim: the exact minimum of R_dual / R_frame
        # falls below A^2 on this non-tight frame, while the derived upper end
        # C/A and lower end A^2/B^2 hold.
        frame = with_unit_weights(random_fusion_frame(np.random.default_rng(0), n=4, field=REAL))
        check = alternate_dual_bounds(frame, canonical_dual_fusion(frame))
        A, B = frame_bounds(frame).lower, frame_bounds(frame).upper
        assert check.lower == pytest.approx(A**2) and check.observed[0] < check.lower / 2
        assert (A / B) ** 2 <= check.observed[0] <= check.observed[1] <= check.upper
        assert check.bounds_hold and not check.ratios_hold

    def test_singular_factor_is_a_frame_error(self, monkeypatch):
        frame = unit_weight_frame(0)
        dual = canonical_dual_fusion(frame)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NotPositiveDefinite):
            alternate_dual_bounds(frame, dual)

    def test_non_dual_rejected(self, rng):
        frame = with_unit_weights(random_fusion_frame(rng, n=4, members=5, field=REAL))
        other = with_unit_weights(random_fusion_frame(rng, n=4, members=5, field=REAL))
        if verify_alternate_dual(frame, other).is_dual:
            pytest.skip("random families happened to be dual")
        with pytest.raises(NotADual):
            alternate_dual_bounds(frame, other)


def test_one_factorization_for_the_dual_and_its_verification(monkeypatch, rng):
    # The exhaustive erasure search's Gram matrix, the canonical dual and the
    # verification all read the frame's one QR factor of T*; only the Gram
    # blocks' batched (3-D) Cholesky remains.
    frame, calls = random_fusion_frame(rng, n=6, members=5), []

    def spy(name):
        spied = getattr(np.linalg, name)
        return lambda a, *args, **kwargs: calls.append((name, np.ndim(a))) or spied(a, *args, **kwargs)

    for name in ("qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    erasure_certificate(frame, mode="exhaustive")
    assert calls[0] == ("qr", 2) and ("cholesky", 3) in calls
    dual = canonical_dual_fusion(frame)
    assert verify_alternate_dual(frame, dual).is_dual
    assert [call for call in calls if call[1] == 2] == [("qr", 2)]
