"""End-to-end acceptance battery.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line straight to the terminal (bypassing capture)
so a full run yields a ten-line scoreboard.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ffk.fusion import (
    FusionFrame,
    apply_operator,
    build_fusion_frame,
    classify,
    erase,
    erasure_certificate,
    excess,
    frame_bounds,
    operator_image_report,
    redundancy_at,
    redundancy_equivalent,
    redundancy_range,
    redundancy_samples,
    union,
)
from ffk.gallery import example_frame
from ffk.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthogonal_decomposition,
    random_system,
    random_tight_vector_frame,
    random_unitary,
    random_vector_frame,
)
from ffk.numerics import REAL, sample_unit_vectors
from ffk.systems import build_system, check_local_additivity, parseval_equivalences
from ffk.vector_frames import (
    VectorFrame,
    alternate_dual,
    analyze_vector_frame,
    canonical_dual,
    check_norm_inequality,
    dual_redundancy_sandwich,
    dual_residual,
)
from ffk.documents import sampled_consistency_checks
from test_differential import reference_member_bases


@pytest.fixture
def scoreboard(capsys):
    @contextmanager
    def _line(number: int, description: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:02d} FAIL - {description}")
            raise
        else:
            with capsys.disabled():
                print(f"criterion {number:02d} PASS - {description}")

    return _line


def test_01_weighted_coordinate_family_classification(scoreboard):
    with scoreboard(1, "weighted coordinate family: frozen classification in under a second"):
        start = time.perf_counter()
        frame = example_frame("7.3")
        report = classify(frame)
        elapsed = time.perf_counter() - start
        bounds = report.bounds
        assert abs(bounds.lower - 2.0) <= 1e-9
        assert abs(bounds.upper - 2.0) <= 1e-9
        assert abs(report.redundancy[0] - 2.0) <= 1e-9
        assert abs(report.redundancy[1] - 2.0) <= 1e-9
        assert report.tight
        assert not report.parseval
        assert not report.uniform_weights
        assert report.uniform_redundancy
        assert not report.orthonormal_fusion_basis
        assert report.excess == 5
        assert not report.minimal
        assert not report.bessel_only
        assert elapsed < 1.0


def test_02_erasure_certificate_with_spectral_witness(scoreboard):
    with scoreboard(2, "two-erasure certificate with guaranteed surviving lower bound"):
        frame = example_frame("7.3")
        certificate = erasure_certificate(frame, budget=2, mode="exhaustive")
        assert certificate.certified == 2
        assert certificate.universal == 1
        remaining, guaranteed = erase(frame, [0, 2])
        assert guaranteed is not None
        assert abs(guaranteed - 2.0 / 3.0) <= 1e-12
        surviving_bounds = frame_bounds(remaining)
        assert surviving_bounds.lower >= guaranteed - 1e-9
        assert abs(surviving_bounds.lower - 4.0 / 3.0) <= 1e-9
        survivors = [
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if erase(frame, [i, j])[0].is_frame
        ]
        assert survivors == [(0, 2), (1, 3)]


def test_03_repeated_line_families_scale_with_dimension(scoreboard):
    with scoreboard(3, "repeated-line families: redundancy extremes across dimensions"):
        for n in (2, 4, 8):
            skewed = classify(example_frame("7.1", n))
            assert abs(skewed.redundancy[0] - 1.0) <= 1e-9
            assert abs(skewed.redundancy[1] - (n + 1.0)) <= 1e-9
            assert not skewed.uniform_redundancy

            doubled = example_frame("7.1-V", n)
            balanced = classify(doubled)
            assert abs(balanced.redundancy[0] - 2.0) <= 1e-9
            assert abs(balanced.redundancy[1] - 2.0) <= 1e-9
            assert balanced.tight and not balanced.parseval
            assert erasure_certificate(doubled, budget=1).certified == 1


def test_04_orthonormal_fusion_basis_is_rigid(scoreboard):
    with scoreboard(4, "orthonormal fusion bases: unit bounds, zero excess, zero erasures"):
        for n in (3, 5):
            frame = example_frame("7.2", n)
            report = classify(frame)
            assert abs(report.bounds.lower - 1.0) <= 1e-12
            assert abs(report.bounds.upper - 1.0) <= 1e-12
            assert report.orthonormal_fusion_basis
            assert report.excess == 0 and report.minimal
            certificate = erasure_certificate(frame, budget=2)
            assert certificate.certified == 0
            assert certificate.universal == 0
            assert certificate.rule == "none"


def test_05_random_frame_property_battery(scoreboard):
    with scoreboard(5, "random families: sampling identities, union shift, invariances, operator brackets"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            frame = random_fusion_frame(rng, n=int(rng.integers(2, 6)))
            checks = sampled_consistency_checks(frame, seed=int(rng.integers(2**31)))
            assert checks["max_rayleigh_deviation"] <= 1e-10
            assert checks["energy_bounds_ok"]
            low, high = redundancy_range(frame)
            values = redundancy_samples(frame, rng, 32)
            assert values.min() >= low - 1e-9
            assert values.max() <= high + 1e-9

        for _ in range(100):
            n = int(rng.integers(2, 6))
            frame = random_fusion_frame(rng, n=n)
            basis = random_orthogonal_decomposition(
                rng, n, parts=int(rng.integers(1, n + 1)), field=frame.field
            )
            low, high = redundancy_range(frame)
            shifted_low, shifted_high = redundancy_range(union(frame, basis))
            assert abs(shifted_low - (low + 1.0)) <= 1e-9
            assert abs(shifted_high - (high + 1.0)) <= 1e-9

        for _ in range(100):
            n = int(rng.integers(2, 6))
            frame = random_fusion_frame(rng, n=n)
            # Redundancy depends on the subspaces alone; reweighting is invisible.
            bases = reference_member_bases(frame)
            scaled = FusionFrame(bases, [float(rng.uniform(0.2, 5.0)) * w for w in frame.weights])
            assert redundancy_equivalent(frame, scaled)
            order = rng.permutation(frame.member_count)
            permuted = FusionFrame([bases[i] for i in order], frame.weights[order])
            assert redundancy_equivalent(frame, permuted)

        for _ in range(100):
            n = int(rng.integers(2, 6))
            frame = random_fusion_frame(rng, n=n)
            operator = random_invertible(
                rng, n, frame.field, condition=float(rng.uniform(1.0, 8.0))
            )
            outcome = operator_image_report(frame, operator)
            assert outcome.bounds_hold
            assert outcome.redundancy_holds


def test_06_excess_is_a_structural_invariant(scoreboard):
    with scoreboard(6, "excess: invariant under unitaries and weight scaling, additive over sums"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            frame = random_fusion_frame(rng, n=n)
            reference = excess(frame)
            unitary_image = apply_operator(frame, random_unitary(rng, n, frame.field))
            assert excess(unitary_image) == reference
            for alpha in (0.5, 3.0):
                scaled = FusionFrame(reference_member_bases(frame), alpha * frame.weights)
                assert excess(scaled) == reference
        for _ in range(20):
            decomposition = random_orthogonal_decomposition(rng, int(rng.integers(2, 7)))
            assert excess(decomposition) == 0

        def lift(frame: FusionFrame, total: int, offset: int) -> FusionFrame:
            blocks = []
            for basis in reference_member_bases(frame):
                block = np.zeros((total, basis.shape[1]), dtype=basis.dtype)
                block[offset : offset + basis.shape[0]] = basis
                blocks.append(block)
            return FusionFrame(blocks, frame.weights)

        for _ in range(10):
            a = random_fusion_frame(rng, n=3, field="complex")
            b = random_fusion_frame(rng, n=4, field="complex")
            combined = union(lift(a, 7, 0), lift(b, 7, 3))
            assert excess(combined) == excess(a) + excess(b)


def test_07_vector_frame_dual_battery(scoreboard):
    with scoreboard(7, "vector frames: dual sandwich, tight duals, scalar-dual rigidity, coefficient minimality"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            check = dual_redundancy_sandwich(random_vector_frame(rng))
            assert check.holds

        for _ in range(50):
            bound = float(rng.uniform(0.5, 4.0))
            tight = random_tight_vector_frame(rng, bound=bound)
            dual = canonical_dual(tight)
            assert np.abs(dual.matrix - tight.matrix / bound).max() <= 1e-10

        found = 0
        while found < 50:
            frame = random_vector_frame(rng, n=4, count=6)
            report = analyze_vector_frame(frame)
            a, b = report.bounds.lower, report.bounds.upper
            if b / a < 1.05:
                continue
            found += 1
            for c in (1.0 / a, 1.0 / b, 2.0 / (a + b)):
                candidate = VectorFrame.from_matrix(c * frame.matrix)
                assert dual_residual(frame, candidate) > frame.tol.recon_abs

        for _ in range(100):
            frame = random_vector_frame(rng)
            eta = [
                0.4 * sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
                for _ in range(frame.count)
            ]
            dual = alternate_dual(frame, eta)
            x = sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
            lhs, rhs, holds = check_norm_inequality(frame, dual, x)
            assert holds
            assert lhs <= rhs + 1e-9


def test_08_system_additivity_and_parseval_consistency(scoreboard):
    with scoreboard(8, "systems: orthogonal-local additivity, slanted counterexample, Parseval consistency"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            frame = random_fusion_frame(rng, n=int(rng.integers(2, 6)))
            system = random_system(rng, frame, kind="orthogonal")
            x = sample_unit_vectors(rng, frame.ambient_dim, 1, frame.field)[0]
            check = check_local_additivity(system, x)
            assert check.orthogonal_locals
            assert abs(check.fusion_value - check.local_sum) <= 1e-9

        e1, e2, e3 = np.eye(3)
        slanted_frame = build_fusion_frame(
            [(np.stack([e1, e2], axis=1), 1.0), (e3[:, None], 1.0)], 3
        )
        slanted = build_system(
            slanted_frame, [[e1, e2, (e1 + e2) / math.sqrt(2)], [e3]]
        )
        x = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        broken = check_local_additivity(slanted, x)
        assert not broken.orthogonal_locals
        assert abs(broken.fusion_value - broken.local_sum) > 1e-3

        for _ in range(100):
            frame = random_fusion_frame(rng, n=int(rng.integers(2, 6)))
            system = random_system(rng, frame, kind="parseval")
            assert parseval_equivalences(system).consistent


def test_09_monte_carlo_sampling_approaches_extremes(scoreboard):
    with scoreboard(9, "Monte-Carlo redundancy sweeps: contained in range, approach the supremum"):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            frame = random_fusion_frame(rng, n=n, field=REAL)
            low, high = redundancy_range(frame)
            values = redundancy_samples(frame, rng, 100_000)
            assert values.min() >= low - 1e-9
            assert values.max() <= high + 1e-9
            assert values.max() >= high * 0.98


def test_10_singleton_fusion_redundancy_matches_vector_redundancy(scoreboard):
    with scoreboard(10, "one-dimensional members: fusion redundancy equals vector redundancy"):
        rng = np.random.default_rng(19)
        for _ in range(100):
            vector_frame = random_vector_frame(rng, n=int(rng.integers(2, 6)))
            spans = [
                (vector_frame.matrix[:, i : i + 1], float(np.linalg.norm(vector_frame.matrix[:, i])))
                for i in range(vector_frame.count)
            ]
            fusion = build_fusion_frame(spans, vector_frame.ambient_dim)
            for x in sample_unit_vectors(rng, vector_frame.ambient_dim, 10, vector_frame.field):
                assert abs(
                    redundancy_at(fusion, x) - redundancy_at(vector_frame, x)
                ) <= 1e-12
            fusion_extremes = redundancy_range(fusion)
            vector_extremes = redundancy_range(vector_frame)
            assert abs(fusion_extremes[0] - vector_extremes[0]) <= 1e-12
            assert abs(fusion_extremes[1] - vector_extremes[1]) <= 1e-12
