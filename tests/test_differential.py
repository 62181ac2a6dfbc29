"""Fast paths against the slow references they replaced.

The references assemble operators member by member from n x n
projections, solve once per member, and run the two separate greedy
erasure loops; the library builds stacked operators once per frame,
solves once per dual operation, and shares one greedy helper.
"""

import itertools

import numpy as np
import pytest

from ffk.duality import canonical_dual_fusion, verify_alternate_dual
from ffk.fusion import erasure_certificate
from ffk.generators import random_fusion_frame, random_unitary
from ffk.numerics import (
    COMPLEX,
    REAL,
    hermitian_eigenrange,
    principal_angles,
    quadratic_forms,
    solve_hermitian_positive,
)

SEEDS = range(80)


def seeded_frame(seed):
    return random_fusion_frame(np.random.default_rng(seed))


def reference_operator(frame, normalized=False):
    return sum((1.0 if normalized else m.weight**2) * m.subspace.projection() for m in frame.members)


def reference_canonical_dual_spans(frame):
    S = reference_operator(frame)
    return [np.linalg.solve(S, m.subspace.basis) for m in frame.members]


def reference_dual_residual(frame, candidate):
    S = reference_operator(frame)
    reconstruction = np.zeros_like(S)
    for w_member, v_member in zip(frame.members, candidate.members):
        inner = np.linalg.solve(S, w_member.subspace.projection())
        reconstruction += w_member.weight * v_member.weight * v_member.subspace.projection() @ inner
    return float(np.linalg.norm(np.eye(frame.ambient_dim) - reconstruction, axis=0).max())


def reference_greedy_levels(frame, budget):
    """The strongest-path and weakest-path loops, as two separate searches."""
    tol = frame.tol
    N = frame.member_count
    terms = [m.weight**2 * m.subspace.projection() for m in frame.members]
    total = sum(terms)

    def survives(removed):
        low, high = hermitian_eigenrange(total - sum(terms[i] for i in removed), tol)
        return high > 0.0 and low > tol.rank_rel * high

    certified = universal = 0
    strong_path = []
    for k in range(1, budget + 1):
        best = None
        for i in range(N):
            if i in strong_path:
                continue
            low, _ = hermitian_eigenrange(total - sum(terms[j] for j in strong_path) - terms[i], tol)
            if best is None or low > best[1]:
                best = (i, low)
        candidate = strong_path + [best[0]]
        if not survives(candidate):
            break
        strong_path = candidate
        certified = k
    weak_path = []
    for k in range(1, budget + 1):
        worst = None
        for i in range(N):
            if i in weak_path:
                continue
            low, _ = hermitian_eigenrange(total - sum(terms[j] for j in weak_path) - terms[i], tol)
            if worst is None or low < worst[1]:
                worst = (i, low)
        weak_path = weak_path + [worst[0]]
        if not survives(weak_path):
            break
        universal = k
    return certified, universal


def largest_angle(Qa, Qb):
    sines = np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb), compute_uv=False)
    return float(np.arcsin(min(1.0, sines.max())))


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_operators_match_member_sums(seed):
    frame = seeded_frame(seed)
    for normalized, cached in ((False, frame.operator), (True, frame.normalized_operator)):
        reference = reference_operator(frame, normalized)
        assert not cached.flags.writeable
        assert np.abs(cached - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
    assert not frame.synthesis.flags.writeable
    assert frame.normalized_operator is frame.normalized_operator


@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_dual_matches_per_member_solves(seed):
    frame = seeded_frame(seed)
    dual = canonical_dual_fusion(frame)
    for member, member_frame, span in zip(dual.members, frame.members, reference_canonical_dual_spans(frame)):
        assert member.weight == member_frame.weight
        reference, _ = np.linalg.qr(span)
        assert largest_angle(reference, member.subspace.basis) <= 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_alternate_dual_matches_per_member_solves(seed):
    frame = seeded_frame(seed)
    for candidate in (canonical_dual_fusion(frame), frame):
        certificate = verify_alternate_dual(frame, candidate)
        reference = reference_dual_residual(frame, candidate)
        assert abs(certificate.residual - reference) <= 1e-10 * max(1.0, reference)
        _, bessel = hermitian_eigenrange(reference_operator(candidate))
        assert abs(certificate.bessel_bound - bessel) <= 1e-12 * bessel


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_erasure_matches_the_two_loops(seed):
    frame = seeded_frame(seed)
    certificate = erasure_certificate(frame, mode="greedy")
    assert (certificate.certified, certificate.universal) == reference_greedy_levels(frame, certificate.budget)


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_quadratic_forms_match_einsum(rows, field):
    rng = np.random.default_rng(rows)
    X = rng.standard_normal((rows, 7))
    A = rng.standard_normal((7, 7))
    if field == COMPLEX:
        X = X + 1j * rng.standard_normal((rows, 7))
        A = A + 1j * rng.standard_normal((7, 7))
    M = A + A.conj().T
    reference = np.einsum("ij,jk,ik->i", X.conj(), M, X).real
    values = quadratic_forms(X, M)
    assert values.shape == (rows,)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("columns", [None, 1, 5])
def test_solve_hermitian_positive_matches_numpy(field, columns):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9))
    if field == COMPLEX:
        A = A + 1j * rng.standard_normal((9, 9))
    M = A @ A.conj().T + 0.1 * np.eye(9)
    rhs = rng.standard_normal(9 if columns is None else (9, columns))
    X = solve_hermitian_positive(M, rhs)
    reference = np.linalg.solve(M, rhs)
    assert X.shape == reference.shape
    assert np.abs(X - reference).max() <= 1e-10 * np.abs(reference).max()


def known_angle_pair(angles, extra, field):
    """Bases of two subspaces of C^n or R^n with the given principal angles."""
    k = len(angles)
    n = 2 * k + extra
    Qa = np.eye(n)[:, : k + extra]
    Qb = np.zeros((n, k))
    for j, theta in enumerate(angles):
        Qb[j, j] = np.cos(theta)
        Qb[k + extra + j, j] = np.sin(theta)
    U = random_unitary(np.random.default_rng(k + extra), n, field)
    return U @ Qa, U @ Qb


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("extra", [0, 2])
def test_principal_angles_on_constructed_pairs(field, extra):
    angles = [0.0, 1e-9, 1e-4, np.pi / 4 - 1e-3, np.pi / 4 + 1e-3, np.pi / 2]
    Qa, Qb = known_angle_pair(angles, extra, field)
    expected = np.sort(angles)[::-1]
    for a, b in ((Qa, Qb), (Qb, Qa)):
        got = principal_angles(a, b)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12


def test_principal_angles_against_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(3)
    pairs = []
    for n, da, db, field in itertools.product((4, 7), (1, 2, 3), (1, 3), (REAL, COMPLEX)):
        A, B = rng.standard_normal((n, da)), rng.standard_normal((n, db))
        if field == COMPLEX:
            A, B = A + 1j * rng.standard_normal((n, da)), B + 1j * rng.standard_normal((n, db))
        Qa, Qb = np.linalg.qr(A)[0], np.linalg.qr(B)[0]
        pairs.append((Qa, Qb))
    pairs += [known_angle_pair([0.0, 1.2], 1, field) for field in (REAL, COMPLEX)]
    for Qa, Qb in pairs:
        # scipy reports about 1.5e-8 for a shared direction once another angle exceeds pi/4.
        assert np.abs(principal_angles(Qa, Qb) - linalg.subspace_angles(Qa, Qb)).max() <= 1e-7
