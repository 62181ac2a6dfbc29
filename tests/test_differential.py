"""Fast paths against the slow references they replaced.

The references assemble operators member by member from n x n
projections, solve once per member, run the two separate greedy
erasure loops, decide each exhaustive erasure subset with its own
eigvalsh, and convert document rows and render JSON one entry at a
time; the library builds stacked operators once per frame, reads every
``S^-1``, the Gram matrix too, from one QR factor per frame, walks one
greedy removal path and decides one spanning witness on a Gram block in
place of the other loop, decides exhaustive subsets in chunks on blocks of one
Gram matrix, and converts each block of document rows with one array
call.  Greedy ``certified`` must equal the exhaustive reference's where
that is affordable, the dimension bound above it, and never fall below
the strongest loop's count.  Redundancy samples come from sphere
weights and the cached spectrum of ``S1``, not from quadratic forms of
``S1`` at sampled vectors; they keep the law of the reference, not its
values.  Drawn in blocks, they equal the one-shot draw of all sphere
weights bit for bit.  The redundancy ratio of a dual pair is reported as its exact
extremes and redundancy equivalence is decided on the operators alone;
the sampled sweeps they replaced must stay inside those answers.
The ``Tolerance`` cutoff predicates are checked against the comparisons
that were written out at each of their call sites.  Vector frames keep
``S`` and the normalized operator, and a fusion frame system decides its
local orthogonality and Parsevality at construction; their results must
equal, bit for bit, those of the per-call computations they replaced.
Every ``S^-1`` reads one QR factor ``T* = Z R``; the duals it gives must
stay within ``(B / A) eps`` of the eigendecomposition solve it replaced,
whose own error grows like that, and must pass the reconstruction check
on frames whose ``B / A`` nears the rank cutoff.  The exhaustive search's
Gram matrix ``G = Z Z*`` must stay as close to the Cholesky form it
replaced, and within its derived error of a 40-digit ``G``.  A vector
frame is the fusion frame of its lines, so the fusion analyses of it must
give its vector analyses and the erasure certificate of its lines built
one by one.  The erasure searches decide their exact rows on ``S - T_J
T_J*`` from the frame's own ``S`` and ``T``; each decision must equal the
``is_frame`` of the frame ``erase`` returns, near the cutoff too.
"""

import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffk import fusion
from ffk.cli import main
from ffk.documents import FrameDocument, _expect_list, _parse_entry, _parse_rows, canonical_json
from ffk.duality import alternate_dual_bounds, canonical_dual_fusion, verify_alternate_dual
from ffk.errors import DimensionMismatch, LocalNotParseval, NotADual, ParseError
from ffk.fusion import (
    ErasureCertificate,
    FusionFrame,
    _weight_rule_level,
    build_fusion_frame,
    classify,
    erasure_certificate,
    excess,
    redundancy_at,
    redundancy_equivalent,
    redundancy_range,
    redundancy_samples,
)
from ffk.gallery import example_frame
from ffk.generators import (
    random_fusion_frame,
    random_local_vectors,
    random_subspace,
    random_unitary,
    random_vector_frame,
)
from ffk.numerics import (
    COMPLEX,
    REAL,
    FrameBounds,
    Tolerance,
    _column_blocks,
    gaussian,
    hermitian_eigenrange,
    kernel_dimension,
    orthonormalize,
    quadratic_forms,
    sample_unit_vectors,
    solve_hermitian_positive,
    sphere_weights,
    symmetrize,
)
from ffk.systems import FusionFrameSystem, check_local_additivity, parseval_equivalences
from ffk.vector_frames import (
    SandwichCheck,
    VectorFrame,
    alternate_dual,
    canonical_dual,
    dual_redundancy_sandwich,
    dual_residual,
)

SEEDS = range(80)


def seeded_frame(seed):
    return random_fusion_frame(np.random.default_rng(seed))


def reference_member_bases(frame):
    """Member ``i``'s orthonormal basis, the columns ``offsets[i]:offsets[i + 1]`` of ``frame.bases``."""
    return [frame.bases[:, a:b] for a, b in zip(frame.offsets[:-1], frame.offsets[1:])]


def projection(basis):
    """The orthogonal projection ``Q Q*`` onto the span of the orthonormal columns of ``Q``."""
    return basis @ basis.conj().T


def reference_operator(frame, normalized=False):
    bases = reference_member_bases(frame)
    return sum((1.0 if normalized else w**2) * projection(B) for B, w in zip(bases, frame.weights.tolist()))


def projection_gap(a, b):
    """``||P_a - P_b||_2`` of the spans of two bases: for equal dimensions, the sine of their largest principal angle."""
    return np.linalg.norm(projection(a) - projection(b), 2)


def reference_canonical_dual_spans(frame):
    S = reference_operator(frame)
    return [np.linalg.solve(S, B) for B in reference_member_bases(frame)]


def reference_dual_residual(frame, candidate):
    S = reference_operator(frame)
    reconstruction = np.zeros_like(S)
    pairs = zip(reference_member_bases(frame), reference_member_bases(candidate))
    for (W, V), w, v in zip(pairs, frame.weights.tolist(), candidate.weights.tolist()):
        inner = np.linalg.solve(S, projection(W))
        reconstruction += w * v * projection(V) @ inner
    return float(np.linalg.norm(np.eye(frame.ambient_dim) - reconstruction, axis=0).max())


def reference_removals(frame):
    """The terms ``v_i^2 P_i``, their sum ``S``, and whether removing a tuple of members leaves a frame."""
    bases = reference_member_bases(frame)
    terms = [w**2 * projection(B) for B, w in zip(bases, frame.weights.tolist())]
    total = sum(terms)
    spare = sum(B.shape[1] for B in bases) - frame.ambient_dim

    def survives(removed):
        if sum(bases[i].shape[1] for i in removed) > spare:
            return False  # rank S_J < n exactly; the roundoff of assembling S_J could still pass spans
        low, high = hermitian_eigenrange(total - sum(terms[i] for i in removed), frame.tol)
        return high > 0.0 and low > frame.tol.rank_rel * high

    return terms, total, survives


def reference_greedy_levels(frame, budget):
    """The strongest-path and weakest-path loops, as two separate searches.

    The weakest path's count is greedy search's ``universal``.  The
    strongest path's count is what greedy search once reported as
    ``certified``: its spanning witness must never count fewer.
    """
    tol = frame.tol
    N = frame.member_count
    terms, total, survives = reference_removals(frame)

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


def reference_exhaustive_levels(frame, budget):
    """The exhaustive search as one n x n eigvalsh per removed subset."""
    N = frame.member_count
    _, _, survives = reference_removals(frame)

    certified = 0
    universal = 0
    universal_alive = True
    for k in range(1, budget + 1):
        any_survivor = False
        all_survive = True
        for J in itertools.combinations(range(N), k):
            if survives(J):
                any_survivor = True
                if not universal_alive:
                    break  # existential answered; universal already settled
            else:
                all_survive = False
                if any_survivor and not universal_alive:
                    break
        if universal_alive and all_survive:
            universal = k
        if not all_survive:
            universal_alive = False
        if not any_survivor:
            break  # supersets of failing removals also fail
        certified = k

    weight_rule = _weight_rule_level(frame, budget)
    if certified == 0:
        rule = "none"
    elif weight_rule >= certified:
        rule = "weight-sum-bound"
    else:
        rule = "spectral"
    return ErasureCertificate(
        budget=budget,
        certified=certified,
        universal=universal,
        weight_rule=weight_rule,
        rule=rule,
        mode="exhaustive",
    )


def assert_exhaustive_matches(frame, budget=None):
    certificate = erasure_certificate(frame, budget, "exhaustive")
    assert certificate == reference_exhaustive_levels(frame, certificate.budget)
    return certificate


def dimension_bound(frame, budget):
    """``min(budget, hi)``: removing more than the ``hi`` smallest members' dimensions leaves ``rank S_J < n``."""
    spare = frame.dims.sum() - frame.ambient_dim
    return min(budget, int((np.cumsum(np.sort(frame.dims)) <= spare).sum()))


def assert_greedy_levels(frame, budget, levels):
    """Greedy ``(certified, universal)`` against the references.

    ``universal`` is the weakest-path loop's.  ``certified`` is the
    exhaustive reference's where that is affordable, the dimension bound
    above it, and never below the strongest-path loop's count.
    """
    certified, universal = levels
    strongest, weakest = reference_greedy_levels(frame, budget)
    assert universal == weakest
    assert certified >= strongest
    if frame.member_count <= fusion.EXHAUSTIVE_MEMBER_LIMIT:
        assert certified == reference_exhaustive_levels(frame, budget).certified
    else:
        assert certified == dimension_bound(frame, budget)


def assert_greedy_matches(frame, budget=None):
    certificate = erasure_certificate(frame, budget, "greedy")
    assert_greedy_levels(frame, certificate.budget, (certificate.certified, certificate.universal))
    return certificate


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
    assert dual.weights.tolist() == frame.weights.tolist()
    for basis, span in zip(reference_member_bases(dual), reference_canonical_dual_spans(frame)):
        reference, _ = np.linalg.qr(span)
        assert largest_angle(reference, basis) <= 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_alternate_dual_matches_per_member_solves(seed):
    frame = seeded_frame(seed)
    for candidate in (canonical_dual_fusion(frame), frame):
        certificate = verify_alternate_dual(frame, candidate)
        reference = reference_dual_residual(frame, candidate)
        assert abs(certificate.residual - reference) <= 1e-10 * max(1.0, reference)
        _, bessel = hermitian_eigenrange(reference_operator(candidate))
        assert abs(certificate.bessel_bound - bessel) <= 1e-12 * bessel


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(40))
def test_excess_of_a_frame_matches_the_kernel_dimension(seed, field):
    frame = random_fusion_frame(np.random.default_rng(seed), field=field)
    assert frame.is_frame
    assert excess(frame) == kernel_dimension(frame.synthesis, frame.tol)


NEAR_TIE_ETAS = (0.0, 2.0**-50, 2.0**-45)


def near_tie_frame(eta):
    """The plane R^2, e_0 with weight 2 and e_1 with weight 1 + eta.

    Removing e_0 or e_1 leaves lambda_min = 1, removing the plane leaves
    (1 + eta)^2, so the weakest path meets a three-way near tie at level
    1 for the small eta used: the plane (member 0) ties exactly at eta =
    0, and otherwise loses to e_0 by less than the test margin.  Either
    way one removal of e_0 and e_1 leaves the plane, so exactly 2
    removals are certified; the strongest path, which starts with the
    plane, certified 1.
    """
    return FusionFrame([np.eye(2)[:, axes] for axes in ([0, 1], [0], [1])], (1.0, 2.0, 1.0 + eta))


def bottom_below_margin_frame():
    """Eigenvalues (2e-14, 3e-14, 1) under rank_rel = 1e-15.

    Members: e_1 with weight^2 3e-14, e_0 twice with 1e-14, e_2 twice with
    0.5.  Removing e_1 is the weakest (lambda_min 0) but has no weight on
    the bottom eigenvector, so an e_0 member is evaluated first, and
    1e-14 + delta lies above both small eigenvalues: only the rule
    beta < lambda_1 stops a shifted test, whose weights 1/(lam - beta)
    would turn negative, from dropping e_1.
    """
    small = 1e-14
    weights = (np.sqrt(3 * small), np.sqrt(small), np.sqrt(small), np.sqrt(0.5), np.sqrt(0.5))
    return FusionFrame([np.eye(3)[:, [axis]] for axis in (1, 0, 0, 2, 2)], weights)


def library_scale_frame(seed, n, members, field):
    return random_fusion_frame(np.random.default_rng(seed), n, members, 4, field)


GREEDY_FRAMES = (
    [pytest.param(functools.partial(seeded_frame, seed), id=str(seed)) for seed in SEEDS]
    + [
        pytest.param(functools.partial(example_frame, name, n), id=f"{name}-n{n}")
        for name in ("7.1", "7.1-V", "7.2")
        for n in range(2, 9)
    ]
    + [
        pytest.param(functools.partial(library_scale_frame, 1, 64, 40, REAL), id="n64-N40-real"),
        pytest.param(functools.partial(library_scale_frame, 2, 64, 48, COMPLEX), id="n64-N48-complex"),
    ]
    + [pytest.param(functools.partial(near_tie_frame, eta), id=f"near-tie-{eta:g}") for eta in NEAR_TIE_ETAS]
    + [pytest.param(bottom_below_margin_frame, id="bottom-below-margin")]
)


@pytest.mark.parametrize("make_frame", GREEDY_FRAMES)
def test_greedy_erasure_matches_its_references(make_frame, monkeypatch):
    # Gallery coordinate families tie exactly at every level; the
    # library-scale frames run the full budget of the benchmark shapes;
    # the last four need the margin and the rule beta < lambda_1.
    if make_frame is bottom_below_margin_frame:
        monkeypatch.setattr(FusionFrame, "tol", Tolerance(rank_rel=1e-15))
    assert_greedy_matches(make_frame())


def spy_exact_evaluations(monkeypatch):
    """The ``[0, 0]`` entries of the n x n operators the greedy search evaluates exactly."""
    seen = []
    eigenrange = fusion.hermitian_eigenrange
    monkeypatch.setattr(fusion, "hermitian_eigenrange", lambda M, tol=None: seen.append(M[0, 0]) or eigenrange(M))
    return seen


def spy_bracket_widths(monkeypatch):
    """The column counts ``w + d_max`` of the tests each bracket reads: above ``d_max`` on a carried basis."""
    widths = []
    bracket = fusion._secular_bracket
    monkeypatch.setattr(fusion, "_secular_bracket", lambda C, *rest: widths.append(C.shape[1]) or bracket(C, *rest))
    return widths


@pytest.mark.parametrize("eta", NEAR_TIE_ETAS)
def test_greedy_erasure_near_tie_goes_to_the_lower_index(eta, monkeypatch):
    frame = near_tie_frame(eta)
    seen, widths = spy_exact_evaluations(monkeypatch), spy_bracket_widths(monkeypatch)
    certificate = assert_greedy_matches(frame)
    assert (certificate.certified, certificate.universal) == (2, 1)
    # The three brackets of level 1 overlap, so all three members are
    # evaluated exactly, in index order: the plane (leaving S_00 = 4), e_0
    # (leaving S_00 = 1) and e_1 (leaving S_00 = 5).
    assert seen == [4.0, 1.0, 5.0]
    # At eta = 0 the plane wins the exact tie and leaves no removal on the
    # dimensions; otherwise e_0 wins, and level 2 brackets the plane.
    assert len(widths) == (3 if eta == 0.0 else 4)


@pytest.mark.parametrize("eta", (2.0**-40, 2.0**-35))
def test_greedy_erasure_brackets_separate_a_gap_of_a_few_delta(eta, monkeypatch):
    # The plane's removal leaves 2 eta + eta^2 more than the exact tie of
    # e_0 and e_1 at 1, 5.7 and 180 times delta.
    frame = near_tie_frame(eta)
    seen = spy_exact_evaluations(monkeypatch)
    assert_greedy_matches(frame)
    # Only that exact tie is evaluated.
    assert seen == [1.0, 5.0]


@pytest.mark.parametrize("seed", (28, 96, 126, 137, 235))
def test_greedy_erasure_matches_with_weights_over_six_decades(seed):
    # Each path here reaches a removal with rank S_J < n whose assembled
    # operator passes spans by roundoff; both searches fail it on its dimensions.
    rng = np.random.default_rng(seed)
    members = [
        (random_subspace(rng, 3, int(rng.integers(1, 4)), REAL), 10 ** rng.uniform(-3, 3)) for _ in range(8)
    ]
    assert_greedy_matches(FusionFrame(*zip(*members)))  # bases and weights, drawn member by member


def test_greedy_erasure_dimension_exit_before_any_eigenproblem(monkeypatch):
    # One line per axis: every removal leaves fewer dimensions than n.
    frame = example_frame("7.2", 6)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda H: pytest.fail("an eigenproblem was solved"))
    certificate = erasure_certificate(frame, mode="greedy")
    assert (certificate.certified, certificate.universal) == (0, 0)


@pytest.mark.parametrize("seed, members, field", [(1, 40, REAL), (2, 48, COMPLEX)])
def test_greedy_erasure_picks_without_exact_evaluations(seed, members, field, monkeypatch):
    frame = library_scale_frame(seed, 64, members, field)
    exact, checks = [], []
    eigvalsh, frames_left = np.linalg.eigvalsh, fusion._frames_left
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: exact.append(H.shape == (64, 64)) or eigvalsh(H))
    monkeypatch.setattr(fusion, "_frames_left", lambda frame, H: checks.append(len(H)) or frames_left(frame, H))
    certificate = erasure_certificate(frame, mode="greedy")
    # Each pick comes from its level's eigh and d x d brackets, and its
    # certified lower end decides the frames-left check; the witness's
    # Gram certificate needs no exact decision.
    assert certificate.universal > 1
    assert not any(exact)
    assert len(checks) <= 1


@pytest.mark.parametrize("name", ["7.1", "7.1-V", "7.2"])
@pytest.mark.parametrize("n", range(16, 33))
def test_greedy_erasure_carried_levels_match_the_references(name, n, monkeypatch):
    # From n = 16 a level after a pick reuses the last eigendecomposition
    # while w + d_max <= n // 8.  The coordinate families tie exactly at
    # every level.  The weakest path of 7.1 leaves no frame at its first
    # pick, that of 7.1-V at its second, on a carried basis; 7.2 leaves no
    # removal on its dimensions.  The library-scale frames, whose carried
    # levels a later test counts, are in GREEDY_FRAMES.
    frame = example_frame(name, n)
    widths = spy_bracket_widths(monkeypatch)
    certificate = assert_greedy_matches(frame)
    assert (max(widths, default=0) > frame.dims.max()) == (certificate.universal > 0)


def carried_near_tie_frame(eta, n=24):
    """:func:`near_tie_frame` in R^n, reached at level 2 of the weakest path, on a carried basis.

    Members: the plane, e_0 and e_1 of the near tie; lines of weight^2 1.5
    on e_0 (member 3) and on e_1 (member 4); two lines of weight^2 3 on
    each of e_2, ..., e_{n-1}.  Removing member 4 leaves lambda_min = 2 +
    2 eta + eta^2 on e_1, every other removal at least 2.5, so the weakest
    path picks it at level 1.  At level 2, removing the plane leaves
    (1 + eta)^2 and removing e_1 leaves 1, every other removal at least
    2: a near tie, on w = 1 carried column with w + d_max = 3 <= n // 8.
    """
    axes = [[0, 1], [0], [1], [0], [1]] + [[k] for k in range(2, n) for _ in range(2)]
    weights = [1.0, 2.0, 1.0 + eta, math.sqrt(1.5), math.sqrt(1.5)] + [math.sqrt(3.0)] * (2 * n - 4)
    return FusionFrame([np.eye(n)[:, a] for a in axes], weights)


@pytest.mark.parametrize("eta", NEAR_TIE_ETAS)
def test_greedy_erasure_near_tie_on_a_carried_basis_goes_to_the_lower_index(eta, monkeypatch):
    frame = carried_near_tie_frame(eta)
    events = []
    bracket, eigenrange = fusion._secular_bracket, fusion.hermitian_eigenrange
    monkeypatch.setattr(fusion, "_secular_bracket", lambda C, *rest: events.append(C.shape[1]) or bracket(C, *rest))
    monkeypatch.setattr(fusion, "hermitian_eigenrange", lambda M, tol=None: events.append(M[0, 0]) or eigenrange(M))
    certificate = assert_greedy_matches(frame)
    assert certificate.universal == 2
    # Level 1 has no exact evaluation; level 2 brackets its members on the
    # pick's carried column and the plane's two, then evaluates the two
    # near-tie members exactly, in index order: the plane (leaving S_00 =
    # 5.5) and e_1 (leaving S_00 = 6.5).
    first = next(i for i, event in enumerate(events) if isinstance(event, float))
    assert events[first : first + 2] == [5.5, 6.5]
    assert events[first - 1] == 3


@pytest.mark.parametrize("seed, members, field", [(1, 40, REAL), (2, 48, COMPLEX)])
def test_greedy_erasure_reuses_each_eigendecomposition(seed, members, field, monkeypatch):
    # One n x n eigh per level decomposed the rest at every level; carried
    # levels reuse the last one while w + d_max <= n // 8 = 8.
    frame = library_scale_frame(seed, 64, members, field)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: eighs.append(H.shape == (64, 64)) or eigh(H))
    widths = spy_bracket_widths(monkeypatch)
    certificate = erasure_certificate(frame, mode="greedy")
    # The weakest path walks its universal levels and the one that fails.
    assert 2 * sum(eighs) <= min(certificate.universal + 1, certificate.budget)
    assert max(widths) > frame.dims.max()


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("seed", range(20))
def test_greedy_erasure_without_closed_brackets(seed, every, monkeypatch):
    # A bracket that does not close leaves that member's x_i unbounded on
    # both sides, so the near-tie step evaluates it exactly.
    # From n = 16 the frames reach levels on a carried basis, whose
    # brackets test more columns than d_max, and lose brackets there too:
    # with 2 n members the weakest path walks far enough to pick a line.
    calls, dropped = itertools.count(), []
    bracket = fusion._secular_bracket

    def unclosed(C, lam, delta, start):
        if next(calls) % every:
            return bracket(C, lam, delta, start)
        dropped.append(C.shape[1])
        return None

    monkeypatch.setattr(fusion, "_secular_bracket", unclosed)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 33))
    max_dim = 1 if 16 <= n < 24 else 2  # lines reach carried levels from n = 16, planes from n = 24
    frame = random_fusion_frame(rng, n=n, members=2 * n, max_dim=max_dim, field=(REAL, COMPLEX)[seed % 2])
    budget = frame.member_count - 1
    assert_greedy_levels(frame, budget, fusion._greedy_levels(frame, budget))
    assert dropped
    if n >= 16:
        assert max(dropped) > frame.dims.max()


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_frame(path):
    return FrameDocument.from_json_text((GOLDEN / path).read_text(encoding="utf-8")).build()[0]


GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
WITNESS_FRAMES = [
    pytest.param(functools.partial(golden_frame, path), id=Path(path).stem)
    for path in sorted({case["argv"][1] for case in GOLDEN_CASES if "--greedy" in case["argv"]})
    if golden_frame(path).is_frame  # the golden erasure cases' frames, not their Bessel-only families
] + [
    pytest.param(functools.partial(library_scale_frame, seed, n, members, field), id=f"n{n}-N{members}-{field}")
    for seed, n, members, field in [
        (0, 128, 48, COMPLEX), (1, 64, 40, REAL), (2, 128, 40, REAL), (3, 96, 40, COMPLEX), (2, 64, 48, COMPLEX)
    ]
]


def spy_witnesses(monkeypatch):
    """``[witness, certified]`` per :func:`fusion._spanning_witness` call: its members in pick order, and whether
    the :func:`fusion._gram_survivors` call after it certified them."""
    seen = []
    witness, survivors = fusion._spanning_witness, fusion._gram_survivors

    def pick(*args):
        seen.append([witness(*args), False])
        return seen[-1][0]

    def certify(shifted, width, J):
        left = survivors(shifted, width, J)
        seen[-1][1] = bool(left.all())
        return left

    monkeypatch.setattr(fusion, "_spanning_witness", pick)
    monkeypatch.setattr(fusion, "_gram_survivors", certify)
    return seen


@pytest.mark.parametrize("make_frame", WITNESS_FRAMES)
def test_greedy_witness_prefixes_leave_frames(make_frame, monkeypatch):
    # The witness reaches the dimension bound and one Cholesky certifies
    # it; each prefix's Gram block is a principal block of the witness's,
    # so each prefix also leaves a frame under the exact decision.
    frame = make_frame()
    seen = spy_witnesses(monkeypatch)
    budget = frame.member_count - 1
    level = fusion._witness_level(frame, budget)
    assert level == dimension_bound(frame, budget)
    if level == 0:
        assert not seen  # no removal fits on its dimensions, so no witness is picked
        return
    [(witness, certified)] = seen
    assert certified and len(witness) == level
    T, rest, prefixes = _column_blocks(frame.synthesis, frame.offsets), frame.operator, []
    for p in witness:
        rest = rest - T[p] @ T[p].conj().T
        prefixes.append(rest)
    assert fusion._frames_left(frame, np.stack(prefixes)).all()


@pytest.mark.parametrize("chunk_bytes", [fusion.CHUNK_BYTES, 1])
def test_greedy_witness_without_a_gram_cutoff_matches_the_exhaustive_reference(chunk_bytes, monkeypatch):
    # With c = 0 no Gram block certifies the witness: the exact decisions on
    # its prefixes alone give certified, which must still be exact, also
    # when each chunk holds one row.  Each prefix is one removal, decided
    # on its own.
    monkeypatch.setattr(fusion, "_gram_cutoff", lambda frame: 0.0)
    monkeypatch.setattr(fusion, "CHUNK_BYTES", chunk_bytes)
    seen, decided = spy_witnesses(monkeypatch), spy_exact_path(monkeypatch)
    frames = (
        [seeded_frame(seed) for seed in range(40)]
        + [example_frame(name, n) for name in ("7.1", "7.1-V") for n in range(2, 9)]
        + [example_frame("7.3")]
        + [near_tie_frame(eta) for eta in NEAR_TIE_ETAS]
    )
    for frame in frames:
        seen.clear()
        decided.clear()
        budget = frame.member_count - 1
        level = fusion._witness_level(frame, budget)
        assert level == reference_exhaustive_levels(frame, budget).certified
        assert len(seen) == (dimension_bound(frame, budget) > 0)  # a witness unless no removal fits
        for witness, certified in seen:
            assert not certified and len(witness) == level
            assert [len(H) for H in decided] == [1] * len(witness)


@pytest.mark.parametrize("chunk_bytes", [fusion.CHUNK_BYTES, 1])
@pytest.mark.parametrize(
    "decisions, level",
    [((True, True, False, True), 2), ((True, False, True, True), 1), ((False, True, True, True), 1)],
)
def test_greedy_witness_counts_the_leading_prefixes_that_pass(decisions, level, chunk_bytes, monkeypatch):
    # 7.1-V at n = 4 has a witness of 4 lines, one per axis, and weight rule
    # level 1.  Its prefixes' exact decisions are replaced: the count is the
    # leading prefixes that pass, at least the weight rule's level, and no
    # prefix after a failing one is decided, whatever the chunk size.
    frame = example_frame("7.1-V", 4)
    monkeypatch.setattr(fusion, "_gram_cutoff", lambda frame: 0.0)
    monkeypatch.setattr(fusion, "CHUNK_BYTES", chunk_bytes)
    rows = []

    def decide(frame, H):
        rows.extend(decisions[len(rows) : len(rows) + len(H)])
        return np.array(rows[-len(H) :])

    monkeypatch.setattr(fusion, "_frames_left", decide)
    assert _weight_rule_level(frame, 7) == 1
    assert fusion._witness_level(frame, 7) == level
    assert len(rows) == decisions.index(False) + 1


@pytest.mark.parametrize("n", [2, 6, 16])
def test_greedy_witness_of_an_orthonormal_basis_needs_no_factorization(n, monkeypatch):
    # Example 7.2 spends every dimension (spare = 0), so hi = 0: certified
    # is 0 before any Gram matrix, QR factor or eigenproblem.
    frame = example_frame("7.2", n)
    for name in ("eigh", "eigvalsh", "cholesky", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name: pytest.fail(f"np.linalg.{name} ran"))
    assert fusion._witness_level(frame, frame.member_count - 1) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_exhaustive_erasure_matches_per_subset_search(seed):
    assert_exhaustive_matches(seeded_frame(seed))


@pytest.mark.parametrize("name", ["7.1", "7.1-V", "7.2"])
@pytest.mark.parametrize("n", range(2, 9))
def test_exhaustive_erasure_matches_on_gallery(name, n):
    # Coordinate families: removals are exactly singular and lower
    # bounds tie exactly, so every decision sits on a cutoff.
    assert_exhaustive_matches(example_frame(name, n))


def test_exhaustive_erasure_matches_on_example_7_3():
    assert_exhaustive_matches(example_frame("7.3"))


def test_exhaustive_erasure_first_failure_inside_a_later_chunk():
    # 8-dimensional members in the complement of e_0, except two that
    # also hold e_0: removing that pair alone fails at level 2.  Level k
    # is decided in chunks of (k d_max)^2-square Gram blocks; put the pair
    # in the middle of the second chunk of C(22, 2) pairs.
    n, N, d = 16, 22, 8
    rows = fusion.CHUNK_BYTES // ((2 * d) ** 2 * 8)
    assert 2 * rows < N * (N - 1) // 2, "the level must span several chunks"
    pair = next(itertools.islice(itertools.combinations(range(N), 2), rows + rows // 2, None))
    rng = np.random.default_rng(5)
    bases, weights = [], []
    for i in range(N):
        basis = np.zeros((n, d))
        basis[1:] = random_subspace(rng, n - 1, d, REAL)
        if i in pair:
            basis[:, 0] = np.eye(n)[0]
        bases.append(basis)
        weights.append(float(rng.uniform(0.5, 2.0)))
    frame = FusionFrame(bases, weights)
    certificate = assert_exhaustive_matches(frame, budget=4)
    assert (certificate.certified, certificate.universal) == (4, 1)


def weak_last_axis_frame(rng, n, ratio, field=REAL, heavy=(1.0, 1.0)):
    """Lines held twice along the first n - 1 axes of a random basis, the last by a weak and a strong member.

    The doubled axes carry weights drawn from ``heavy``, the strong member weight 1, so its axis holds the
    smallest eigenvalue of ``S`` and removing it leaves ``lambda_min / lambda_max = ratio * rank_rel``.
    There ``A (1 - lambda_max(G_JJ)) = lambda_min(S_J)``: the Gram bound is tight.
    """
    U = random_unitary(rng, n, field)
    spans = [(U[:, [i]], rng.uniform(*heavy)) for i in range(n - 1) for _ in range(2)]
    B = max(spans[2 * i][1] ** 2 + spans[2 * i + 1][1] ** 2 for i in range(n - 1))
    weak = ratio * fusion.DEFAULT_TOLERANCE.rank_rel * B
    return fusion.build_fusion_frame(spans + [(U[:, [-1]], np.sqrt(weak)), (U[:, [-1]], 1.0)], n)


def spy_exact_path(monkeypatch):
    """The n x n stacks that reach :func:`fusion._frames_left`, one per call, copied before it overwrites them."""
    seen = []
    frames_left = fusion._frames_left
    monkeypatch.setattr(fusion, "_frames_left", lambda frame, H: seen.append(H.copy()) or frames_left(frame, H))
    return seen


@pytest.mark.parametrize("n, ratio", [(3, 0.5), (3, 3.0), (2, 0.75), (2, 1.5)])
def test_exhaustive_erasure_near_the_cutoff(n, ratio, monkeypatch):
    # Every line is held twice, the last by a weak and a strong member.
    # Removing the strong one leaves lambda_min / lambda_max = ratio *
    # rank_rel, so level 1 is universal iff ratio > 1.  Above 1 the Gram
    # certificate decides that level; below, the strong member's removal
    # is left uncertified and the exact n x n path decides it (at n = 2 a
    # shift below rank_rel * tr would certify ratio 0.75).
    frame = weak_last_axis_frame(np.random.default_rng(11), n, ratio)
    seen = spy_exact_path(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert certificate.universal == (1 if ratio > 1 else 0)
    seen.clear()
    assert fusion._exhaustive_levels(frame, 1) == ((1, 1) if ratio > 1 else (1, 0))
    assert bool(seen) == (ratio < 1)


@pytest.mark.parametrize("seed", range(12))
def test_exhaustive_erasure_just_inside_the_gram_certificate(seed, monkeypatch):
    # ratio 1.1-1.5, just above the Gram cutoff c: every single removal
    # survives and is certified on its Gram block, so level 1 decides no
    # n x n operator.
    rng = np.random.default_rng(seed)
    field = (REAL, COMPLEX)[seed % 2]
    frame = weak_last_axis_frame(rng, int(rng.integers(2, 6)), rng.uniform(1.1, 1.5), field, (1.0, 2.0))
    seen = spy_exact_path(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert certificate.universal == 1 and certificate.certified >= 2
    seen.clear()
    assert fusion._exhaustive_levels(frame, 1) == (1, 1)
    assert not seen


@pytest.mark.parametrize("seed", range(12))
def test_exhaustive_erasure_below_the_gram_certificate(seed, monkeypatch):
    # ratio 0.6-0.95: removing the strong member but not the weak one is
    # left uncertified by its Gram block and reaches the exact path.
    rng = np.random.default_rng(100 + seed)
    field = (REAL, COMPLEX)[seed % 2]
    frame = weak_last_axis_frame(rng, int(rng.integers(2, 6)), rng.uniform(0.6, 0.95), field, (1.0, 2.0))
    seen = spy_exact_path(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert certificate.universal == 0 and certificate.certified >= 2
    assert seen


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_exhaustive_erasure_exact_path_in_several_chunks(rows, field, monkeypatch):
    # A rotated orthonormal basis of C^5 with its last line held twice:
    # removing any of the first four lines empties an axis (lambda_max(G_JJ)
    # = 1), so one Gram chunk of level 1 leaves four rows to the exact path,
    # which assembles them `rows` n x n operators at a time.
    n = 5
    U = random_unitary(np.random.default_rng(17), n, field)
    frame = fusion.build_fusion_frame([(U[:, [i]], 1.0 + i / 4) for i in range(n)] + [(U[:, [-1]], 0.5)], n)
    monkeypatch.setattr(fusion, "CHUNK_BYTES", rows * n * n * frame.synthesis.itemsize)
    seen = spy_exact_path(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert (certificate.certified, certificate.universal) == (1, 0)
    assert [len(H) for H in seen] == [rows] * (4 // rows) + [4 % rows] * (4 % rows > 0)


def test_exhaustive_erasure_without_a_gram_cutoff(monkeypatch):
    # Two axes held twice and the third by a weak line alone: B / A within
    # 0.01% of 1 / rank_rel leaves no cutoff c > 0, so the exact path
    # decides every removal that is looked at: the five single removals,
    # of which removing the weak line fails, then the witness's two
    # prefixes, which reach hi = 2; triples fail on their dimensions.
    U = random_unitary(np.random.default_rng(3), 3, REAL)
    weak = 2.0002 * fusion.DEFAULT_TOLERANCE.rank_rel
    spans = [(U[:, [i]], 1.0) for i in range(2) for _ in range(2)] + [(U[:, [2]], np.sqrt(weak))]
    frame = fusion.build_fusion_frame(spans, 3)
    assert frame.is_frame and fusion._gram_cutoff(frame) <= 0.0
    seen = spy_exact_path(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert (certificate.certified, certificate.universal) == (2, 0)
    assert [len(H) for H in seen] == [5, 1, 1]
    assert [len(J) for J in removals_of(frame, [H[0] for H in seen[1:]])] == [1, 2]


def squeezed_frame(seed, count=None):
    """Subspaces of the complement of a unit vector ``u``, one plane through ``u``, and a weak line on ``u``.

    ``count`` subspaces of the complement, ``n + 1`` by default.

    The line's squared weight is 0.9-1.1 times ``rank_rel`` times the largest
    eigenvalue of the complement's members, so removing the plane squeezes
    ``u`` to within 10% of the spans cutoff.
    """
    rng = np.random.default_rng([seed, 26])
    n, field = int(rng.integers(3, 7)), (REAL, COMPLEX)[seed % 2]
    U = random_unitary(rng, n, field)
    u, complement = U[:, -1:], U[:, :-1]
    spans = [
        (complement @ random_subspace(rng, n - 1, int(rng.integers(1, 3)), field), rng.uniform(1.0, 2.0))
        for _ in range(count or n + 1)
    ]
    plane = np.hstack([u, complement @ random_subspace(rng, n - 1, 1, field)])
    top = np.linalg.eigvalsh(sum(w**2 * B @ B.conj().T for B, w in spans))[-1]
    weak = rng.uniform(0.9, 1.1) * fusion.DEFAULT_TOLERANCE.rank_rel * top
    return fusion.build_fusion_frame(spans + [(plane, 1.0), (u, np.sqrt(weak))], n)


def spy_exact_decisions(monkeypatch):
    """Each operator :func:`fusion._frames_left` decides, copied before it is overwritten, with its decision."""
    seen = []
    frames_left = fusion._frames_left

    def spy(frame, H):
        operators = H.copy()
        left = frames_left(frame, H)
        seen.extend(zip(operators, left))
        return left

    monkeypatch.setattr(fusion, "_frames_left", spy)
    return seen


def removals_of(frame, operators):
    """For each operator, the removal ``J`` whose ``S - T_J T_J*`` it is: the nearest over every proper subset."""
    N = frame.member_count
    subsets = [J for k in range(1, N) for J in itertools.combinations(range(N), k)]
    masks = np.zeros((len(subsets), N))
    for row, J in enumerate(subsets):
        masks[row, list(J)] = 1.0
    terms = np.stack([T @ T.conj().T for T in _column_blocks(frame.synthesis, frame.offsets)]).reshape(N, -1)
    remaining = frame.operator.reshape(-1) - masks @ terms
    removals = []
    for H in operators:
        gaps = np.abs(remaining - H.reshape(-1)).max(axis=1)
        assert gaps.min() <= 1e-12 * frame.operator.trace().real  # a match up to roundoff, not a nearest guess
        removals.append(subsets[int(np.argmin(gaps))])
    return removals


@pytest.mark.parametrize("mode, near_cutoff", [("exhaustive", 20), ("greedy", 5)])
def test_exact_erasure_decisions_match_the_erased_frame(mode, near_cutoff, monkeypatch):
    # Every decision of the exact path on S - T_J T_J* is the is_frame of the
    # frame erase() returns, whose S is T_keep T_keep*; the squeezed frames
    # put 57 exhaustive and 10 greedy decisions within 10% of the spans cutoff.
    seen = spy_exact_decisions(monkeypatch)
    near = 0
    for seed in range(12):
        frame = squeezed_frame(seed)
        seen.clear()
        erasure_certificate(frame, mode=mode)
        for J, (_, left) in zip(removals_of(frame, [H for H, _ in seen]), seen):
            remaining = fusion.erase(frame, J)[0]
            assert left == remaining.is_frame
            low, high = remaining._operator_range
            near += abs(low / (frame.tol.rank_rel * high) - 1.0) <= 0.1
    assert near >= near_cutoff


def weak_lines_frame(weight, copies=3):
    """One line of weight 1 on ``e_0`` and ``copies`` lines of ``weight`` on ``e_1``: ``S = diag(1, copies weight^2)``."""
    e = np.eye(2)
    return fusion.build_fusion_frame([(e[:, [0]], 1.0)] + [(e[:, [1]], weight)] * copies, 2)


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_weight_rule_needs_the_spans_cutoff(mode, monkeypatch):
    # S = diag(1, 1.2675e-10) is a frame, but each removal leaves
    # lambda_min / lambda_max <= 8.5e-11 < rank_rel; the three weak lines
    # erase a_1 = 4.2e-11 and a_2 = 8.5e-11, both below A.
    frame = weak_lines_frame(6.5e-6)
    seen = spy_exact_path(monkeypatch)
    certificate = erasure_certificate(frame, mode=mode)
    assert (certificate.certified, certificate.universal, certificate.weight_rule, certificate.rule) == (0, 0, 0, "none")
    if mode == "exhaustive":
        assert certificate == reference_exhaustive_levels(frame, certificate.budget)
        # No Gram block certifies a removal.  The four single removals fail
        # on the exact path in the universal scan, the witness's first
        # prefix fails there too, and the survivor scan decides the four
        # again; no superset is decided.
        assert [len(H) for H in seen] == [4, 1, 4]
    else:
        assert (certificate.certified, certificate.universal) == reference_greedy_levels(frame, certificate.budget)


@pytest.mark.parametrize("argv", [["erasure", "--exhaustive"], ["erasure", "--greedy"], ["analyze"]])
def test_weight_rule_needs_the_spans_cutoff_in_the_cli(argv, tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(FrameDocument.from_fusion_frame(weak_lines_frame(6.5e-6), None).to_json_text(), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert (tree["erasure"] if argv == ["analyze"] else tree)["weight_rule"] == 0


def benchmark_shape_frame(seed, n, dims, field):
    rng = np.random.default_rng(seed)
    members = [(random_subspace(rng, n, d, field), float(rng.uniform(0.5, 2.0))) for d in dims]
    return FusionFrame(*zip(*members))


def spy_gram_shapes(monkeypatch):
    """``(rows, side)`` per :func:`fusion._gram_survivors` call: its chunk of ``side``-square blocks.

    ``J`` holds slots of ``width`` columns, members or member groups, so a block's side is ``J.shape[1] * width``.
    """
    shapes = []
    gram_survivors = fusion._gram_survivors

    def spy(shifted, width, J):
        shapes.append((len(J), J.shape[1] * width))
        return gram_survivors(shifted, width, J)

    monkeypatch.setattr(fusion, "_gram_survivors", spy)
    return shapes


@pytest.mark.parametrize(
    "n, dims, budget, field, sides",
    [(8, (2,) * 18, 5, COMPLEX, {20}), (12, (1, 2) * 8, None, REAL, {12, 20})],
    ids=["n8-N18-b5-complex", "n12-N16-full-real"],
)
def test_exhaustive_erasure_matches_on_the_benchmark_shapes(n, dims, budget, field, sides, monkeypatch):
    # The first has sum_{i in J} d_i > n, so G_JJ is larger than S_J; the
    # second alternates lines and planes up to the dimension cutoff.  Each
    # certifies its top level (5; 6, where the six planes fill the 12 spare
    # dimensions) on the Gram blocks of unions of member groups, which
    # settles every level below it: the first packs its 18 planes in pairs
    # (capacity 28 // 5 = 5 dimensions), slots of 4, so its blocks are 20
    # square and no block of level 5 itself is formed; the second packs
    # each plane alone and the lines in pairs (capacity 2), slots of 2, so
    # its unions are 12 square, and the spanning witness of its hi = 10
    # lines certifies levels 7 to 10 on one 20-square block of the member
    # layout, d_max = 2 columns per member.
    shapes = spy_gram_shapes(monkeypatch)
    certificate = assert_exhaustive_matches(benchmark_shape_frame(7, n, dims, field), budget)
    assert certificate.certified >= 5
    assert {side for _, side in shapes} == sides


def spy_gram_layouts(monkeypatch):
    """The slot count ``g`` of each ``c I - G`` that :func:`fusion._shifted_gram` forms, one per call."""
    layouts = []
    shifted_gram = fusion._shifted_gram

    def spy(frame, c, label):
        layouts.append(label.max() + 1)
        return shifted_gram(frame, c, label)

    monkeypatch.setattr(fusion, "_shifted_gram", spy)
    return layouts


def test_exhaustive_erasure_top_level_on_unions_of_plane_pairs(monkeypatch):
    # 18 planes in C^8, budget 5: nine pairs, so C(9, 5) = 126 union blocks
    # of 10 members, 20 x 20, stand for the C(18, 5) = 8568 removals of 5.
    # They certify the top level, the budget, so the search forms no Gram
    # matrix in the member layout.
    shapes, layouts = spy_gram_shapes(monkeypatch), spy_gram_layouts(monkeypatch)
    certificate = assert_exhaustive_matches(benchmark_shape_frame(7, 8, (2,) * 18, COMPLEX), 5)
    assert (certificate.certified, certificate.universal) == (5, 5)
    assert {side for _, side in shapes} == {20} and sum(rows for rows, _ in shapes) == math.comb(9, 5)
    assert layouts == [9]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_exhaustive_erasure_merged_pass_on_the_full_shape_forms_blocks_no_wider_than_spare(seed, monkeypatch):
    # The erasure benchmark's n12-N16-full shape, complex: six planes fill
    # the 12 spare dimensions, so top = 6 and the capacity is 2.  Eight
    # planes alone and four pairs of lines make 12 slots of 2 columns, so
    # each of the C(12, 6) = 924 unions is one 12 x 12 block, and one
    # Cholesky per chunk takes them.  In the member layout, one array per
    # union size, the blocks were 12 to 20 square, in 143 calls.
    frame = benchmark_shape_frame(seed, 12, (1, 2) * 8, COMPLEX)
    shapes, layouts = spy_gram_shapes(monkeypatch), spy_gram_layouts(monkeypatch)
    top_pass, merged = fusion._top_pass, []

    def spy(frame, c, label, top):
        start = len(shapes)
        certified = top_pass(frame, c, label, top)
        merged.append((top, label.max() + 1, shapes[start:]))
        return certified

    monkeypatch.setattr(fusion, "_top_pass", spy)
    assert_exhaustive_matches(frame)
    [(top, groups, calls)] = merged
    rows = fusion.CHUNK_BYTES // (12 * 12 * frame.synthesis.itemsize)
    assert (top, groups) == (6, 12)
    assert {side for _, side in calls} == {12} and sum(r for r, _ in calls) == math.comb(12, 6)
    assert len(calls) <= -(-math.comb(12, 6) // rows)
    assert layouts == [12, 16]  # the witness of levels 7 to 10 forms the member layout once


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_exhaustive_erasure_top_level_fails_at_its_last_removal(field, monkeypatch):
    # n + 2 lines in R^n or C^n: the first n in the complement of e_0, the
    # last two, members N - 2 and N - 1, alone holding e_0.  Removing those
    # two is the one failing pair and the last of level 2 (the top level), so
    # the first pass at level 2 runs through every chunk and the search then
    # starts again from level 1.
    n, rows = 5, 4
    rng = np.random.default_rng(23)
    spans = []
    for i in range(n + 2):
        line = random_subspace(rng, n, 1, field)
        if i < n:
            line[0] = 0.0
        spans.append((line, float(rng.uniform(0.5, 2.0))))
    frame = fusion.build_fusion_frame(spans, n)
    monkeypatch.setattr(fusion, "CHUNK_BYTES", rows * 2 * 2 * frame.synthesis.itemsize)
    shapes = spy_gram_shapes(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert (certificate.certified, certificate.universal) == (2, 1)
    chunks = -(-math.comb(n + 2, 2) // rows)
    assert [side for _, side in shapes[: chunks + 1]] == [2] * chunks + [1]


@pytest.mark.parametrize("n", range(2, 9))
def test_exhaustive_erasure_top_level_fails_at_its_first_chunk(n, monkeypatch):
    # Gallery 7.1-V holds each axis twice: the first removal of level n
    # empties axis 0, so the first pass stops after one chunk.
    shapes = spy_gram_shapes(monkeypatch)
    certificate = assert_exhaustive_matches(example_frame("7.1-V", n))
    assert (certificate.certified, certificate.universal) == (n, 1)
    assert [side for _, side in shapes[:2]] == [n, 1]


def test_exhaustive_erasure_decides_each_top_level_row_once(monkeypatch):
    # Gallery 7.1-V at n = 6: the first pass declines its first level-6
    # chunk, 455 rows.  The universal scan stops at level 2, and the
    # witness, one 6-square block, certifies levels 2 to 6, so no level-6
    # removal is decided again.
    shapes = spy_gram_shapes(monkeypatch)
    certificate = assert_exhaustive_matches(example_frame("7.1-V", 6))
    assert (certificate.certified, certificate.universal) == (6, 1)
    assert shapes == [(455, 6), (12, 1), (66, 2), (1, 6)]


@st.composite
def packings(draw):
    """Member dimensions, a level ``2 <= top < N`` and ``spare`` from the ``top`` largest dimensions to ``m - 1``."""
    dims = np.array(draw(st.lists(st.integers(1, 4), min_size=3, max_size=10)))
    top = draw(st.integers(2, len(dims) - 1))
    spare = draw(st.integers(int(np.sort(dims)[::-1][:top].sum()), int(dims.sum()) - 1))
    return dims, top, spare


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(packings())
@example((np.ones(10, int), 3, 8))  # five pairs of lines
@example((np.array([4] + [1] * 12), 3, 8))  # the 4-space above the capacity 2 alone, six pairs of lines
@example((np.array([3] + [1] * 8), 2, 5))  # the 3-space alone and pairs of lines, all in slots of 3
@example((np.ones(6, int), 2, 4))  # pairs would not halve the entries at level 2: singletons
@example((np.array([2, 1, 1, 1, 1]), 2, 3))  # capacity 1
def test_member_groups_cover_every_removal_of_top_members(packing):
    dims, top, spare = packing
    N = len(dims)
    label = fusion._member_groups(dims, top, spare)
    g = label.max() + 1
    assert label.shape == (N,) and np.bincount(label).min() >= 1  # the groups partition the members
    assert np.sort(np.bincount(label, weights=dims))[::-1][:top].sum() <= spare  # so does every union of top
    assert g > top
    for J in itertools.combinations(range(N), top):
        assert len(set(label[list(J)])) <= top  # so J lies in a union of top groups
    w, d = np.bincount(label, weights=dims).max(), dims.max()
    assert top * w <= max(spare, top * d)  # a union's block, top slots of w columns, is no wider
    offsets = np.cumsum(np.append(0, dims))
    slots = fusion._padded(SimpleNamespace(dims=dims, offsets=offsets), np.arange(1.0, offsets[-1] + 1)[None], label)
    for j in range(g):  # slot j: the columns (numbered from 1) of group j's members in member order, then zeros
        columns = [c for i in np.flatnonzero(label == j) for c in range(offsets[i] + 1, offsets[i + 1] + 1)]
        assert slots[0, j].tolist() == columns + [0.0] * (int(w) - len(columns))
    if g < N:  # merged: the C(g, top) union blocks hold at most half the entries of the removals' blocks
        assert 2 * math.comb(g, top) * (top * w) ** 2 <= math.comb(N, top) * (top * d) ** 2
    else:  # one member per group, in member order: slot i holds member i
        assert (label == np.arange(N)).all()
    if spare // top == 1:
        assert g == N


@pytest.mark.parametrize(
    "dims, top, spare, label",
    [
        ((2,) * 18, 5, 28, np.repeat(np.arange(9), 2)),  # 126 unions of 10 members for 8568 removals
        ((4,) + (1,) * 12, 3, 8, np.repeat(np.arange(7), 2)[1:]),  # the 4-space alone, the lines in pairs
        ((3,) + (1,) * 8, 2, 5, np.repeat(np.arange(5), 2)[1:]),  # 10 blocks of 6 x 6 for 36: 360 / 1296 of entries
        ((1,) * 6, 2, 4, np.arange(6)),  # three pairs: 3 blocks of 4 x 4, 48 entries, against 15 of 2 x 2, 60
        ((1,) * 12, 4, 8, np.repeat(np.arange(6), 2)),  # 15 unions of 8 lines: 960 / 7920 of the entries
    ],
)
def test_member_groups_merge_only_to_halve_the_blocks(dims, top, spare, label):
    assert (fusion._member_groups(np.array(dims), top, spare) == label).all()


def spy_top_passes(monkeypatch):
    """Per :func:`fusion._top_pass` call: whether its groups merge members, and whether it certified every union."""
    passes = []
    top_pass = fusion._top_pass

    def spy(frame, c, label, top):
        passes.append((bool(label.max() < len(label) - 1), top_pass(frame, c, label, top)))
        return passes[-1][1]

    monkeypatch.setattr(fusion, "_top_pass", spy)
    return passes


def erasure_shape_frame(seed, index, n, N, pattern):
    """A frame of one erasure benchmark shape, its field alternating with ``index``."""
    return benchmark_shape_frame(seed, n, [pattern[i % len(pattern)] for i in range(N)], (REAL, COMPLEX)[index % 2])


ERASURE_SHAPES = (  # (n, N, dimension pattern, budget) of the erasure benchmark but its largest, n16-N22-b5
    (8, 16, (2,), 4),
    (8, 18, (2,), 5),
    (12, 18, (2,), 4),
    (12, 20, (2,), 5),
    (16, 20, (2,), 4),
    (16, 22, (2,), 4),
    (12, 16, (1, 2), None),
)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("index", range(len(ERASURE_SHAPES)))
def test_exhaustive_erasure_matches_on_the_erasure_benchmark_shapes(index, seed, monkeypatch):
    # Each packs its top level into merged groups, whose unions certify it.
    n, N, pattern, budget = ERASURE_SHAPES[index]
    frame = erasure_shape_frame(seed, index, n, N, pattern)
    passes = spy_top_passes(monkeypatch)
    assert_exhaustive_matches(frame, budget)
    assert passes == [(True, True)]


def top_level(frame, budget):
    """``top`` and ``spare``: the reference for :func:`fusion._dimension_levels`."""
    spare = int(frame.dims.sum()) - frame.ambient_dim
    return min(budget, int((np.cumsum(np.sort(frame.dims)[::-1]) <= spare).sum())), spare


def spy_level_chunks(monkeypatch):
    """``(k, chunks)`` per :func:`fusion._subset_chunks` call: the chunks of ``k``-subsets the search took from it."""
    calls = []
    subset_chunks = fusion._subset_chunks

    def spy(N, k, rows):
        calls.append((k, chunks := []))
        for J in subset_chunks(N, k, rows):
            chunks.append(J)
            yield J

    monkeypatch.setattr(fusion, "_subset_chunks", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_erasure_levels_above_top_come_from_the_witness(seed, monkeypatch):
    # The erasure benchmark's n12-N16 shape: the merged pass certifies its
    # top level, 6, and the spanning witness reaches hi = 10, so no level
    # is enumerated removal by removal: the one _subset_chunks call is the
    # top pass's, over the 12 groups.
    n, N, pattern, budget = ERASURE_SHAPES[6]
    frame = erasure_shape_frame(seed, 6, n, N, pattern)
    calls, levels = spy_level_chunks(monkeypatch), spy_witness_levels(monkeypatch)
    certificate = assert_exhaustive_matches(frame, budget)
    top, _ = top_level(frame, certificate.budget)
    assert (top, certificate.universal, certificate.certified) == (6, 6, dimension_bound(frame, certificate.budget))
    assert [k for k, _ in calls] == [top] and levels == [certificate.certified]


def spy_witness_levels(monkeypatch):
    """The count :func:`fusion._witness_level` returns, one per call."""
    levels = []
    witness_level = fusion._witness_level

    def spy(frame, budget):
        levels.append(witness_level(frame, budget))
        return levels[-1]

    monkeypatch.setattr(fusion, "_witness_level", spy)
    return levels


def short_witness_frame():
    """Coordinate subspaces of R^4 on which the spanning witness stops at 2 members of ``hi = 3``.

    Members ``{e1}, {e1, e3}, {e0, e1}, {e0}, {e2, e3}`` with weights 0.8, 1.9, 0.8, 1.8 and 0.8: removing
    ``{e1}``, ``{e1, e3}`` and ``{e0}`` leaves a frame, but the pivots start elsewhere.
    """
    e = np.eye(4)
    return FusionFrame([e[:, a] for a in ([1], [1, 3], [0, 1], [0], [2, 3])], [0.8, 1.9, 0.8, 1.8, 0.8])


def test_exhaustive_erasure_completes_a_short_witness(monkeypatch):
    # top = 2: the top pass fails, and so does level 1, since removing
    # {e2, e3} empties two axes.  The witness reaches level 2 of hi = 3,
    # so the survivor scan decides level 3, where it finds the survivor.
    # Greedy mode has only the witness, and undercounts.
    frame = short_witness_frame()
    calls, levels = spy_level_chunks(monkeypatch), spy_witness_levels(monkeypatch)
    certificate = assert_exhaustive_matches(frame)
    assert (certificate.certified, certificate.universal) == (3, 0) == (dimension_bound(frame, 4), 0)
    assert levels == [2] and [k for k, _ in calls] == [2, 1, 3]
    assert erasure_certificate(frame, mode="greedy").certified == 2


def test_exhaustive_erasure_of_doubled_axes_scans_up_to_level_2(monkeypatch):
    # Gallery 7.1-V at n = 8 holds each axis twice.  The top pass at level 8
    # declines its first chunk; level 1 is universal and the first pair
    # empties an axis, so the universal scan stops at level 2.  The witness
    # of hi = 8 lines certifies the rest: no chunk of levels 3 to 7 is
    # enumerated, nor of level 8 after the top pass.
    calls, levels = spy_level_chunks(monkeypatch), spy_witness_levels(monkeypatch)
    certificate = assert_exhaustive_matches(example_frame("7.1-V", 8))
    assert (certificate.certified, certificate.universal) == (8, 1)
    assert levels == [8] and [k for k, _ in calls] == [8, 1, 2]


DIMENSION_FRAMES = [
    pytest.param(functools.partial(example_frame, name, n), id=f"{name}-n{n}")
    for name in ("7.1", "7.1-V", "7.2")
    for n in (2, 5, 8)
] + [
    pytest.param(lambda seed=seed: random_fusion_frame(np.random.default_rng([seed, 37]), 5, 12, 3), id=f"mixed-{seed}")
    for seed in range(6)
]


@pytest.mark.parametrize("make_frame", DIMENSION_FRAMES)
def test_dimension_levels_match_the_references(make_frame):
    frame = make_frame()
    for budget in range(frame.member_count):
        top, spare = top_level(frame, budget)
        assert fusion._dimension_levels(frame, budget) == (spare, top, dimension_bound(frame, budget))


def merged_budgets(frame):
    """The budgets whose top level :func:`fusion._member_groups` packs into merged groups."""
    return [
        budget
        for budget, (top, spare) in ((b, top_level(frame, b)) for b in range(2, frame.member_count))
        if top >= 2 and fusion._member_groups(frame.dims, top, spare).max() < frame.member_count - 1
    ]


def test_exhaustive_erasure_merged_union_fails_where_every_removal_survives(monkeypatch):
    # Twelve lines in R^3, budget 3: members 0-3 alone hold e_0, the rest
    # lie in its complement.  Capacity 9 // 3 = 3 packs (0, 1, 2), (3, 4,
    # 5), (6, 7, 8), (9, 10, 11); the first union, members 0-8, empties
    # e_0, so the merged pass ends there, and the pass on single removals
    # certifies all C(12, 3) of them, as each keeps one of members 0-3.
    rng = np.random.default_rng(31)
    spans = []
    for i in range(12):
        line = random_subspace(rng, 3, 1, REAL)
        if i >= 4:
            line[0] = 0.0
        spans.append((line / np.linalg.norm(line), float(rng.uniform(0.5, 2.0))))
    frame = build_fusion_frame(spans, 3)
    assert (fusion._member_groups(frame.dims, 3, 9) == np.repeat(np.arange(4), 3)).all()
    shapes, passes, layouts = spy_gram_shapes(monkeypatch), spy_top_passes(monkeypatch), spy_gram_layouts(monkeypatch)
    certificate = assert_exhaustive_matches(frame, 3)
    assert (certificate.certified, certificate.universal) == (3, 3)
    assert passes == [(True, False), (False, True)]
    assert shapes == [(4, 9), (math.comb(12, 3), 3)] and layouts == [4, 12]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("family", ["squeezed", "mixed"])
def test_exhaustive_erasure_on_merged_groups(family, seed, monkeypatch):
    # Squeezed frames with 6-10 subspaces of the complement: a union or a
    # removal that holds the plane leaves u to the weak line, so both the
    # merged pass and the pass on single removals end early, and the
    # search goes level by level.  Mixed frames: 10-14 members of dimension
    # 1-3 in R^3-R^6 or C^3-C^6.  Each at a budget that merges, drawn per seed.
    if family == "squeezed":
        rng = np.random.default_rng([seed, 32])
        frame = squeezed_frame(seed, 2 * (seed % 4 + 3) + 4)
    else:
        rng = np.random.default_rng([seed, 31])
        n = int(rng.integers(3, 7))
        frame = random_fusion_frame(rng, n, int(rng.integers(10, 15)), 3, (REAL, COMPLEX)[seed % 2])
    budget = int(rng.choice(merged_budgets(frame)))
    passes, layouts = spy_top_passes(monkeypatch), spy_gram_layouts(monkeypatch)
    assert_exhaustive_matches(frame, budget)
    assert passes[0][0]  # unions of merged groups came first
    if family == "squeezed":  # after the merged pass, only the member layout is formed
        assert passes == [(True, False), (False, False)] and set(layouts[1:]) == {frame.member_count}


def assert_slot_blocks_match(seed):
    """For a mixed frame of :func:`test_exhaustive_erasure_on_merged_groups`, at its budget: is a slot part empty?

    Each union's block in the slots of its groups is the member layout's ``c I - G_KK``, its members' columns
    in slot order, and exactly ``c`` on the diagonal, coupled to nothing, per empty slot column.
    """
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(3, 7))
    frame = random_fusion_frame(rng, n, int(rng.integers(10, 15)), 3, (REAL, COMPLEX)[seed % 2])
    top, spare = top_level(frame, int(rng.choice(merged_budgets(frame))))
    N, dims, d = frame.member_count, frame.dims, frame.dims.max()
    label, c = fusion._member_groups(dims, top, spare), fusion._gram_cutoff(frame)
    g = label.max() + 1
    assert g < N and c > 0.0
    slots, members = fusion._shifted_gram(frame, c, label), fusion._shifted_gram(frame, c, np.arange(N))
    w = len(slots) // g
    source = np.full((g, w), -1)  # the member-layout column of each slot column; -1 where the slot is empty
    for j in range(g):
        columns = [i * d + t for i in np.flatnonzero(label == j) for t in range(dims[i])]
        source[j, : len(columns)] = columns
    assert w == np.bincount(label, weights=dims).max()
    for K in itertools.combinations(range(g), top):
        at = np.concatenate([np.arange(j * w, (j + 1) * w) for j in K])
        block, real = slots[np.ix_(at, at)], source[list(K)].reshape(-1)
        empty = real < 0
        gathered = members[np.ix_(real[~empty], real[~empty])]
        assert np.abs(block[np.ix_(~empty, ~empty)] - gathered).max() <= fusion._gram_error(frame) / 4
        assert (block[empty] == c * (at[empty][:, None] == at)).all()  # rows of c I, so columns too
        assert (block[:, empty] == c * (at[:, None] == at[empty])).all()
    return bool((source < 0).any())


def test_slot_layout_blocks_are_the_member_layout_blocks():
    # Seeds 0-11, real and complex in turn; 10 of the 12 leave some slot part empty.
    assert sum(assert_slot_blocks_match(seed) for seed in range(12)) >= 10


def reference_gram(frame):
    """``G = T* S^-1 T`` as ``Y* Y``, ``Y = L^-1 T`` for the Cholesky factor ``S = L L*``, on the padded ``T``."""
    T = fusion._padded(frame, frame.synthesis, np.arange(frame.member_count)).reshape(frame.ambient_dim, -1)
    Y = np.linalg.solve(np.linalg.cholesky(frame.operator), T)
    return symmetrize(Y.conj().T @ Y)


def computed_gram(frame, monkeypatch):
    """The ``G`` that :func:`fusion._shifted_gram` forms in the member layout, caught at its ``symmetrize``."""
    seen = []
    monkeypatch.setattr(fusion, "symmetrize", lambda M: seen.append(symmetrize(M)) or seen[-1])
    c = fusion._gram_cutoff(frame)
    assert c > 0.0
    fusion._shifted_gram(frame, c, np.arange(frame.member_count))
    return seen[-1]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(40))
def test_gram_matrix_matches_the_cholesky_form(seed, field, monkeypatch):
    frame = random_fusion_frame(np.random.default_rng(seed), field=field)
    assert_within_conditioning(computed_gram(frame, monkeypatch), reference_gram(frame), frame)


def conditioned_fusion_frame(rng, field, condition):
    """The lines of :func:`conditioned_vector_frame` and two planes of squared weight ``0.01 / condition``.

    ``S`` moves by at most ``0.02 / condition``, so ``B / A`` stays within 2% of ``condition``, and the
    lines are padded to the planes' two columns.
    """
    vectors = conditioned_vector_frame(rng, field, condition).synthesis
    n = len(vectors)
    spans = [(phi[:, None], np.linalg.norm(phi)) for phi in vectors.T]
    spans += [(random_subspace(rng, n, 2, field), math.sqrt(0.01 / condition)) for _ in range(2)]
    return build_fusion_frame(spans, n)


def exact_gram_error(frame, G):
    """``max |G - T* S^-1 T|`` over the entries, the exact ``G`` in 40-digit arithmetic on the padded ``T``."""
    mpmath = pytest.importorskip("mpmath")
    T = fusion._padded(frame, frame.synthesis, np.arange(frame.member_count)).reshape(frame.ambient_dim, -1)
    with mpmath.workdps(40):
        Tm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in T])
        exact = Tm.H * mpmath.inverse(Tm * Tm.H) * Tm
        return max(float(abs(exact[i, j] - mpmath.mpc(complex(G[i, j])))) for i in range(len(G)) for j in range(len(G)))


@pytest.mark.parametrize("decades", range(9))
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(3))
def test_gram_matrix_is_within_its_derived_error(seed, field, decades, monkeypatch):
    # e_2 / 4 of _exhaustive_levels bounds the computed G's error; it
    # grows like sqrt(t / A), the roundoff of the QR factor of T*.
    frame = conditioned_fusion_frame(np.random.default_rng([seed, decades]), field, 10.0**decades)
    low, high = frame._operator_range
    assert frame.dims.max() == 2 and abs(math.log10(high / low) - decades) < 0.01
    assert exact_gram_error(frame, computed_gram(frame, monkeypatch)) <= fusion._gram_error(frame) / 4


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


def reference_redundancy_samples(frame, rng, count):
    """Quadratic forms of ``S1`` at ``count`` Haar unit vectors: O(count n^2) after the draw."""
    X = sample_unit_vectors(rng, frame.ambient_dim, count, frame.field)
    return quadratic_forms(X, frame.normalized_operator)


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def law_frame(seed):
    rng = np.random.default_rng(seed)
    return random_fusion_frame(rng, n=int(rng.integers(2, 17)), field=(REAL, COMPLEX)[seed % 2])


@pytest.mark.parametrize("count", [1, 7, 300])
@pytest.mark.parametrize("seed", range(12))
def test_redundancy_samples_are_redundancies_at_rotated_sphere_points(seed, count):
    frame = law_frame(seed)
    weights = sphere_weights(np.random.default_rng(seed), frame.ambient_dim, count, frame.field)
    values = redundancy_samples(frame, np.random.default_rng(seed), count)
    eigenvalues, V = np.linalg.eigh(frame.normalized_operator)
    expected = [redundancy_at(frame, V @ np.sqrt(w)) for w in weights]
    assert values.shape == (count,)
    assert np.abs(values - expected).max() <= 1e-12 * eigenvalues[-1]


@pytest.mark.parametrize("seed", range(20))
def test_redundancy_samples_keep_the_law_of_the_quadratic_forms(seed):
    frame = law_frame(seed)
    values = redundancy_samples(frame, np.random.default_rng([seed, 1]), 20_000)
    reference = reference_redundancy_samples(frame, np.random.default_rng([seed, 2]), 20_000)
    assert ks_distance(values, reference) < 0.02


@pytest.mark.parametrize("n", [2, 5, 16])
def test_redundancy_samples_of_a_parseval_family_are_one(n):
    values = redundancy_samples(example_frame("7.2", n), np.random.default_rng(n), 500)
    assert np.abs(values - 1.0).max() <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_normalized_spectrum_ends_are_the_eigenrange(seed):
    frame = seeded_frame(seed)
    spectrum = frame.normalized_spectrum
    expected = hermitian_eigenrange(frame.normalized_operator)
    assert (spectrum[0], spectrum[-1]) == expected
    assert redundancy_range(frame) == expected
    assert not spectrum.flags.writeable


@pytest.mark.parametrize("count", [0, -3])
def test_redundancy_samples_reject_bad_counts_like_the_reference(count):
    frame = seeded_frame(0)
    message = f"need dim >= 1 and count >= 1, got {frame.ambient_dim}, {count}"
    with pytest.raises(DimensionMismatch) as expected:
        reference_redundancy_samples(frame, np.random.default_rng(0), count)
    assert str(expected.value) == message
    with pytest.raises(DimensionMismatch, match=message):
        redundancy_samples(frame, np.random.default_rng(0), count)


def reference_one_shot_samples(frame, rng, count):
    """``redundancy_samples`` before it drew in blocks: one ``count`` x n draw of sphere weights."""
    return sphere_weights(rng, frame.ambient_dim, count, frame.field) @ frame.normalized_spectrum


def sample_block_rows(n):
    """Rows per block of ``redundancy_samples``: the largest power of two with ``8 n rows <= CHUNK_BYTES``."""
    return 1 << (max(1, fusion.CHUNK_BYTES // (8 * n)).bit_length() - 1)


BLOCKED_SAMPLES_SCRIPT = """
import json
import numpy as np
from ffk.generators import random_fusion_frame
from ffk.fusion import redundancy_samples
from test_differential import reference_one_shot_samples, sample_block_rows

differ = []
for n in (1, 5, 64, 96, 128):
    for field in ("real", "complex"):
        frame = random_fusion_frame(np.random.default_rng(n), n, max(2, n // 2), None, field)
        rows = sample_block_rows(n)
        for count in (1, rows - 1, rows, rows + 1, 3 * rows + 7):
            one_shot = reference_one_shot_samples(frame, np.random.default_rng([n, count]), count)
            blocked = redundancy_samples(frame, np.random.default_rng([n, count]), count)
            if blocked.tobytes() != one_shot.tobytes():
                differ.append([n, field, count])
print(json.dumps(differ))
"""


def test_redundancy_samples_equal_the_one_shot_draw():
    # A one-shot product's bits depend on where a multithreaded BLAS splits
    # its rows, so both run with one BLAS thread, in a fresh process.  At
    # n = 96, 8 n does not divide CHUNK_BYTES: blocks of 170 rows would
    # split the small groups in which BLAS multiplies rows.
    tests, src = Path(__file__).resolve().parent, Path(fusion.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_SAMPLES_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def traced_peak(call):
    """Peak bytes that ``tracemalloc`` sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_redundancy_samples_hold_one_block_at_a_time(field):
    # The one-shot draw held 24.9 MiB (complex) and 48.8 MiB (real).
    frame = library_scale_frame(1, 64, 40, field)
    assert traced_peak(lambda: redundancy_samples(frame, np.random.default_rng(0), 50_000)) < 2 * 2**20


def test_greedy_erasure_holds_no_member_stack():
    frame = library_scale_frame(2, 64, 48, COMPLEX)
    stack = frame.member_count * frame.ambient_dim**2 * np.dtype(complex).itemsize  # N x n x n: 3.0 MiB
    erasure_certificate(seeded_frame(0), mode="greedy")  # first calls of some numpy routines import modules
    assert traced_peak(lambda: erasure_certificate(frame, mode="greedy")) < stack


def all_exact_frame(field):
    """n = 128 and 12 members with no Gram cutoff (``c <= 0``), so every removal the dimension test leaves is exact.

    Blocks of 16 axes of a random basis cover all but its last axis once,
    three random 16-dimensional subspaces of their span add redundancy, and
    a weak line on the last axis puts ``B / A`` near ``1 / rank_rel``.
    """
    rng = np.random.default_rng(26)
    n = 128
    U = random_unitary(rng, n, field)
    spans = [(U[:, a : min(a + 16, n - 1)], 1.0) for a in range(0, n - 1, 16)]
    spans += [(U[:, :-1] @ random_subspace(rng, n - 1, 16, field), 1.0) for _ in range(3)]
    return fusion.build_fusion_frame(spans + [(U[:, -1:], np.sqrt(12 * fusion.DEFAULT_TOLERANCE.rank_rel))], n)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_exhaustive_erasure_exact_path_holds_no_member_stack(field):
    frame = all_exact_frame(field)
    assert frame.member_count == 12 and fusion._gram_cutoff(frame) <= 0.0
    stack = frame.member_count * frame.ambient_dim**2 * frame.synthesis.itemsize  # N x n x n: 1.5 or 3.0 MiB
    assert erasure_certificate(frame, 3, "exhaustive").certified == 3
    erasure_certificate(seeded_frame(0), mode="exhaustive")  # first calls of some numpy routines import modules
    assert traced_peak(lambda: erasure_certificate(frame, 3, "exhaustive")) < stack


def test_exhaustive_erasure_merged_pass_holds_one_chunk_at_a_time(monkeypatch):
    # 22 planes in C^16, budget 5: 462 union blocks of 20 x 20, 2.8 MiB at
    # once; by chunks, the Cholesky stacks stay within CHUNK_BYTES.
    frame = benchmark_shape_frame(1, 16, (2,) * 22, COMPLEX)
    assert erasure_certificate(frame, 5, "exhaustive").universal == 5  # also caches S's range and QR factor
    shapes = spy_gram_shapes(monkeypatch)
    peak = traced_peak(lambda: erasure_certificate(frame, 5, "exhaustive"))
    assert {side for _, side in shapes} == {20} and sum(rows for rows, _ in shapes) == math.comb(11, 5)
    assert peak < 4 * fusion.CHUNK_BYTES


def unit_weight_frame(seed):
    """A random fusion frame of dimension 2-16, the field alternating with the seed, every weight 1."""
    rng = np.random.default_rng(seed)
    frame = random_fusion_frame(rng, n=int(rng.integers(2, 17)), field=(REAL, COMPLEX)[seed % 2])
    return FusionFrame(reference_member_bases(frame), np.ones(frame.member_count))


def near_singular_unit_weight_frame(seed, eta):
    """:func:`unit_weight_frame` with every subspace squeezed by ``eta`` along one random direction."""
    frame = unit_weight_frame(seed)
    U = random_unitary(np.random.default_rng([seed, 1]), frame.ambient_dim, frame.field)
    squeeze = (U * np.append(np.ones(frame.ambient_dim - 1), eta)) @ U.conj().T
    bases = [orthonormalize(squeeze @ B) for B in reference_member_bases(frame)]
    return FusionFrame(bases, np.ones(frame.member_count))


def reference_redundancy(frame, x):
    """``sum_i ||P_i x||^2 = ||Q* x||^2`` at a unit ``x``: a sum of squares, accurate where ``x* S1 x`` is small."""
    return float(np.sum(np.abs(frame.bases.conj().T @ x) ** 2))


def reference_pencil(frame, dual):
    """Extremes of ``R_dual / R_frame`` and unit vectors attaining them, from the SVD of the frame's stacked bases.

    ``Q = U diag(sigma) V*`` gives ``S1_frame = L L*`` with ``L = U
    diag(sigma)``; the pencil's eigenvalues are the squared singular values
    of ``L^-1 Q_dual = W diag(s) Z*``, and its eigenvectors are ``L^-* W``.
    """
    U, sigma, _ = np.linalg.svd(frame.bases, full_matrices=False)
    W, s, _ = np.linalg.svd((U.conj().T @ dual.bases) / sigma[:, None], full_matrices=False)
    X = U @ (W / sigma[:, None])
    X /= np.linalg.norm(X, axis=0)
    return (s[-1] ** 2, s[0] ** 2), X[:, -1], X[:, 0]


def reference_sampled_ratio(frame, dual, rng, count):
    """The sweep ``alternate_dual_bounds`` replaced: ``R_dual / R_frame`` at ``count`` Haar unit vectors."""
    X = sample_unit_vectors(rng, frame.ambient_dim, count, frame.field)
    return quadratic_forms(X, dual.normalized_operator) / quadratic_forms(X, frame.normalized_operator)


def reference_sampled_equivalence_gap(a, b, X):
    """The check ``redundancy_equivalent`` dropped: the largest gap between the redundancies of ``a`` and ``b`` at
    the unit rows of ``X``, and the bound it must respect, ``||Sa - Sb||_2`` plus the roundoff of two quadratic forms."""
    Sa, Sb = a.normalized_operator, b.normalized_operator
    gap = np.abs(quadratic_forms(X, Sa) - quadratic_forms(X, Sb)).max()
    roundoff = 4 * (a.ambient_dim + 2) * np.finfo(float).eps * (np.linalg.norm(Sa) + np.linalg.norm(Sb))
    return gap, np.linalg.norm(Sa - Sb, 2) + roundoff


def assert_ratio_extremes_match(frame, dual, seed):
    check = alternate_dual_bounds(frame, dual)
    ends, x_low, x_high = reference_pencil(frame, dual)
    slack = 1e-12 * np.abs(ends).max()
    assert np.abs(np.subtract(check.observed, ends)).max() <= slack
    attained = [reference_redundancy(dual, x) / reference_redundancy(frame, x) for x in (x_low, x_high)]
    assert np.abs(np.subtract(check.observed, attained)).max() <= slack
    assert frame.tol.within(reference_sampled_ratio(frame, dual, np.random.default_rng(seed), 1000), *check.observed)
    assert check.ratios_hold == frame.tol.within(ends, check.lower, check.upper)


@pytest.mark.parametrize("seed", range(300))
def test_dual_ratio_extremes_are_the_pencil_extremes(seed):
    frame = unit_weight_frame(seed)
    assert_ratio_extremes_match(frame, canonical_dual_fusion(frame), seed)


@pytest.mark.parametrize("eta", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("seed", range(12))
def test_dual_ratio_extremes_on_near_singular_frames(seed, eta):
    # S1's condition number reaches about 7e5; where the canonical dual fails
    # its reconstruction check the answer is NotADual, never a numpy error.
    frame = near_singular_unit_weight_frame(seed, eta)
    dual = canonical_dual_fusion(frame)
    if verify_alternate_dual(frame, dual).is_dual:
        assert_ratio_extremes_match(frame, dual, seed)
    else:
        with pytest.raises(NotADual):
            alternate_dual_bounds(frame, dual)


@pytest.mark.parametrize("eta", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", range(12))
def test_canonical_dual_passes_its_own_check_near_the_cutoff(seed, eta):
    # B / A reaches about 1.7e9; a solve whose error grows like cond(S) eps
    # left residuals up to 4e-4 here, against recon_abs = 1e-8.
    frame = near_singular_unit_weight_frame(seed, eta)
    assert frame.is_frame
    assert verify_alternate_dual(frame, canonical_dual_fusion(frame)).is_dual


def conditioned_vector_frame(rng, field, condition):
    """:func:`random_vector_frame` with its singular values replaced by a geometric run: ``B / A = condition``."""
    frame = random_vector_frame(rng, field=field)
    U, _, Vh = np.linalg.svd(frame.synthesis, full_matrices=False)
    sigma = np.geomspace(1.0, condition**-0.5, frame.ambient_dim)
    return VectorFrame.from_matrix((U * sigma) @ Vh)


@pytest.mark.parametrize("decades", [3, 5, 7, 9])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(6))
def test_alternate_duals_reconstruct_up_to_the_cutoff(seed, field, decades):
    rng = np.random.default_rng([seed, decades])
    frame = conditioned_vector_frame(rng, field, 10.0**decades)
    low, high = frame._operator_range
    assert frame.is_frame and abs(math.log10(high / low) - decades) < 0.01
    eta = list(gaussian(rng, (frame.member_count, frame.ambient_dim), field))
    assert frame.tol.reconstructs(dual_residual(frame, alternate_dual(frame, eta)))


@pytest.mark.parametrize("seed", range(20))
def test_equivalent_families_keep_sampled_redundancies_within_the_operator_gap(seed):
    rng = np.random.default_rng(seed)
    frame = random_fusion_frame(rng, n=int(rng.integers(2, 17)))
    order = rng.permutation(frame.member_count)
    weights = rng.uniform(0.2, 5.0, frame.member_count)
    bases = reference_member_bases(frame)
    permuted = FusionFrame([bases[i] for i in order], weights)
    assert redundancy_equivalent(frame, permuted)
    X = sample_unit_vectors(rng, frame.ambient_dim, 256, frame.field)
    gap, bound = reference_sampled_equivalence_gap(frame, permuted, X)
    assert gap <= bound


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


# --- documents: rows converted and rendered one entry at a time ------------

def reference_format_float(value):
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    text = format(float(value), ".17g")
    if text.lstrip("-").isdigit():
        text += ".0"
    return text


def reference_render(value, indent=0):
    """``canonical_json`` without its final newline, one call per node."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return reference_format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            return "[" + ", ".join(reference_render(x, 0) for x in items) + "]"
        body = ",\n".join(inner + reference_render(x, indent + 1) for x in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {reference_render(item, indent + 1)}" for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_entry_tree(value, field):
    if field == REAL:
        return float(np.real(value))
    z = complex(value)
    return [z.real, z.imag]


def reference_parse_vector_rows(rows, field, dimension, path):
    """Rows as tuples of Python scalars, parsed and checked entry by entry."""
    rows = _expect_list(rows, path)
    if not rows:
        raise ParseError(f"{path}: expected at least one vector")
    parsed = []
    for r, row in enumerate(rows):
        entries = _expect_list(row, f"{path}[{r}]")
        if len(entries) != dimension:
            raise ParseError(f"{path}[{r}]: vector has {len(entries)} entries, expected {dimension}")
        parsed.append(tuple(_parse_entry(entry, field, f"{path}[{r}][{e}]") for e, entry in enumerate(entries)))
    return tuple(parsed)


def reference_rows_array(rows, field, dimension, path):
    dtype = np.complex128 if field == COMPLEX else np.float64
    return np.array(reference_parse_vector_rows(rows, field, dimension, path), dtype=dtype)


def reference_round_trip(tree):
    """The canonical text of a document tree, parsed and rendered per entry."""
    field, dimension = tree["field"], tree["dimension"]

    def rows(value, path):
        parsed = reference_parse_vector_rows(value, field, dimension, path)
        return [[reference_entry_tree(z, field) for z in row] for row in parsed]

    out = {
        "schema_version": tree["schema_version"],
        "field": field,
        "dimension": dimension,
        "subspaces": [
            {"weight": float(m["weight"]), "vectors": rows(m["vectors"], f"subspaces[{i}].vectors")}
            for i, m in enumerate(tree["subspaces"])
        ],
    }
    if tree.get("local_frames") is not None:
        out["local_frames"] = [rows(value, f"local_frames[{i}]") for i, value in enumerate(tree["local_frames"])]
    return reference_render(out) + "\n"


def assert_codec_matches_reference(text):
    tree = json.loads(text)
    field, dimension = tree["field"], tree["dimension"]
    expected = [
        reference_rows_array(m["vectors"], field, dimension, f"subspaces[{i}].vectors")
        for i, m in enumerate(tree["subspaces"])
    ]
    expected += [
        reference_rows_array(rows, field, dimension, f"local_frames[{i}]")
        for i, rows in enumerate(tree.get("local_frames") or ())
    ]
    document = FrameDocument.from_json_text(text)
    arrays = list(document.vectors) + list(document.local_frames or ())
    assert len(arrays) == len(expected)
    for got, want in zip(arrays, expected):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert not got.flags.writeable
        # Bytes tell -0.0 from 0.0.
        assert got.tobytes() == want.tobytes()
    assert document.to_json_text() == reference_round_trip(tree)


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, 1e-7, 0.1, 1.0 / 3.0, -2.5, 1.7976931348623157e308)
SPECIAL_ENTRIES = SPECIAL_FLOATS + (0, -3, 2**53 + 1, 10**20)
NUMBERS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False) | st.integers()
TREES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | NUMBERS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(TREES | st.lists(st.lists(NUMBERS, min_size=1, max_size=6), max_size=4))
def test_canonical_json_matches_the_per_node_render(tree):
    assert canonical_json(tree) == reference_render(tree) + "\n"


# Entries that one "%.17g" template per row must not print, or must print
# as _format_number does: integral floats (which need ".0"), signed zeros,
# values near 1e16 and 1e17, subnormals, ints and bools.
ROW_ENTRIES = (
    2.0, -3.0, 0.0, -0.0, 1e16, 1e16 + 2.0, 9.999999999999998e16, 1e17, -1.2e17, 1e17 + 0.5,
    123456789.125, 5e-324, -2.2250738585072014e-308, 1e-5, 0.1, 7, -1, 10**17, 10**20, True, False,
)


@pytest.mark.parametrize("entry", ROW_ENTRIES, ids=repr)
def test_float_rows_match_the_per_node_render(entry):
    row = [0.1, entry, -2.5]
    pairs = [[0.1, -2.5], [entry, 1e-300], [1.0 / 3.0, 0.75]]
    for tree in (row, pairs, [row, row], {"vectors": [pairs, pairs]}, {"weight": entry, "vectors": [[entry]]}):
        assert canonical_json(tree) == reference_render(tree) + "\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_finite_floats_like_the_reference(value):
    for tree in (value, [1.0, value], {"a": [[0, value]]}, [[0.5, 0.25], [value, 0.5]], [[0.5, value]]):
        with pytest.raises(ValueError, match="non-finite"):
            reference_render(tree)
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(tree)


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
GOLDEN_FRAMES = sorted(
    path.name for path in GOLDEN_INPUTS.glob("*.json") if not path.name.endswith((".at.json", ".operator.json"))
)


@pytest.mark.parametrize("name", GOLDEN_FRAMES)
def test_document_rows_match_the_per_entry_codec_on_golden_inputs(name):
    assert_codec_matches_reference((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN_INPUTS.glob("*.operator.json")))
def test_operator_rows_match_the_per_entry_codec_on_golden_inputs(name):
    frame = json.loads((GOLDEN_INPUTS / name.replace(".operator.json", ".json")).read_text(encoding="utf-8"))
    rows = json.loads((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))["rows"]
    args = (rows, frame["field"], frame["dimension"], "rows")
    got, want = _parse_rows(*args), reference_rows_array(*args)
    assert got.dtype == want.dtype and not got.flags.writeable
    assert got.tobytes() == want.tobytes()


def seeded_document_tree(seed):
    """A document tree whose entries mix Gaussian doubles, signed zeros,
    subnormals, large doubles and JSON integers; every third has local frames."""
    rng = np.random.default_rng(seed)
    field = COMPLEX if seed % 2 else REAL
    n = int(rng.integers(1, 6))

    def number():
        if rng.random() < 0.4:
            return SPECIAL_ENTRIES[int(rng.integers(len(SPECIAL_ENTRIES)))]
        return float(rng.standard_normal())

    def rows():
        count = int(rng.integers(1, 4))
        return [[[number(), number()] if field == COMPLEX else number() for _ in range(n)] for _ in range(count)]

    members = int(rng.integers(1, 5))
    tree = {
        "schema_version": "ffk/1",
        "field": field,
        "dimension": n,
        "subspaces": [{"weight": float(rng.uniform(0.5, 2.0)), "vectors": rows()} for _ in range(members)],
    }
    if seed % 3 == 0:
        tree["local_frames"] = [rows() for _ in range(members)]
    return tree


@pytest.mark.parametrize("seed", range(100))
def test_document_rows_match_the_per_entry_codec_on_seeded_documents(seed):
    assert_codec_matches_reference(json.dumps(seeded_document_tree(seed)))


BAD_ENTRIES = (True, "1.0", None, 10**400, -(10**400), float("nan"), float("inf"), [1.0], [], [[1.0]], {"re": 1.0})


@pytest.mark.parametrize("seed", range(100))
def test_parse_rows_raises_the_reference_error(seed):
    # One or two corruptions: the first in document order must be cited.
    rng = np.random.default_rng(seed)
    tree = seeded_document_tree(seed)
    field, dimension = tree["field"], tree["dimension"]
    rows = tree["subspaces"][0]["vectors"]
    for _ in range(int(rng.integers(1, 3))):
        r, e = int(rng.integers(len(rows))), int(rng.integers(dimension))
        bad = BAD_ENTRIES[int(rng.integers(len(BAD_ENTRIES)))]
        kind = int(rng.integers(4))
        if kind == 0:
            rows[r] = bad
        elif kind == 1 and isinstance(rows[r], list) and len(rows[r]) == dimension:
            rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + [0.0]
        elif isinstance(rows[r], list) and len(rows[r]) > e:
            rows[r][e] = [bad, 0.0] if field == COMPLEX and kind == 2 else bad
        else:
            rows[r] = bad
    with pytest.raises(ParseError) as expected:
        reference_parse_vector_rows(rows, field, dimension, "v")
    with pytest.raises(ParseError) as got:
        _parse_rows(rows, field, dimension, "v")
    assert str(got.value) == str(expected.value)


# --- cutoff predicates --------------------------------------------------------

SPECTRUM_ENDS = st.sampled_from((0.0, 1e-10, 1.0 - 8e-10, 1.0, 1.0 + 8e-10, 4.0, 1e8)) | st.floats(-1.0, 1e12)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.tuples(SPECTRUM_ENDS, SPECTRUM_ENDS).map(sorted), SPECTRUM_ENDS)
def test_tolerance_predicates_match_the_comparisons_they_replaced(spectrum, value):
    """Each predicate against the hand-written expression of its call sites, for ``low <= high``."""
    tol = Tolerance()
    low, high = spectrum
    is_frame = low > tol.rank_rel * high
    assert tol.floor(high) == tol.rank_rel * high
    assert tol.spans(low, high) == is_frame == (not (high <= 0.0 or low <= tol.rank_rel * high))
    tight = is_frame and (high - low) <= tol.eig_rel * high
    assert (is_frame and tol.flat(low, high)) == tight
    assert tol.parseval(low, high) == (tight and abs(high - 1.0) <= tol.eig_rel)
    slack = tol.eig_rel * max(1.0, high)
    assert tol.within(value, -np.inf, high) == (value <= high + slack)
    if low > 0.0:  # the brackets [lower, upper] of the ratio, image and energy checks
        assert tol.within(value, low, high) == (low - slack <= value <= high + slack)
        assert tol.within(value, low, np.inf) == (value >= low - tol.eig_rel * max(1.0, low))


# --- vector frames and systems: state computed once per object ---------------


def reference_frame_operator(frame):
    return frame.synthesis @ frame.synthesis.conj().T


def reference_normalized_frame_operator(frame):
    unit = frame.synthesis / np.linalg.norm(frame.synthesis, axis=0)[None, :]
    return unit @ unit.conj().T


def reference_dual_matrix(frame):
    return solve_hermitian_positive(reference_frame_operator(frame), frame.synthesis, frame.tol)


def reference_analysis(frame):
    """``(bounds, redundancy, tight, equal_norm)`` of a vector frame, each from its per-call operator or norms."""
    tol = frame.tol
    low, high = hermitian_eigenrange(reference_frame_operator(frame), tol)
    norms = np.linalg.norm(frame.synthesis, axis=0)
    redundancy = hermitian_eigenrange(reference_normalized_frame_operator(frame), tol)
    return FrameBounds(low, high), redundancy, tol.flat(low, high), tol.flat(norms.min(), norms.max())


def reference_sandwich(frame):
    tol = frame.tol
    low, high = hermitian_eigenrange(reference_frame_operator(frame), tol)
    k = high / low
    r_minus, r_plus = hermitian_eigenrange(reference_normalized_frame_operator(frame), tol)
    dual = VectorFrame.from_matrix(reference_dual_matrix(frame))
    d_minus, d_plus = hermitian_eigenrange(reference_normalized_frame_operator(dual), tol)
    ratio_minus, ratio_plus = d_minus / r_minus, d_plus / r_plus
    holds = tol.within((ratio_minus, ratio_plus), k**-2, k**2)
    return SandwichCheck(k**-2, ratio_minus, ratio_plus, k**2, holds)


def reference_alternate_dual_matrix(frame, eta):
    H = np.stack(eta, axis=1).astype(frame.synthesis.dtype)
    D = reference_dual_matrix(frame)
    return D + H - H @ (frame.synthesis.conj().T @ D)


def reference_local_families(system):
    """Each local family's vectors as its own contiguous ``n x k`` matrix."""
    offsets = system.local_offsets
    return [np.ascontiguousarray(system.local_synthesis[:, a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


def reference_locals_orthogonal(system):
    for local in reference_local_families(system):
        gram = local.conj().T @ local
        off = gram - np.diag(np.diag(gram))
        if not system.frame.tol.negligible(np.abs(off), np.diag(gram).real.max()):
            return False
    return True


def reference_vector_redundancy(vectors, x):
    """``sum_j |<x, f_j>|^2 / ||f_j||^2`` over the columns ``f_j`` of ``vectors``, summed vector by vector."""
    coefficients = vectors.conj().T @ x
    return float(np.sum(np.abs(coefficients) ** 2 / np.linalg.norm(vectors, axis=0) ** 2))


def reference_local_parseval_failure(system):
    for i, (basis, local) in enumerate(zip(reference_member_bases(system.frame), reference_local_families(system))):
        defect = np.abs(local @ local.conj().T - projection(basis)).max()
        if not system.frame.tol.negligible(defect, 1.0):
            return f"local family {i} misses its projection by {defect:.3e}"
    return None


DUAL_DRIFT = 32  # the worst seeded gap is about 1.4 (B / A) eps relative to the reference


def assert_within_conditioning(got, want, frame):
    """``|got - want| <= DUAL_DRIFT (B / A) eps |want|``, Frobenius norms: the reference solve loses ``cond S``."""
    low, high = frame._operator_range
    slack = DUAL_DRIFT * (high / low) * np.finfo(float).eps
    assert np.linalg.norm(np.subtract(got, want)) <= slack * np.linalg.norm(want)


def exact(value):
    """The bytes of every number in a result, nested dataclasses and tuples included."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(exact(item) for item in value)
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(40))
def test_vector_frame_state_matches_the_per_call_operators(seed, field):
    rng = np.random.default_rng(seed)
    frame = random_vector_frame(rng, field=field)
    operator = reference_frame_operator(frame)
    assert frame.operator.tobytes() == operator.tobytes()
    assert frame.normalized_operator.tobytes() == reference_normalized_frame_operator(frame).tobytes()
    assert_within_conditioning(frame.dual_synthesis, reference_dual_matrix(frame), frame)
    assert exact(frame._operator_range) == exact(hermitian_eigenrange(operator, frame.tol))
    for cached in (frame.weights, frame.operator, frame.normalized_operator, frame.dual_synthesis):
        assert not cached.flags.writeable
    assert frame.dual_synthesis is frame.dual_synthesis


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(40))
def test_vector_frame_analyses_match_the_per_call_operators(seed, field):
    rng = np.random.default_rng(seed)
    frame = random_vector_frame(rng, field=field)
    eta = list(sample_unit_vectors(rng, frame.ambient_dim, frame.member_count, field) * rng.uniform(0.1, 3.0))
    sandwich, reference = dual_redundancy_sandwich(frame), reference_sandwich(frame)
    ends = (sandwich.lower, sandwich.upper, sandwich.holds)
    assert exact(ends) == exact((reference.lower, reference.upper, reference.holds))
    for ratio, want in ((sandwich.ratio_minus, reference.ratio_minus), (sandwich.ratio_plus, reference.ratio_plus)):
        assert_within_conditioning(ratio, want, frame)
    assert_within_conditioning(canonical_dual(frame).synthesis, reference_dual_matrix(frame), frame)
    assert_within_conditioning(alternate_dual(frame, eta).synthesis, reference_alternate_dual_matrix(frame, eta), frame)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("seed", range(40))
def test_fusion_analyses_of_a_vector_frame_are_its_vector_analyses(seed, field):
    """A vector frame is the fusion frame of its lines weighted by the norms: the fusion analyses apply as they stand."""
    frame = random_vector_frame(np.random.default_rng(seed), field=field)
    report = classify(frame)  # a vector frame's weights are its norms: uniform_weights is equal_norm
    fields = (report.bounds, report.redundancy, report.tight, report.uniform_weights)
    assert exact(fields) == exact(reference_analysis(frame))
    assert excess(frame) == frame.member_count - frame.ambient_dim
    lines = build_fusion_frame([(phi[:, None], np.linalg.norm(phi)) for phi in frame.synthesis.T], frame.ambient_dim)
    assert erasure_certificate(frame, 2) == erasure_certificate(lines, 2)


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e4, 1e7])
@pytest.mark.parametrize("kind", ["orthogonal", "parseval", "generic"])
def test_system_local_flags_match_the_per_check_tests(kind, scale):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        frame = random_fusion_frame(rng, n=4)
        families = [[scale * v for v in vs] for vs in random_local_vectors(rng, frame, kind)]
        system = FusionFrameSystem(frame, families)
        assert system.orthogonal_locals == reference_locals_orthogonal(system), seed
        try:
            parseval_equivalences(system)
            failure = None
        except LocalNotParseval as exc:
            failure = str(exc)
        assert failure == reference_local_parseval_failure(system), seed
        for x in sample_unit_vectors(rng, frame.ambient_dim, 3, frame.field):
            check = check_local_additivity(system, x)
            local_sum = sum(reference_vector_redundancy(np.stack(vs, axis=1), x) for vs in families)
            assert exact((check.fusion_value, check.local_sum)) == exact((redundancy_at(frame, x), local_sum)), seed
