#!/usr/bin/env python3
"""Random property sweep over generated frames.

For each generated frame the sweep checks:
  * sampled redundancy values stay inside the computed extremes,
  * adjoining an orthonormal fusion basis shifts both extremes by one,
  * the canonical dual satisfies the reconstruction identity, here and
    on the near-cutoff and library-shaped frames below, so the round
    trip is checked up to the rank cutoff,
  * invertible images, of condition log-uniform in [1, 100], respect the
    conditioning brackets,
  * over every swept frame, the near-cutoff and library-shaped ones
    below included, an ``orthogonal`` and a ``parseval`` system
    (``random_system``, seeded from ``--seed``): the orthogonal one has
    ``orthogonal_locals``, each system whose local families are
    orthogonal is additive at SYSTEM_POINTS sampled unit vectors
    (``check_local_additivity``), and the Parseval one's
    ``parseval_equivalences`` is consistent;
  * for frames with at most 22 members, the greedy and exhaustive
    erasure certificates bracket each other soundly: greedy certified
    <= exhaustive certified, exhaustive universal <= greedy universal,
    and weight_rule <= certified in both;
  * on those frames, the merged and near-cutoff ones below included, and
    on the library-shaped ones below, ``greedy_pick`` tallies the greedy
    certificates whose ``universal`` equals the
    weakest-path loop's of ``reference_greedy_levels`` in
    ``tests/test_differential.py``, whose ``certified`` equals the exact
    value (the exhaustive certificate's, or on the library-shaped frames
    the dimension bound ``dimension_bound``), and whose ``certified`` is
    at least the count of that function's strongest-path loop;
  * for frames with at most REFERENCE_MEMBER_LIMIT members, the
    exhaustive certificate equals that of ``reference_exhaustive_levels``
    in ``tests/test_differential.py``, one eigvalsh per removed subset;
    ``merged_cover`` tallies those whose top level the unions of merged
    member groups certified (``spy_top_passes`` of the test module), and
    the sweep fails if there are none; ``witness_short`` tallies those
    whose spanning witness stopped short of the dimension bound ``hi``,
    which leaves the levels above it to the survivor scan
    (``spy_witness_levels``); it is a count and fails nothing;
  * both erasure checks also run on MERGED_FRAMES mixed-dimension frames
    seeded from ``--seed`` (n 3-6, 10-12 members of dimension 1-3, real
    and complex in turn), whose full budgets mostly pack into merged
    groups;
  * both erasure checks also run on NEAR_CUTOFF_FRAMES frames whose
    removals sit near the ``spans`` cutoff, seeded from ``--seed``: in
    turn ``weak_last_axis_frame`` of the test module (its strong
    member's removal leaves lambda_min / lambda_max = ratio * rank_rel,
    ratio 0.5-3) and ``weak_lines_frame`` (2-4 weak lines whose weights
    put lambda_min / lambda_max of S at 1-3 times rank_rel);
  * ``greedy_pick`` also runs on LIBRARY_FRAMES library-shaped frames
    seeded from ``--seed`` (n 64-128, N 40-48, subspace dimensions 3 and
    4, real and complex in turn), where the per-member loops take seconds
    each, too slow for the test suite;
  * on the same library-shaped frames, ``redundancy_samples`` (sphere
    weights against the spectrum of S1) keeps the law of
    ``reference_redundancy_samples`` (quadratic forms of S1 at Haar unit
    vectors): the two-sample Kolmogorov-Smirnov distance between
    SAMPLING_LAW_SAMPLES independent draws of each is below
    SAMPLING_LAW_KS_LIMIT;
  * on each generated frame with every weight set to 1 and its canonical
    dual, ``alternate_dual_bounds``' exact ``observed`` range contains
    ``reference_sampled_ratio`` (R_dual / R_frame at
    ALTERNATE_RATIO_SAMPLES Haar unit vectors), and ``ratios_hold`` is
    the claimed bracket's containment of ``reference_pencil``'s extremes.
The near-cutoff frames and the last four checks import the test module,
so they need the ``test`` extra (pytest).

Usage:
    python scripts/property_sweep.py [--count 100] [--seed 0] [--field real|complex]
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffk.duality import alternate_dual_bounds, canonical_dual_fusion, verify_alternate_dual
from ffk.fusion import (
    EXHAUSTIVE_MEMBER_LIMIT,
    ErasureCertificate,
    FusionFrame,
    erasure_certificate,
    operator_image_report,
    redundancy_range,
    redundancy_samples,
    union,
)
from ffk.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthogonal_decomposition,
    random_subspace,
    random_system,
)
from ffk.numerics import COMPLEX, DEFAULT_TOLERANCE, REAL, _column_blocks, sample_unit_vectors
from ffk.systems import check_local_additivity, parseval_equivalences

LIBRARY_FRAMES = 4
MERGED_FRAMES = 4
NEAR_CUTOFF_FRAMES = 24
REFERENCE_MEMBER_LIMIT = 12  # the exhaustive reference runs one n x n eigvalsh per subset
MAX_DIM = 6  # largest ambient dimension of the sampled frames
SAMPLING_LAW_SAMPLES = 20_000
SAMPLING_LAW_KS_LIMIT = 0.02  # exceeded by chance with probability about 7e-4 at this sample size
ALTERNATE_RATIO_SAMPLES = 1000
SYSTEM_POINTS = 8  # sampled unit vectors per system's additivity check


@dataclass(frozen=True)
class SweepConfig:
    count: int = 100
    seed: int = 0
    field: str | None = None
    samples: int = 64


def library_shaped_frame(rng: np.random.Generator, field: str) -> FusionFrame:
    n = int(rng.choice([64, 96, 128]))
    N = int(rng.integers(40, 49))
    weights = rng.uniform(0.5, 2.0, size=N)
    return FusionFrame([random_subspace(rng, n, 3 + i % 2, field) for i in range(N)], weights)


def erasure_brackets(frame: FusionFrame) -> tuple[bool, ErasureCertificate, ErasureCertificate]:
    """Whether the greedy and exhaustive certificates bracket each other soundly, and the two certificates."""
    greedy = erasure_certificate(frame, mode="greedy")
    exhaustive = erasure_certificate(frame, mode="exhaustive")
    sound = (
        greedy.certified <= exhaustive.certified
        and exhaustive.universal <= greedy.universal
        and all(c.weight_rule <= c.certified for c in (greedy, exhaustive))
    )
    return sound, greedy, exhaustive


def check_dual(frame: FusionFrame, index, tallies: dict, failures: list) -> None:
    """Tally whether the frame's canonical dual passes ``verify_alternate_dual``."""
    if verify_alternate_dual(frame, canonical_dual_fusion(frame)).is_dual:
        tallies["dual"] += 1
    else:
        failures.append((index, "dual"))


def check_systems(frame: FusionFrame, rng: np.random.Generator, index, tallies: dict, failures: list) -> None:
    """Tally whether an orthogonal and a Parseval system over the frame pass the system checks."""
    orthogonal, parseval = random_system(rng, frame, "orthogonal"), random_system(rng, frame, "parseval")
    X = sample_unit_vectors(rng, frame.ambient_dim, SYSTEM_POINTS, frame.field)
    additive = all(
        check_local_additivity(system, x).equal
        for system in (orthogonal, parseval)
        if system.orthogonal_locals
        for x in X
    )
    if orthogonal.orthogonal_locals and additive and parseval_equivalences(parseval).consistent:
        tallies["systems"] += 1
    else:
        failures.append((index, "systems"))


def run_sweep(config: SweepConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    checks = (
        "containment", "union_shift", "dual", "operator", "erasure",
        "exhaustive_reference", "merged_cover", "witness_short", "greedy_pick", "sampling_law", "alternate_ratio",
        "systems",
    )
    system_rng = np.random.default_rng([config.seed, 6])
    tallies = dict.fromkeys(checks, 0)
    failures = []
    small = []  # (index, frame, exhaustive certificate) of frames the exhaustive reference can afford
    greedy_checks = []  # (index, frame, greedy certificate, exact certified) of frames greedy_pick checks
    unit_weight = []  # (index, frame with every weight 1)
    for index in range(config.count):
        n = int(rng.integers(2, MAX_DIM + 1))
        frame = random_fusion_frame(rng, n=n, field=config.field)

        low, high = redundancy_range(frame)
        values = redundancy_samples(frame, rng, config.samples)
        if values.min() >= low - 1e-9 and values.max() <= high + 1e-9:
            tallies["containment"] += 1
        else:
            failures.append((index, "containment"))

        basis = random_orthogonal_decomposition(rng, n, field=frame.field)
        lo2, hi2 = redundancy_range(union(frame, basis))
        if abs(lo2 - low - 1.0) <= 1e-9 and abs(hi2 - high - 1.0) <= 1e-9:
            tallies["union_shift"] += 1
        else:
            failures.append((index, "union_shift"))

        check_dual(frame, index, tallies, failures)
        check_systems(frame, system_rng, index, tallies, failures)

        operator = random_invertible(rng, n, frame.field, condition=float(10 ** rng.uniform(0, 2)))
        outcome = operator_image_report(frame, operator)
        if outcome.bounds_hold and outcome.redundancy_holds:
            tallies["operator"] += 1
        else:
            failures.append((index, "operator"))

        if frame.member_count <= EXHAUSTIVE_MEMBER_LIMIT:
            sound, greedy, exhaustive = erasure_brackets(frame)
            if sound:
                tallies["erasure"] += 1
            else:
                failures.append((index, "erasure"))
            greedy_checks.append((index, frame, greedy, exhaustive.certified))
            if frame.member_count <= REFERENCE_MEMBER_LIMIT:
                small.append((index, frame, exhaustive))
        unit = FusionFrame(_column_blocks(frame.bases, frame.offsets), np.ones(frame.member_count))
        unit_weight.append((index, unit))

    merged_rng = np.random.default_rng([config.seed, 7])
    for index in range(MERGED_FRAMES):
        n, members = int(merged_rng.integers(3, 7)), int(merged_rng.integers(10, 13))
        frame = random_fusion_frame(merged_rng, n, members, 3, config.field or (REAL, COMPLEX)[index % 2])
        sound, greedy, exhaustive = erasure_brackets(frame)
        if sound:
            tallies["erasure"] += 1
        else:
            failures.append((f"merged {index}", "erasure"))
        small.append((f"merged {index}", frame, exhaustive))
        greedy_checks.append((f"merged {index}", frame, greedy, exhaustive.certified))

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    import pytest
    from test_differential import (
        dimension_bound,
        ks_distance,
        reference_exhaustive_levels,
        reference_greedy_levels,
        reference_pencil,
        reference_redundancy_samples,
        reference_sampled_ratio,
        spy_top_passes,
        spy_witness_levels,
        weak_last_axis_frame,
        weak_lines_frame,
    )

    near_rng = np.random.default_rng([config.seed, 4])
    for index in range(NEAR_CUTOFF_FRAMES):
        if index % 2 == 0:
            field = config.field or (REAL, COMPLEX)[index // 2 % 2]
            n, ratio = int(near_rng.integers(2, 6)), near_rng.uniform(0.5, 3.0)
            frame = weak_last_axis_frame(near_rng, n, ratio, field, (1.0, 2.0))
        else:
            copies = int(near_rng.integers(2, 5))
            frame = weak_lines_frame(np.sqrt(near_rng.uniform(1.0, 3.0) * DEFAULT_TOLERANCE.rank_rel / copies), copies)
        check_dual(frame, f"near-cutoff {index}", tallies, failures)
        check_systems(frame, system_rng, f"near-cutoff {index}", tallies, failures)
        sound, greedy, exhaustive = erasure_brackets(frame)
        if sound:
            tallies["erasure"] += 1
        else:
            failures.append((f"near-cutoff {index}", "erasure"))
        small.append((f"near-cutoff {index}", frame, exhaustive))
        greedy_checks.append((f"near-cutoff {index}", frame, greedy, exhaustive.certified))

    with pytest.MonkeyPatch.context() as patch:
        passes, levels = spy_top_passes(patch), spy_witness_levels(patch)
        for index, frame, exhaustive in small:
            passes.clear()
            levels.clear()
            again = erasure_certificate(frame, exhaustive.budget, "exhaustive")  # its top passes and witness, seen
            if again == exhaustive == reference_exhaustive_levels(frame, exhaustive.budget):
                tallies["exhaustive_reference"] += 1
                tallies["merged_cover"] += (True, True) in passes
                tallies["witness_short"] += any(level < dimension_bound(frame, exhaustive.budget) for level in levels)
            else:
                failures.append((index, "exhaustive_reference"))
    if not tallies["merged_cover"]:
        failures.append(("all", "merged_cover"))

    ratio_rng = np.random.default_rng([config.seed, 5])
    for index, frame in unit_weight:
        dual = canonical_dual_fusion(frame)
        check = alternate_dual_bounds(frame, dual)
        sampled = reference_sampled_ratio(frame, dual, ratio_rng, ALTERNATE_RATIO_SAMPLES)
        exact_rule = frame.tol.within(reference_pencil(frame, dual)[0], check.lower, check.upper)
        if frame.tol.within(sampled, *check.observed) and check.ratios_hold == exact_rule:
            tallies["alternate_ratio"] += 1
        else:
            failures.append((index, "alternate_ratio"))

    library_rng = np.random.default_rng([config.seed, 1])
    for index in range(LIBRARY_FRAMES):
        frame = library_shaped_frame(library_rng, REAL if index % 2 == 0 else COMPLEX)
        check_dual(frame, f"library {index}", tallies, failures)
        check_systems(frame, system_rng, f"library {index}", tallies, failures)
        greedy = erasure_certificate(frame, mode="greedy")
        greedy_checks.append((f"library {index}", frame, greedy, dimension_bound(frame, greedy.budget)))
        values = redundancy_samples(frame, np.random.default_rng([config.seed, 2, index]), SAMPLING_LAW_SAMPLES)
        reference = reference_redundancy_samples(
            frame, np.random.default_rng([config.seed, 3, index]), SAMPLING_LAW_SAMPLES
        )
        if ks_distance(values, reference) < SAMPLING_LAW_KS_LIMIT:
            tallies["sampling_law"] += 1
        else:
            failures.append((f"library {index}", "sampling_law"))
    for index, frame, greedy, exact in greedy_checks:
        strongest, weakest = reference_greedy_levels(frame, greedy.budget)
        if greedy.universal == weakest and strongest <= greedy.certified == exact:
            tallies["greedy_pick"] += 1
        else:
            failures.append((index, "greedy_pick"))
    return {"tallies": tallies, "reference_frames": len(small), "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--field", choices=["real", "complex"], default=None)
    parser.add_argument("--samples", type=int, default=64)
    args = parser.parse_args()

    config = SweepConfig(
        count=args.count, seed=args.seed, field=args.field, samples=args.samples
    )
    outcome = run_sweep(config)
    totals = {
        "dual": config.count + NEAR_CUTOFF_FRAMES + LIBRARY_FRAMES,
        "systems": config.count + NEAR_CUTOFF_FRAMES + LIBRARY_FRAMES,
        "erasure": config.count + NEAR_CUTOFF_FRAMES + MERGED_FRAMES,
        "exhaustive_reference": outcome["reference_frames"],
        "merged_cover": outcome["reference_frames"],
        "witness_short": outcome["reference_frames"],
        "greedy_pick": config.count + NEAR_CUTOFF_FRAMES + MERGED_FRAMES + LIBRARY_FRAMES,
        "sampling_law": LIBRARY_FRAMES,
    }
    for name, passed in outcome["tallies"].items():
        print(f"{name:12s} {passed}/{totals.get(name, config.count)}")
    if outcome["failures"]:
        for index, check in outcome["failures"]:
            print(f"FAIL frame {index}: {check}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
