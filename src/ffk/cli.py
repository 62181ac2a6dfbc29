"""Command-line driver.

Subcommands operate on frame documents (see :mod:`ffk.documents`) and
print canonical JSON to stdout.  Failures, usage errors included, are
reported as a one-line JSON object on stderr with exit code 1;
``analyze`` exits with code 2 when the family is Bessel-only (an upper
bound exists but no positive lower one).  The analysis tolerances are
the defaults and the report echoes them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .documents import (
    FrameDocument,
    ReportDocument,
    canonical_json,
    emit_example,
    load_frame,
    load_operator,
    load_vector,
    sampled_consistency_checks,
)
from .duality import canonical_dual_fusion, canonical_ratio_bounds, verify_alternate_dual
from .errors import FrameError, LocalNotParseval, NotUniformWeights, ParseError
from .fusion import (
    classify,
    erasure_certificate,
    operator_image_report,
    redundancy_at,
)
from .numerics import sample_unit_vectors
from .systems import (
    check_local_additivity,
    parseval_equivalences,
    redundancy_one_equivalence,
)

ANALYZE_ERASURE_MEMBER_LIMIT = 12
ANALYZE_ERASURE_BUDGET_CAP = 4


def _fail(exc: Exception) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------

def _cmd_analyze(args) -> int:
    frame, _ = load_frame(args.frame)
    report = classify(frame)
    erasure = None
    if frame.is_frame and frame.member_count <= ANALYZE_ERASURE_MEMBER_LIMIT:
        budget = min(frame.member_count - 1, ANALYZE_ERASURE_BUDGET_CAP)
        if budget > 0:
            erasure = erasure_certificate(frame, budget)
    document = ReportDocument.from_analysis(
        report,
        seed=args.seed,
        tol=frame.tol,
        erasure=erasure,
        sampled_checks=sampled_consistency_checks(frame, args.seed),
    )
    text = document.to_json_text()
    if args.report:  # first, so that a report that cannot be written leaves stdout empty
        _write_or_print(text, args.report)
    sys.stdout.write(text)
    return 2 if report.bessel_only else 0


def _cmd_redundancy(args) -> int:
    frame, _ = load_frame(args.frame)
    x = load_vector(args.at, frame.field)
    value = redundancy_at(frame, x)
    print(canonical_json({"redundancy": value}), end="")
    return 0


def _cmd_dual(args) -> int:
    frame, _ = load_frame(args.frame)
    dual = canonical_dual_fusion(frame)
    try:
        check = canonical_ratio_bounds(frame, np.random.default_rng(args.seed), samples=args.samples)
        summary = {"applicable": True, **asdict(check), "seed": args.seed}
    except NotUniformWeights as exc:
        summary = {"applicable": False, "reason": str(exc)}
    _write_or_print(FrameDocument.from_fusion_frame(dual).to_json_text(), args.out)
    if args.out:
        sys.stdout.write(canonical_json({"dual_written": args.out, "ratio_bounds": summary}))
    else:
        sys.stderr.write(canonical_json({"ratio_bounds": summary}))
    return 0


def _cmd_verify_dual(args) -> int:
    frame, _ = load_frame(args.frame)
    candidate, _ = load_frame(args.candidate)
    print(canonical_json(asdict(verify_alternate_dual(frame, candidate))), end="")
    return 0


def _cmd_erasure(args) -> int:
    frame, _ = load_frame(args.frame)
    mode = "exhaustive" if args.exhaustive else ("greedy" if args.greedy else None)
    print(canonical_json(asdict(erasure_certificate(frame, args.budget, mode))), end="")
    return 0


def _cmd_transform(args) -> int:
    frame, _ = load_frame(args.frame)
    report = operator_image_report(frame, load_operator(args.operator, frame.field, frame.ambient_dim))
    if args.out:
        _write_or_print(FrameDocument.from_fusion_frame(report.image).to_json_text(), args.out)
    print(
        canonical_json(
            {
                "condition": report.condition,
                "predicted_bounds": report.predicted_bounds,
                "computed_bounds": [report.computed_bounds.lower, report.computed_bounds.upper],
                "bounds_hold": report.bounds_hold,
                "redundancy_brackets": report.redundancy_brackets,
                "image_redundancy": report.image_redundancy,
                "redundancy_holds": report.redundancy_holds,
                "image_written": args.out,
            }
        ),
        end="",
    )
    return 0


def _cmd_system(args) -> int:
    frame, system = load_frame(args.frame)
    if system is None:
        raise ParseError("the frame document carries no local_frames")
    rng = np.random.default_rng(args.seed)
    X = sample_unit_vectors(rng, frame.ambient_dim, args.samples, frame.field)
    checks = [check_local_additivity(system, row) for row in X]
    tree = {
        "seed": args.seed,
        "samples": args.samples,
        "additivity": {
            "orthogonal_locals": system.orthogonal_locals,
            "max_gap": max(0.0, *(abs(check.fusion_value - check.local_sum) for check in checks)),
            "additive": all(check.equal for check in checks),
        },
    }
    try:
        tree["parseval_equivalence"] = {"applicable": True, **asdict(parseval_equivalences(system))}
    except LocalNotParseval as exc:
        tree["parseval_equivalence"] = {"applicable": False, "reason": str(exc)}
    try:
        tree["redundancy_one"] = {"applicable": True, **asdict(redundancy_one_equivalence(system))}
    except (LocalNotParseval, NotUniformWeights) as exc:
        tree["redundancy_one"] = {"applicable": False, "reason": str(exc)}
    print(canonical_json(tree), end="")
    return 0


def _cmd_example(args) -> int:
    document = emit_example(args.name, args.n)
    _write_or_print(document.to_json_text(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other failure: one JSON line on stderr, exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffk",
        description="Analyze finite fusion frames: bounds, redundancy, duals, erasures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a frame document")
    analyze.add_argument("frame")
    analyze.add_argument("--report", help="also write the report to this path")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(handler=_cmd_analyze)

    redundancy = sub.add_parser("redundancy", help="pointwise redundancy at a unit vector")
    redundancy.add_argument("frame")
    redundancy.add_argument("--at", required=True, help="path to a JSON vector")
    redundancy.set_defaults(handler=_cmd_redundancy)

    dual = sub.add_parser("dual", help="canonical dual family")
    dual.add_argument("frame")
    dual.add_argument("--canonical", action="store_true", required=True)
    dual.add_argument("--out", help="write the dual frame document here")
    dual.add_argument("--seed", type=int, default=0)
    dual.add_argument("--samples", type=int, default=1000)
    dual.set_defaults(handler=_cmd_dual)

    verify = sub.add_parser("verify-dual", help="test a candidate dual family")
    verify.add_argument("frame")
    verify.add_argument("candidate")
    verify.set_defaults(handler=_cmd_verify_dual)

    erasure = sub.add_parser("erasure", help="erasure robustness certificate")
    erasure.add_argument("frame")
    erasure.add_argument("--budget", type=int, default=None)
    group = erasure.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--greedy", action="store_true")
    erasure.set_defaults(handler=_cmd_erasure)

    transform = sub.add_parser("transform", help="apply an invertible operator")
    transform.add_argument("frame")
    transform.add_argument("--operator", required=True, help="path to a JSON matrix")
    transform.add_argument("--out", help="write the image frame document here")
    transform.set_defaults(handler=_cmd_transform)

    system = sub.add_parser("system", help="local-frame checks for a system document")
    system.add_argument("frame")
    system.add_argument("--seed", type=int, default=0)
    system.add_argument("--samples", type=int, default=100)
    system.set_defaults(handler=_cmd_system)

    example = sub.add_parser("example", help="emit a built-in example document")
    example.add_argument("--name", required=True)
    example.add_argument("-n", type=int, default=None, help="dimension for scalable presets")
    example.add_argument("--out", help="write the document here")
    example.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Overflow and invalid values end in NonFiniteEntries or a ValueError, so numpy need not warn too.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (FrameError, OSError, ValueError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
