"""Golden CLI outputs: replay ``tests/golden/cases.json`` and compare.

Structure must match exactly: exit codes, JSON keys and their order,
strings, booleans, integers and nulls (flags, counts, ``rule``, ``mode``,
erasure certificates).  Floats must agree to ``FLOAT_TOL`` relative to
``max(1, |a|, |b|)``: roundoff-level quantities such as residuals carry
no relative precision, and operator assembly and solves may move the
last bits.  Frame documents (canonical duals) must have the same field,
dimension and weights, and each subspace must match its reference up to
a largest principal angle of ``ANGLE_TOL``; their spanning vectors may
differ by any rotation within the subspace.  Regenerate the fixtures
with ``tests/golden/make_golden.py``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from ffk.cli import main
from ffk.documents import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
FLOAT_TOL = 1e-12
ANGLE_TOL = 1e-12
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
# Canonical JSON texts of the golden cases, by "<argv> <stream>".  An exit-1 stderr is a json.dumps
# error line, not canonical JSON; analyze reports are checked in test_documents.py's TestReportDocument.
CANONICAL_TEXTS = {
    f"{' '.join(case['argv'])} {stream}": case[stream]
    for case in CASES
    if case["argv"][0] != "analyze"
    for stream in ("stdout", "stderr")
    if case[stream] and case["exit"] != 1
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def _span(rows, field: str) -> np.ndarray:
    entries = np.array(rows, dtype=float)
    if field == "complex":
        entries = entries[..., 0] + 1j * entries[..., 1]
    Q, _ = np.linalg.qr(entries.T)
    return Q


def _largest_angle(rows_a, rows_b, field: str) -> float:
    Qa, Qb = _span(rows_a, field), _span(rows_b, field)
    if Qa.shape != Qb.shape:
        return np.pi / 2
    sines = np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb), compute_uv=False)
    return float(np.arcsin(min(1.0, sines.max())))


def _same_frame_document(got: dict, want: dict, where: str) -> None:
    assert list(got) == list(want), where
    for key in ("schema_version", "field", "dimension"):
        assert got[key] == want[key], f"{where}.{key}"
    assert len(got["subspaces"]) == len(want["subspaces"]), f"{where}.subspaces"
    for i, (g, w) in enumerate(zip(got["subspaces"], want["subspaces"])):
        assert _close(g["weight"], w["weight"]), f"{where}.subspaces[{i}].weight"
        angle = _largest_angle(g["vectors"], w["vectors"], want["field"])
        assert angle <= ANGLE_TOL, f"{where}.subspaces[{i}]: principal angle {angle:.3e}"


def _same_tree(got, want, where: str) -> None:
    if isinstance(want, dict) and "schema_version" in want:
        assert isinstance(got, dict), where
        _same_frame_document(got, want, where)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys {list(got)} vs {list(want)}"
        for key in want:
            _same_tree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: list length"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_tree(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and _close(got, want), f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, str) and isinstance(got, str) and where.endswith("error.message"):
        assert NUMBER.split(got) == NUMBER.split(want), f"{where}: {got!r} vs {want!r}"
        for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
            assert _close(float(g), float(w)), f"{where}: {got!r} vs {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


def _same_stream(got: str, want: str, where: str) -> None:
    if not want:
        assert got == "", where
        return
    _same_tree(json.loads(got), json.loads(want), where)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["exit"]
    _same_stream(captured.out, case["stdout"], "stdout")
    _same_stream(captured.err, case["stderr"], "stderr")


@pytest.mark.parametrize("where", CANONICAL_TEXTS)
def test_renderer_is_a_fixed_point_on_golden_text(where):
    text = CANONICAL_TEXTS[where]
    assert canonical_json(json.loads(text)) == text
