#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures in this directory.

Writes each input document of ``inputs/`` that does not exist yet, so a
rerun leaves ``inputs/`` byte-identical: ``scripts/cli_transcript.py``
and CI's base-versus-head comparison read the committed canonical duals
there, which another build of the CLI would write with other last
digits.  Then runs every golden command through ``ffk.cli.main`` in
process, recording argv, exit code, stdout and stderr in ``cases.json``,
which ``tests/test_golden.py`` replays and compares structurally.  A
rerun does rewrite ``cases.json`` with what the current CLI prints, last
digits included; commit that only together with a decision to change
the output schema.  Run it against the sources whose outputs should
become the reference:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

from ffk.cli import main
from ffk.documents import FrameDocument, canonical_json, emit_example
from ffk.fusion import FusionFrame
from ffk.generators import (
    random_fusion_frame,
    random_invertible,
    random_subspace,
    random_system,
)
from ffk.numerics import COMPLEX, REAL, sample_unit_vectors

HERE = Path(__file__).resolve().parent


def _entries(array, field: str):
    if field == COMPLEX:
        return [[float(z.real), float(z.imag)] for z in np.ravel(array)]
    return [float(x) for x in np.ravel(array)]


def _frames():
    """Named frame documents: gallery, seeded random and Bessel-only."""
    documents = {}
    for name in ("7.1", "7.1-V", "7.2"):
        for n in (4, 8, 16):
            documents[f"g{name}-n{n}"] = emit_example(name, n)
    documents["g7.3"] = emit_example("7.3")
    for seed, n, members, field in (
        (1, 8, 6, REAL),
        (2, 8, 10, COMPLEX),
        (3, 16, 12, REAL),
        (4, 16, 9, COMPLEX),
        (5, 6, 14, REAL),
        (6, 5, 20, COMPLEX),
    ):
        frame = random_fusion_frame(np.random.default_rng(seed), n, members=members, field=field)
        documents[f"r{seed}-{field}-n{n}"] = FrameDocument.from_fusion_frame(frame)
    rng = np.random.default_rng(7)
    for n, dims, field in ((6, (2, 2), REAL), (5, (1, 2, 1), COMPLEX)):
        weights = [1.0 + 0.5 * i for i in range(len(dims))]
        frame = FusionFrame([random_subspace(rng, n, d, field) for d in dims], weights)
        documents[f"bessel-{field}-n{n}"] = FrameDocument.from_fusion_frame(frame)
    return documents


def _systems():
    systems = {}
    for seed, kind, field in ((11, "orthogonal", REAL), (12, "parseval", COMPLEX), (13, "generic", REAL)):
        rng = np.random.default_rng(seed)
        frame = random_fusion_frame(rng, 6, members=5, field=field)
        systems[f"sys-{kind}-{field}"] = FrameDocument.from_fusion_frame(frame, random_system(rng, frame, kind))
    return systems


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_new(path: str, text: str) -> None:
    """Write an input document unless it exists."""
    if not Path(path).exists():
        Path(path).write_text(text, encoding="utf-8")


def generate() -> list[dict]:
    inputs = Path("inputs")
    inputs.mkdir(exist_ok=True)
    cases = []
    for index, (name, document) in enumerate(_frames().items()):
        frame_path = str(inputs / f"{name}.json")
        _write_new(frame_path, document.to_json_text())
        rng = np.random.default_rng(100 + index)
        x = sample_unit_vectors(rng, document.dimension, 1, document.field)[0]
        at_path = str(inputs / f"{name}.at.json")
        _write_new(at_path, canonical_json(_entries(x, document.field)))
        U = random_invertible(rng, document.dimension, document.field)
        operator_path = str(inputs / f"{name}.operator.json")
        rows = [_entries(row, document.field) for row in U]
        _write_new(operator_path, canonical_json({"rows": rows}))

        cases.append(_run(["analyze", frame_path, "--seed", str(index)]))
        dual = _run(["dual", frame_path, "--canonical", "--seed", str(index), "--samples", "200"])
        cases.append(dual)
        if dual["exit"] == 0:
            dual_path = str(inputs / f"{name}.dual.json")
            _write_new(dual_path, dual["stdout"])
            cases.append(_run(["verify-dual", frame_path, dual_path]))
        cases.append(_run(["verify-dual", frame_path, frame_path]))
        cases.append(_run(["erasure", frame_path, "--exhaustive", "--budget", "4"]))
        cases.append(_run(["erasure", frame_path, "--greedy"]))
        cases.append(_run(["transform", frame_path, "--operator", operator_path]))
        cases.append(_run(["redundancy", frame_path, "--at", at_path]))
    for index, (name, document) in enumerate(_systems().items()):
        path = str(inputs / f"{name}.json")
        _write_new(path, document.to_json_text())
        cases.append(_run(["system", path, "--seed", str(index), "--samples", "50"]))
        cases.append(_run(["analyze", path]))
    return cases


if __name__ == "__main__":
    os.chdir(HERE)
    golden = generate()
    Path("cases.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(golden)} cases written to {HERE / 'cases.json'}")
