#!/usr/bin/env python3
"""Record the exact CLI behaviour on the golden cases, for byte comparison.

Runs every case of ``tests/golden/cases.json`` through ``ffk.cli.main``
in process, plus each ``dual`` and ``transform`` case once more with
``--out`` and each ``analyze`` case once more with ``--report``, inside a
temporary copy of ``tests/golden/inputs``.  For each run it writes one
JSON line to OUT: argv, exit code, stdout, stderr and the text of the
``--out`` or ``--report`` file (``null`` when none was written).  The
temporary directory's path is replaced by ``<tmp>``, so two source trees
give the same file exactly when their CLI output is byte-identical:

    PYTHONPATH=src python scripts/cli_transcript.py before.jsonl
    cmp before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from ffk import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
OUT_NAME = "written.json"
FILE_OPTIONS = {"dual": "--out", "transform": "--out", "analyze": "--report"}


def _record(argv: list[str], workdir: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    written = workdir / OUT_NAME
    text = None
    if written.exists():
        text = written.read_text(encoding="utf-8")
        written.unlink()
    streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": text}
    normalized = {key: value and value.replace(str(workdir), "<tmp>") for key, value in streams.items()}
    return {"argv": argv, "exit": code, **normalized}


def transcript(cases: list[dict]) -> list[dict]:
    """One record per golden case, then one per ``--out`` or ``--report`` run of a case that writes a file."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp).resolve()
        shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
        os.chdir(workdir)
        try:
            records = [_record(case["argv"], workdir) for case in cases]
            records += [
                _record(case["argv"] + [FILE_OPTIONS[case["argv"][0]], OUT_NAME], workdir)
                for case in cases
                if case["argv"][0] in FILE_OPTIONS
            ]
        finally:
            os.chdir(start)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="write the transcript (JSON lines) here")
    args = parser.parse_args(argv)
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    records = transcript(cases)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)
    print(f"{len(records)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
