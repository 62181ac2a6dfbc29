#!/usr/bin/env python3
"""Record the exact CLI behaviour on the golden cases, for byte comparison.

Runs every case of ``tests/golden/cases.json`` through ``ffk.cli.main``
in process, then ``ffk example`` for each of the four presets at its
default size and for ``7.1``, ``7.1-V`` and ``7.2`` at ``-n 16``.  Each
``dual``, ``transform`` and ``example`` run is made once more with
``--out`` and each ``analyze`` run once more with ``--report``, all
inside a temporary copy of ``tests/golden/inputs`` (219 runs).  For each
run it writes one JSON line to OUT: argv, exit code, stdout, stderr and
the text of the ``--out`` or ``--report`` file (``null`` when none was
written).  The temporary directory's path is replaced by ``<tmp>``, so
two source trees give the same file exactly when their CLI output is
byte-identical:

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
FILE_OPTIONS = {"dual": "--out", "transform": "--out", "example": "--out", "analyze": "--report"}
EXAMPLE_RUNS = [["example", "--name", name] for name in ("7.1", "7.1-V", "7.2", "7.3")] + [
    ["example", "--name", name, "-n", "16"] for name in ("7.1", "7.1-V", "7.2")
]


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
    """One record per golden case and example run, then one per ``--out`` or ``--report`` rerun of those."""
    runs = [case["argv"] for case in cases] + EXAMPLE_RUNS
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp).resolve()
        shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
        os.chdir(workdir)
        try:
            records = [_record(argv, workdir) for argv in runs]
            records += [
                _record(argv + [FILE_OPTIONS[argv[0]], OUT_NAME], workdir) for argv in runs if argv[0] in FILE_OPTIONS
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
