"""The package's exports resolve, and the package imports only what ``pyproject.toml`` declares."""

import ast
import sys
from pathlib import Path

import ffk


def test_every_exported_name_resolves():
    assert [name for name in ffk.__all__ if not hasattr(ffk, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from ffk import *", namespace)
    assert set(ffk.__all__) <= set(namespace)


def test_imports_are_stdlib_numpy_or_ffk():
    """numpy is the one declared dependency; scipy is installed for ``perfbench/`` only."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "ffk"}
    stray = []
    for path in sorted(Path(ffk.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert stray == []
