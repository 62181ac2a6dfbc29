"""The package's exports resolve, and the package imports only what ``pyproject.toml`` declares."""

import ast
import inspect
import sys
from pathlib import Path

import numpy as np

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


def test_every_function_has_a_caller():
    """Each public function of ``src/ffk``, at module level or in a class, is exported or named by the code that runs the package.

    A function counts as used when ``ffk.__all__`` lists it or when ``src/ffk``, ``scripts/``,
    ``perfbench/`` or ``tests/golden/make_golden.py`` names it: as a name, an attribute or an
    imported name.  A method counts by its own name, wherever it is named.  ``generators.py`` is
    exempt: it holds seeded constructions for tests and scripts.
    """
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "ffk"
    callers = [*package.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    named = set(ffk.__all__)
    for path in callers + [root / "tests" / "golden" / "make_golden.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "generators.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{f.name}", f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            unused += [f"{path.name}:{label}" for label, name in functions if not name.startswith("_") and name not in named]
    assert unused == []


def test_every_frame_has_the_package_tolerance():
    """No constructor takes a tolerance, and every frame, derived ones included, reads ``DEFAULT_TOLERANCE``."""
    constructors = (ffk.FusionFrame, ffk.build_fusion_frame, ffk.VectorFrame, ffk.VectorFrame.from_matrix)
    assert [f.__qualname__ for f in constructors if "tol" in inspect.signature(f).parameters] == []
    assert ffk.FusionFrame.tol is ffk.VectorFrame.tol is ffk.DEFAULT_TOLERANCE
    e = np.eye(3)
    frame = ffk.build_fusion_frame([(e[:, :2], 1.0), (e[:, 1:], 2.0)], 3)
    vectors = ffk.VectorFrame.from_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    frames = [
        frame,
        ffk.union(frame, frame),
        ffk.erase(frame, [0])[0],
        ffk.canonical_dual_fusion(frame),
        ffk.apply_operator(frame, 2.0 * e),
        ffk.build_system(frame, [[e[0], e[1]], [e[1], e[2]]]).frame,
        vectors,
        ffk.canonical_dual(vectors),
        ffk.alternate_dual(vectors, 0.1 * np.arange(6.0).reshape(3, 2)),
    ]
    assert [i for i, f in enumerate(frames) if f.tol is not ffk.DEFAULT_TOLERANCE or "tol" in vars(f)] == []
