"""Fuzzing of the frame document parser and ``ffk analyze`` with malformed documents.

Each example takes a valid frame document and makes one change:
it replaces one node with a bool, a string, null, a huge integer, NaN,
Infinity, a float near the overflow or underflow limit, a weight whose
square overflows or underflows, or a nested or empty list; drops one key
or list item; or sets ``dimension`` to 0, -1 or 10**12.  Parsing may fail
only with a ``FrameError``, and ``ffk analyze`` may only exit with 0, 1
or 2, writing nothing or one JSON line to stderr that names a
``FrameError``, and raising no ``RuntimeWarning``.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffk import errors
from ffk.cli import main
from ffk.documents import FrameDocument, emit_example
from ffk.errors import FrameError
from ffk.generators import random_fusion_frame, random_system
from ffk.numerics import COMPLEX, REAL

REPLACEMENTS = (
    True, False, "x", None, 10**400, -(10**400), float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-320,
    1e154, 1e-200, [[1.0]], [],
)
FRAME_ERRORS = {name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, FrameError)}
DIMENSIONS = (0, -1, 10**12)
FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)


def frame_trees():
    """Gallery and seeded documents, real and complex, with and without local frames."""
    documents = [emit_example("7.1", 3), emit_example("7.2", 2), emit_example("7.3")]
    for seed, field in ((1, REAL), (2, COMPLEX)):
        rng = np.random.default_rng(seed)
        frame = random_fusion_frame(rng, n=3, members=3, max_dim=2, field=field)
        documents.append(FrameDocument.from_fusion_frame(frame))
        documents.append(FrameDocument.from_fusion_frame(frame, random_system(rng, frame, "orthogonal")))
    return [json.loads(document.to_json_text()) for document in documents]


FRAME_TREES = frame_trees()


def node_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutated_text(draw):
    tree = json.loads(json.dumps(draw(st.sampled_from(FRAME_TREES))))
    kind = draw(st.sampled_from(("replace", "drop", "dimension")))
    if kind == "dimension":
        tree["dimension"] = draw(st.sampled_from(DIMENSIONS))
        return json.dumps(tree)
    path = draw(st.sampled_from(list(node_paths(tree))[1:]))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(tree)


@FUZZ
@given(mutated_text())
def test_frame_parser_raises_only_frame_errors(text):
    try:
        FrameDocument.from_json_text(text)
    except FrameError:
        pass


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "frame.json"


@FUZZ
@given(text=mutated_text())
def test_analyze_exits_cleanly(document_path, text):
    document_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["analyze", str(document_path)])
    assert code in (0, 1, 2)
    stderr = err.getvalue()
    if stderr:
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        error = json.loads(stderr)["error"]
        assert set(error) == {"type", "message"}
        assert error["type"] in FRAME_ERRORS
    assert (code == 1) == bool(stderr)
