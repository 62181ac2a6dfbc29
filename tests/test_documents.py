import json
from pathlib import Path

import numpy as np
import pytest

from ffk.documents import (
    FLAG_ORDER,
    SAMPLED_CHECK_COUNT,
    SCHEMA_VERSION,
    FrameDocument,
    ReportDocument,
    canonical_json,
    emit_example,
    load_frame,
    load_operator,
    load_vector,
    sampled_consistency_checks,
)
from ffk.errors import (
    MemberCountMismatch,
    NonPositiveWeight,
    ParseError,
    SchemaVersionUnsupported,
)
from ffk.fusion import (
    FusionFrame,
    classify,
    erasure_certificate,
    fusion_frame_operator,
)
from ffk.gallery import example_frame
from ffk.generators import random_fusion_frame, random_system
from ffk.numerics import COMPLEX, DEFAULT_TOLERANCE, REAL
from ffk.systems import FusionFrameSystem

GOLDEN_REPORTS = [
    case
    for case in json.loads((Path(__file__).resolve().parent / "golden" / "cases.json").read_text(encoding="utf-8"))
    if case["argv"][0] == "analyze"
]


def per_entry_rows(matrix, field):
    """The columns of ``matrix`` as rows of Python scalars, one entry at a time."""

    def scalar(value):
        return complex(value) if field == COMPLEX else float(np.real(value))

    return [[scalar(matrix[r, c]) for r in range(matrix.shape[0])] for c in range(matrix.shape[1])]


def per_entry_tree(frame, system=None):
    """The document tree of a frame, each entry converted on its own."""

    def rows(matrix):
        entries = per_entry_rows(matrix, frame.field)
        return [[[z.real, z.imag] if frame.field == COMPLEX else z for z in row] for row in entries]

    tree = {
        "schema_version": SCHEMA_VERSION,
        "field": frame.field,
        "dimension": frame.ambient_dim,
        "subspaces": [{"weight": m.weight, "vectors": rows(m.subspace.basis)} for m in frame.members],
    }
    if system is not None:
        offsets = system.local_offsets
        tree["local_frames"] = [rows(system.local_synthesis[:, a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    return tree


def signed_zero_system(field):
    """A system whose bases and local frames hold negative zeros."""
    z = complex(-0.0, -0.0) if field == COMPLEX else -0.0
    dtype = complex if field == COMPLEX else float
    bases = [np.array([[1.0], [z], [0.0]], dtype), np.array([[z, 0.0], [1.0, z], [0.0, 1.0]], dtype)]
    if field == COMPLEX:
        bases[1][:, 1] *= 1j
    frame = FusionFrame(bases, (0.5, 2.0))
    return frame, FusionFrameSystem(frame, [(2.0 * B).T for B in bases])


class TestCanonicalJson:
    def test_floats_keep_a_decimal_point(self):
        assert canonical_json(1.0) == "1.0\n"
        assert canonical_json(-3.0) == "-3.0\n"

    def test_floats_roundtrip_exactly(self):
        for value in (0.1, 2.0 / 3.0, 1e-9, 123456.789, np.nextafter(1.0, 2.0)):
            assert float(canonical_json(value).strip()) == value

    def test_integers_booleans_null(self):
        assert canonical_json(7) == "7\n"
        assert canonical_json(True) == "true\n"
        assert canonical_json(None) == "null\n"

    def test_scalar_lists_render_inline(self):
        assert canonical_json([1.0, 2.5]) == "[1.0, 2.5]\n"

    def test_nested_structure_is_indented(self):
        text = canonical_json({"a": [{"b": 1}]})
        assert text == '{\n  "a": [\n    {\n      "b": 1\n    }\n  ]\n}\n'

    def test_key_order_preserved(self):
        assert canonical_json({"z": 1, "a": 2}).index('"z"') < canonical_json(
            {"z": 1, "a": 2}
        ).index('"a"')

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_output_is_valid_json(self):
        tree = {"x": [1.0, 2.0], "y": {"z": None, "w": [True, "s"]}}
        assert json.loads(canonical_json(tree)) == tree


class TestFrameDocument:
    def test_roundtrip_is_byte_identical(self):
        for name, n in (("7.1", 3), ("7.1-V", 4), ("7.2", 5), ("7.3", None)):
            text = emit_example(name, n).to_json_text()
            assert FrameDocument.from_json_text(text).to_json_text() == text

    def test_emit_is_deterministic(self):
        assert emit_example("7.3").to_json_text() == emit_example("7.3").to_json_text()

    def test_build_recovers_the_frame(self):
        frame, system = emit_example("7.3").build()
        assert system is None
        assert np.allclose(fusion_frame_operator(frame), 2.0 * np.eye(5), atol=1e-12)
        report = classify(frame)
        assert report.tight and not report.parseval

    def test_complex_entries_are_pairs_and_real_entries_numbers(self):
        complex_tree = emit_example("7.3").to_tree()
        entry = complex_tree["subspaces"][0]["vectors"][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        real_tree = emit_example("7.1", 3).to_tree()
        assert isinstance(real_tree["subspaces"][0]["vectors"][0][0], float)

    def test_schema_version_checked(self):
        text = emit_example("7.2", 3).to_json_text().replace(SCHEMA_VERSION, "ffk/2")
        with pytest.raises(SchemaVersionUnsupported):
            FrameDocument.from_json_text(text)

    def test_malformed_json_cites_position(self):
        with pytest.raises(ParseError, match="line 1"):
            FrameDocument.from_json_text("{oops")

    def test_missing_subspaces_cited_by_path(self):
        text = canonical_json(
            {"schema_version": SCHEMA_VERSION, "field": "real", "dimension": 2}
        )
        with pytest.raises(ParseError, match="subspaces"):
            FrameDocument.from_json_text(text)

    def test_bad_field_rejected(self):
        tree = json.loads(emit_example("7.1", 3).to_json_text())
        tree["field"] = "quaternion"
        with pytest.raises(ParseError, match="field"):
            FrameDocument.from_json_text(canonical_json(tree))

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_non_positive_dimension_cited_before_any_row(self, dimension):
        tree = json.loads(emit_example("7.1", 3).to_json_text())
        tree["dimension"] = dimension
        with pytest.raises(ParseError, match=rf"^dimension: must be a positive integer, got {dimension}$"):
            FrameDocument.from_json_text(canonical_json(tree))

    @pytest.mark.parametrize("name", ["7.1", "7.3"])
    def test_huge_integers_are_not_finite(self, name):
        tree = json.loads(emit_example(name, 3 if name == "7.1" else None).to_json_text())
        tree["subspaces"][1]["weight"] = 10**400
        with pytest.raises(ParseError, match=r"^subspaces\[1\]\.weight: number must be finite, got 1000"):
            FrameDocument.from_json_text(json.dumps(tree))
        tree["subspaces"][1]["weight"] = 1.0
        row = tree["subspaces"][1]["vectors"][0]
        if name == "7.1":
            row[2] = -(10**400)
            where = r"subspaces\[1\]\.vectors\[0\]\[2\]"
        else:
            row[2][1] = -(10**400)
            where = r"subspaces\[1\]\.vectors\[0\]\[2\]\[1\]"
        with pytest.raises(ParseError, match=rf"^{where}: number must be finite, got -1000"):
            FrameDocument.from_json_text(json.dumps(tree))

    def test_wrong_vector_length_cited(self):
        tree = json.loads(emit_example("7.1", 3).to_json_text())
        tree["subspaces"][0]["vectors"][0] = [1.0, 0.0]  # dimension is 3
        with pytest.raises(ParseError, match=r"subspaces\[0\].vectors\[0\]"):
            FrameDocument.from_json_text(canonical_json(tree))

    def test_negative_weight_cited_by_member(self):
        tree = json.loads(emit_example("7.1", 3).to_json_text())
        tree["subspaces"][1]["weight"] = -2.0
        with pytest.raises(NonPositiveWeight, match=r"subspaces\[1\]"):
            FrameDocument.from_json_text(canonical_json(tree))

    def test_complex_entry_must_be_pair(self):
        tree = json.loads(emit_example("7.3").to_json_text())
        tree["subspaces"][0]["vectors"][0][0] = 1.0
        with pytest.raises(ParseError, match="expected an array"):
            FrameDocument.from_json_text(canonical_json(tree))
        tree["subspaces"][0]["vectors"][0][0] = [1.0, 0.0, 0.0]
        with pytest.raises(ParseError, match="re, im"):
            FrameDocument.from_json_text(canonical_json(tree))

    def test_local_frames_roundtrip_and_build(self, rng):
        frame = random_fusion_frame(rng, n=3, members=3)
        system = random_system(rng, frame, kind="orthogonal")
        doc = FrameDocument.from_fusion_frame(frame, system)
        text = doc.to_json_text()
        rebuilt_doc = FrameDocument.from_json_text(text)
        assert rebuilt_doc.to_json_text() == text
        rebuilt_frame, rebuilt_system = rebuilt_doc.build()
        assert rebuilt_system is not None
        assert rebuilt_frame.member_count == frame.member_count
        assert np.allclose(
            fusion_frame_operator(rebuilt_frame),
            fusion_frame_operator(frame),
            atol=1e-12,
        )

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_from_fusion_frame_matches_per_entry_conversion(self, field, rng):
        frame, system = signed_zero_system(field)
        random_frame = random_fusion_frame(rng, n=4, members=3, field=field)
        random_local = random_system(rng, random_frame, kind="orthogonal")
        dtype = np.complex128 if field == COMPLEX else np.float64
        for case in ((frame, None), (frame, system), (random_frame, random_local)):
            doc = FrameDocument.from_fusion_frame(*case)
            matrices = [m.subspace.basis for m in case[0].members]
            arrays = [member.vectors for member in doc.subspaces]
            if case[1] is not None:
                offsets = case[1].local_offsets
                matrices += [case[1].local_synthesis[:, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
                arrays += list(doc.local_frames)
            assert len(arrays) == len(matrices)
            for array, matrix in zip(arrays, matrices):
                expected = np.array(per_entry_rows(matrix, field), dtype=dtype)
                assert array.dtype == dtype and not array.flags.writeable
                # Bytes tell -0.0 from 0.0.
                assert array.tobytes() == expected.tobytes()
            assert doc.to_json_text() == canonical_json(per_entry_tree(*case))
        assert "-0.0" in FrameDocument.from_fusion_frame(frame, system).to_json_text()

    def test_local_frames_count_mismatch(self):
        tree = json.loads(emit_example("7.2", 3).to_json_text())
        tree["local_frames"] = [[[1.0, 0.0, 0.0]]]
        with pytest.raises(MemberCountMismatch):
            FrameDocument.from_json_text(canonical_json(tree))

    def test_load_frame_from_file(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(emit_example("7.3").to_json_text(), encoding="utf-8")
        frame, system = load_frame(path)
        assert frame.ambient_dim == 5
        assert system is None


@pytest.mark.parametrize("document", [FrameDocument])
@pytest.mark.parametrize("text", ["[" * 100_000, '{"dimension": ' + "9" * 5000 + "}"], ids=["deep", "long-integer"])
def test_undecodable_json_is_a_parse_error(document, text):
    with pytest.raises(ParseError):
        document.from_json_text(text)


class TestVectorAndOperatorReaders:
    def write(self, tmp_path, tree):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        return str(path)

    def test_bare_and_wrapped_vectors(self, tmp_path):
        assert load_vector(self.write(tmp_path, [0.6, 0.8]), "real").tolist() == [0.6, 0.8]
        x = load_vector(self.write(tmp_path, {"vector": [[0.0, 1.0], [1, 0]]}), "complex")
        assert x.tolist() == [1j, 1 + 0j]

    def test_bare_and_wrapped_operators(self, tmp_path):
        rows = [[2.0, 0.0], [0.0, 1.0]]
        for tree in (rows, {"rows": rows}):
            U = load_operator(self.write(tmp_path, tree), "real", 2)
            assert U.tolist() == rows and not U.flags.writeable

    @pytest.mark.parametrize(
        "read, tree, message",
        [
            (lambda p: load_vector(p, "real"), {"vec": [1.0]}, "{p}: vector: expected an array, got NoneType"),
            (lambda p: load_vector(p, "complex"), [[1, 0], 1.0], "{p}: [1]: expected an array, got float"),
            (lambda p: load_operator(p, "real", 2), {"rows": [[1.0]]}, "{p}: rows[0]: vector has 1 entries, expected 2"),
            (lambda p: load_operator(p, "real", 2), "I", "{p}: rows: expected an array, got str"),
        ],
        ids=["vector-key", "vector-entry", "operator-row", "operator-type"],
    )
    def test_errors_cite_the_file(self, tmp_path, read, tree, message):
        path = self.write(tmp_path, tree)
        with pytest.raises(ParseError) as caught:
            read(path)
        assert str(caught.value) == message.format(p=path)


class TestReportDocument:
    def build_report(self, with_erasure: bool = True):
        frame = example_frame("7.3")
        report = classify(frame)
        erasure = erasure_certificate(frame, budget=2) if with_erasure else None
        sampled = sampled_consistency_checks(frame, seed=11)
        return ReportDocument.from_analysis(
            report, seed=11, tol=DEFAULT_TOLERANCE, erasure=erasure, sampled_checks=sampled
        )

    def test_key_order(self):
        text = self.build_report().to_json_text()
        keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
        assert keys == [
            "tool_version",
            "seed",
            "tolerances",
            "bounds",
            "redundancy_range",
            "flags",
            "excess",
            "erasure",
            "sampled_checks",
        ]

    def test_flags_cover_the_fixed_order(self):
        doc = self.build_report()
        assert tuple(doc.tree["flags"]) == FLAG_ORDER

    def test_seed_is_recorded(self):
        tree = self.build_report().tree
        assert tree["seed"] == 11

    def test_erasure_may_be_absent(self):
        tree = self.build_report(with_erasure=False).tree
        assert tree["erasure"] is None

    def test_bessel_only_report_serializes_null_lower_bound(self):
        from ffk.fusion import build_fusion_frame

        frame = build_fusion_frame([(np.array([[1.0], [0.0]]), 1.0)], 2)
        doc = ReportDocument.from_analysis(
            classify(frame), seed=0, tol=DEFAULT_TOLERANCE
        )
        assert '"lower": null' in doc.to_json_text()

    @pytest.mark.parametrize("case", GOLDEN_REPORTS, ids=[" ".join(case["argv"]) for case in GOLDEN_REPORTS])
    def test_golden_report_text_roundtrips(self, case):
        """The renderer is a fixed point on every golden report: parsing and rendering give the same text."""
        text = case["stdout"]
        assert canonical_json(json.loads(text)) == text


class TestSampledChecks:
    def test_quadratic_form_matches_projection_sum(self, rng):
        frame = random_fusion_frame(rng, n=4)
        outcome = sampled_consistency_checks(frame, seed=3)
        assert outcome["samples"] == SAMPLED_CHECK_COUNT
        assert outcome["max_rayleigh_deviation"] <= 1e-10
        assert outcome["energy_bounds_ok"]

    def test_deterministic_in_the_seed(self, rng):
        frame = random_fusion_frame(rng, n=3)
        a = sampled_consistency_checks(frame, seed=5)
        b = sampled_consistency_checks(frame, seed=5)
        assert a == b
