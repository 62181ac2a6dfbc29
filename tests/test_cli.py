import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffk
from ffk import cli, gallery
from ffk.cli import main
from ffk.documents import FrameDocument, canonical_json, emit_example
from ffk.gallery import example_frame
from ffk.generators import random_system
from ffk.systems import FusionFrameSystem
from test_differential import near_singular_unit_weight_frame, reference_member_bases


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def assert_usage_error(outcome):
    """A usage error ends like any failure: exit 1, nothing on stdout, one JSON line on stderr."""
    code, stdout, stderr = outcome
    assert (code, stdout) == (1, "")
    assert stderr.count("\n") == 1
    error = json.loads(stderr)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith("ffk")


@pytest.fixture
def frame_file(tmp_path):
    def _write(name, n=None, filename="frame.json"):
        path = tmp_path / filename
        path.write_text(emit_example(name, n).to_json_text(), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def bessel_file(tmp_path):
    document = {
        "schema_version": "ffk/1",
        "field": "real",
        "dimension": 2,
        "subspaces": [{"weight": 1.0, "vectors": [[1.0, 0.0]]}],
    }
    path = tmp_path / "bessel.json"
    path.write_text(canonical_json(document), encoding="utf-8")
    return str(path)


class TestExample:
    def test_writes_document(self, run, tmp_path):
        out = tmp_path / "f.json"
        code, stdout, stderr = run("example", "--name", "7.3", "--out", str(out))
        assert code == 0
        assert stdout == ""
        document = FrameDocument.from_json_text(out.read_text(encoding="utf-8"))
        assert document.dimension == 5

    def test_prints_document_without_out(self, run):
        code, stdout, _ = run("example", "--name", "7.2", "-n", "3")
        assert code == 0
        assert FrameDocument.from_json_text(stdout).dimension == 3

    def test_unknown_name_fails_with_json_error(self, run):
        code, stdout, stderr = run("example", "--name", "8.1")
        assert code == 1
        error = json.loads(stderr)["error"]
        assert error["type"] == "UnknownExample"

    def test_wrong_dimension_for_fixed_example(self, run):
        code, _, stderr = run("example", "--name", "7.3", "-n", "4")
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "DimensionMismatch"

    @pytest.mark.parametrize("name", ["7.1", "7.1-V", "7.2"])
    def test_dimension_above_the_cap_fails_before_allocating(self, run, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("a member was built above the dimension cap")

        monkeypatch.setattr(gallery, "_coordinate_subspace", refuse)
        code, stdout, stderr = run("example", "--name", name, "-n", str(gallery.EXAMPLE_MAX_DIMENSION + 1))
        assert (code, stdout) == (1, "")
        assert stderr.count("\n") == 1
        error = json.loads(stderr)["error"]
        assert error["type"] == "DimensionMismatch"
        assert str(gallery.EXAMPLE_MAX_DIMENSION) in error["message"]

    def test_memory_error_becomes_json_error(self, run, monkeypatch):
        def exhausted(name, n):
            raise MemoryError("cannot allocate the example")

        monkeypatch.setattr(cli, "emit_example", exhausted)
        code, stdout, stderr = run("example", "--name", "7.2", "-n", "3")
        assert (code, stdout) == (1, "")
        assert stderr.count("\n") == 1
        assert json.loads(stderr) == {"error": {"type": "MemoryError", "message": "cannot allocate the example"}}


class TestAnalyze:
    def test_weighted_coordinate_family(self, run, frame_file):
        code, stdout, _ = run("analyze", frame_file("7.3"))
        assert code == 0
        tree = json.loads(stdout)
        assert tree["bounds"]["lower"] == pytest.approx(2.0, abs=1e-9)
        assert tree["bounds"]["upper"] == pytest.approx(2.0, abs=1e-9)
        assert tree["redundancy_range"] == pytest.approx([2.0, 2.0], abs=1e-9)
        assert tree["flags"]["tight"] is True
        assert tree["flags"]["parseval"] is False
        assert tree["flags"]["uniform_redundancy"] is True
        assert tree["excess"] == 5
        assert tree["erasure"]["certified"] == 2
        assert tree["erasure"]["universal"] == 1
        assert tree["sampled_checks"]["energy_bounds_ok"] is True
        assert tree["seed"] == 0

    def test_deterministic_output(self, run, frame_file):
        path = frame_file("7.1", 4)
        _, first, _ = run("analyze", path, "--seed", "3")
        _, second, _ = run("analyze", path, "--seed", "3")
        assert first == second

    def test_report_file_matches_stdout(self, run, frame_file, tmp_path):
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(
            "analyze", frame_file("7.2", 4), "--report", str(report_path)
        )
        assert code == 0
        assert report_path.read_text(encoding="utf-8") == stdout

    def test_unwritable_report_prints_nothing(self, run, frame_file, tmp_path):
        report_path = tmp_path / "missing-dir" / "report.json"
        code, stdout, stderr = run("analyze", frame_file("7.3"), "--report", str(report_path))
        assert code == 1
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert json.loads(stderr)["error"]["type"] == "FileNotFoundError"
        assert not report_path.exists()

    def test_seed_recorded(self, run, frame_file):
        _, stdout, _ = run("analyze", frame_file("7.1-V", 4), "--seed", "42")
        assert json.loads(stdout)["seed"] == 42

    def test_bessel_only_exits_two(self, run, bessel_file):
        code, stdout, _ = run("analyze", bessel_file)
        assert code == 2
        tree = json.loads(stdout)
        assert tree["bounds"]["lower"] is None
        assert tree["flags"]["bessel_only"] is True
        assert tree["erasure"] is None

    def test_missing_file_fails_cleanly(self, run):
        code, _, stderr = run("analyze", "/nonexistent/frame.json")
        assert code == 1
        assert "error" in json.loads(stderr)


class TestRedundancy:
    def test_value_at_coordinate_vector(self, run, frame_file, tmp_path):
        at = tmp_path / "x.json"
        at.write_text("[1.0, 0.0, 0.0, 0.0]", encoding="utf-8")
        code, stdout, _ = run("redundancy", frame_file("7.1", 4), "--at", str(at))
        assert code == 0
        assert json.loads(stdout)["redundancy"] == pytest.approx(5.0, abs=1e-9)

    def test_complex_vector_entries_are_pairs(self, run, frame_file, tmp_path):
        at = tmp_path / "x.json"
        entries = [[1.0, 0.0]] + [[0.0, 0.0]] * 4
        at.write_text(json.dumps(entries), encoding="utf-8")
        code, stdout, _ = run("redundancy", frame_file("7.3"), "--at", str(at))
        assert code == 0
        assert json.loads(stdout)["redundancy"] == pytest.approx(2.0, abs=1e-9)

    def test_wrapped_vector_object_accepted(self, run, frame_file, tmp_path):
        at = tmp_path / "x.json"
        at.write_text(json.dumps({"vector": [0.0, 1.0, 0.0, 0.0]}), encoding="utf-8")
        code, stdout, _ = run("redundancy", frame_file("7.1", 4), "--at", str(at))
        assert code == 0
        assert json.loads(stdout)["redundancy"] == pytest.approx(1.0, abs=1e-9)

    def test_non_unit_vector_rejected(self, run, frame_file, tmp_path):
        at = tmp_path / "x.json"
        at.write_text("[1.0, 1.0, 0.0, 0.0]", encoding="utf-8")
        code, _, stderr = run("redundancy", frame_file("7.1", 4), "--at", str(at))
        assert code == 1
        error = json.loads(stderr)["error"]
        assert error["type"] == "NotUnitVector"
        assert error["message"].startswith("||x|| = 1.4142135623730951 is not 1")

    @pytest.mark.parametrize("first", [["0.44", 0], [True, 0], [1.0], 1.0])
    def test_malformed_complex_entries_rejected(self, run, frame_file, tmp_path, first):
        at = tmp_path / "x.json"
        at.write_text(json.dumps([first] + [[0.0, 0.0]] * 4), encoding="utf-8")
        code, _, stderr = run("redundancy", frame_file("7.3"), "--at", str(at))
        assert code == 1
        assert stderr.count("\n") == 1
        assert json.loads(stderr)["error"]["type"] == "ParseError"


class TestDual:
    def test_weighted_family_dual_document_on_stdout(self, run, frame_file):
        code, stdout, stderr = run("dual", frame_file("7.3"), "--canonical")
        assert code == 0
        dual_doc = FrameDocument.from_json_text(stdout)
        assert dual_doc.dimension == 5
        summary = json.loads(stderr)["ratio_bounds"]
        assert summary["applicable"] is False

    def test_unit_weight_family_reports_ratio_sweep(self, run, frame_file, tmp_path):
        out = tmp_path / "dual.json"
        code, stdout, _ = run(
            "dual", frame_file("7.1-V", 4), "--canonical", "--out", str(out),
            "--seed", "5", "--samples", "64",
        )
        assert code == 0
        tree = json.loads(stdout)
        assert tree["dual_written"] == str(out)
        summary = tree["ratio_bounds"]
        assert summary["applicable"] is True
        assert summary["holds"] is False  # tight non-Parseval bracket degenerates
        assert summary["seed"] == 5
        assert summary["samples"] == 64
        FrameDocument.from_json_text(out.read_text(encoding="utf-8"))

    def test_one_canonical_dual_factorization(self, run, frame_file, monkeypatch):
        # The ratio sweep must reuse the dual the command writes: count the QR factorizations of T*.
        path, calls, qr = frame_file("7.1-V", 4), [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args) or qr(*args, **kwargs))
        code, _, stderr = run("dual", path, "--canonical", "--samples", "64")
        assert code == 0
        assert json.loads(stderr)["ratio_bounds"]["applicable"] is True
        assert len(calls) == 1

    def test_canonical_dual_round_trip_near_the_cutoff(self, run, tmp_path):
        # B / A is about 7e8, inside is_frame's 1e10: the dual the command
        # writes must pass verify-dual, which an S^-1 solve losing cond(S) eps
        # failed with a residual of about 1e-4.
        path, out = tmp_path / "frame.json", tmp_path / "d.json"
        path.write_text(FrameDocument.from_fusion_frame(near_singular_unit_weight_frame(3, 1e-4)).to_json_text())
        assert run("dual", str(path), "--canonical", "--out", str(out))[0] == 0
        code, stdout, _ = run("verify-dual", str(path), str(out))
        assert code == 0
        assert json.loads(stdout)["is_dual"] is True

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failed_ratio_check_writes_nothing(self, run, frame_file, tmp_path, to_file):
        out = tmp_path / "dual.json"
        argv = ["dual", frame_file("7.1-V", 4), "--canonical", "--samples", "0"]
        code, stdout, stderr = run(*argv, *(["--out", str(out)] if to_file else []))
        assert code == 1
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert json.loads(stderr)["error"]["type"] == "DimensionMismatch"
        assert not out.exists()

    def test_canonical_flag_required(self, run, frame_file):
        assert_usage_error(run("dual", frame_file("7.3")))


class TestVerifyDual:
    def test_tight_family_is_self_dual(self, run, frame_file):
        path = frame_file("7.3")
        code, stdout, _ = run("verify-dual", path, path)
        assert code == 0
        tree = json.loads(stdout)
        assert tree["is_dual"] is True
        assert tree["residual"] <= 1e-10
        assert tree["bessel_bound"] == pytest.approx(2.0, abs=1e-9)

    def test_mismatched_candidate_fails(self, run, frame_file):
        code, _, stderr = run(
            "verify-dual", frame_file("7.1", 4), frame_file("7.2", 4, "other.json")
        )
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "NotADual"


class TestErasure:
    def test_exhaustive_certificate(self, run, frame_file):
        code, stdout, _ = run(
            "erasure", frame_file("7.3"), "--budget", "2", "--exhaustive"
        )
        assert code == 0
        tree = json.loads(stdout)
        assert tree == {
            "budget": 2,
            "certified": 2,
            "universal": 1,
            "weight_rule": 2,
            "rule": "weight-sum-bound",
            "mode": "exhaustive",
        }

    def test_greedy_certificate(self, run, frame_file):
        code, stdout, _ = run(
            "erasure", frame_file("7.3"), "--budget", "2", "--greedy"
        )
        assert code == 0
        assert json.loads(stdout)["mode"] == "greedy"

    def test_modes_are_mutually_exclusive(self, run, frame_file):
        assert_usage_error(run("erasure", frame_file("7.3"), "--exhaustive", "--greedy"))

    def test_bessel_only_rejected(self, run, bessel_file):
        code, _, stderr = run("erasure", bessel_file, "--budget", "1")
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "NotAFusionFrame"


class TestTransform:
    def test_diagonal_stretch(self, run, frame_file, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        out = tmp_path / "image.json"
        code, stdout, _ = run(
            "transform", frame_file("7.2", 3), "--operator", str(op), "--out", str(out)
        )
        assert code == 0
        tree = json.loads(stdout)
        assert tree["condition"] == pytest.approx(2.0, abs=1e-12)
        assert tree["bounds_hold"] is True
        assert tree["redundancy_holds"] is True
        assert tree["image_written"] == str(out)
        FrameDocument.from_json_text(out.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "rows", [[1, 2], [[1.0, 0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, True]], []]
    )
    def test_malformed_operator_rejected(self, run, frame_file, tmp_path, rows):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(rows), encoding="utf-8")
        code, _, stderr = run("transform", frame_file("7.2", 3), "--operator", str(op))
        assert code == 1
        assert stderr.count("\n") == 1
        assert json.loads(stderr)["error"]["type"] == "ParseError"

    def test_singular_operator_rejected(self, run, frame_file, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]}))
        code, _, stderr = run("transform", frame_file("7.2", 3), "--operator", str(op))
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "SingularOperator"


class TestSystem:
    def test_orthogonal_system_is_additive(self, run, tmp_path):
        rng = np.random.default_rng(9)
        frame = example_frame("7.2", 4)
        system = random_system(rng, frame, kind="orthogonal")
        path = tmp_path / "system.json"
        path.write_text(
            FrameDocument.from_fusion_frame(frame, system).to_json_text(),
            encoding="utf-8",
        )
        code, stdout, _ = run("system", str(path), "--samples", "20")
        assert code == 0
        tree = json.loads(stdout)
        assert tree["additivity"]["orthogonal_locals"] is True
        assert tree["additivity"]["additive"] is True
        assert tree["additivity"]["max_gap"] <= 1e-9
        assert tree["redundancy_one"]["applicable"] in (True, False)

    def test_parseval_locals_enable_equivalences(self, run, tmp_path):
        frame = example_frame("7.2", 4)
        locals_ = [list(basis.T) for basis in reference_member_bases(frame)]
        system = FusionFrameSystem(frame, locals_)
        path = tmp_path / "system.json"
        path.write_text(
            FrameDocument.from_fusion_frame(frame, system).to_json_text(),
            encoding="utf-8",
        )
        code, stdout, _ = run("system", str(path))
        assert code == 0
        tree = json.loads(stdout)
        assert tree["parseval_equivalence"]["applicable"] is True
        assert tree["parseval_equivalence"]["consistent"] is True
        assert tree["redundancy_one"]["applicable"] is True
        assert tree["redundancy_one"]["flat_parseval"] is True

    def test_weights_just_off_one_are_consistently_non_parseval(self, run, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": "ffk/1",
                    "field": "real",
                    "dimension": 2,
                    "subspaces": [
                        {"weight": 0.9999999996, "vectors": [[1, 0]]},
                        {"weight": 1.0000000004, "vectors": [[0, 1]]},
                    ],
                    "local_frames": [[[1, 0]], [[0, 1]]],
                }
            ),
            encoding="utf-8",
        )
        code, stdout, _ = run("system", str(path))
        assert code == 0
        assert json.loads(stdout)["parseval_equivalence"] == {
            "applicable": True,
            "global_parseval": False,
            "fusion_parseval": False,
            "consistent": True,
        }

    def test_document_without_locals_rejected(self, run, frame_file):
        code, _, stderr = run("system", frame_file("7.2", 3))
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "ParseError"

    def test_zero_local_vector_names_its_family(self, run, tmp_path):
        path = tmp_path / "system.json"
        tree = {
            "schema_version": "ffk/1",
            "field": "real",
            "dimension": 2,
            "subspaces": [{"weight": 1.0, "vectors": [[1, 0]]}, {"weight": 1.0, "vectors": [[0, 1]]}],
            "local_frames": [[[1, 0]], [[0, 1], [0, 0]]],
        }
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert run("system", str(path)) == (
            1,
            "",
            '{"error": {"type": "ZeroVector", "message": "local family 1: vector 1 has numerically zero norm"}}\n',
        )


class TestParserBasics:
    def test_no_arguments_is_a_usage_error(self, run):
        assert_usage_error(run())

    @pytest.mark.parametrize("argv", [["analyze"], ["analyze", "f", "--tol-eig", "1e-6"]], ids=["no-frame", "tol-eig"])
    def test_bad_arguments_are_usage_errors(self, run, argv):
        assert_usage_error(run(*argv))

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["analyze", "--help"])
        assert caught.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_stderr_errors_are_single_line_json(self, run):
        code, _, stderr = run("example", "--name", "8.1")
        assert code == 1
        assert stderr.count("\n") == 1
        assert set(json.loads(stderr)) == {"error"}
        assert set(json.loads(stderr)["error"]) == {"type", "message"}


HUGE = 10**400  # beyond the range of doubles


class TestHugeIntegers:
    """An integer beyond the double range is a ParseError, not a traceback."""

    def assert_not_finite(self, outcome, where):
        code, stdout, stderr = outcome
        assert (code, stdout) == (1, "")
        assert stderr.count("\n") == 1
        error = json.loads(stderr)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"{where}: number must be finite, got 1000")

    @pytest.mark.parametrize("name", ["7.1", "7.3"])
    def test_analyze_vector_entry(self, run, frame_file, name):
        path = frame_file(name, 3 if name == "7.1" else None)
        with open(path, encoding="utf-8") as handle:
            tree = json.load(handle)
        row = tree["subspaces"][0]["vectors"][0]
        if name == "7.1":
            row[1] = HUGE
            where = "subspaces[0].vectors[0][1]"
        else:
            row[1] = [0.0, HUGE]
            where = "subspaces[0].vectors[0][1][1]"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tree, handle)
        self.assert_not_finite(run("analyze", path), where)

    def test_analyze_weight(self, run, frame_file):
        path = frame_file("7.1", 3)
        with open(path, encoding="utf-8") as handle:
            tree = json.load(handle)
        tree["subspaces"][2]["weight"] = HUGE
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tree, handle)
        self.assert_not_finite(run("analyze", path), "subspaces[2].weight")

    @pytest.mark.parametrize("name", ["7.1", "7.3"])
    def test_redundancy_at_vector(self, run, frame_file, tmp_path, name):
        at = tmp_path / "x.json"
        if name == "7.1":
            at.write_text(json.dumps([1.0, HUGE, 0.0, 0.0]), encoding="utf-8")
            where = f"{at}: [1]"
        else:
            at.write_text(json.dumps([[1.0, 0.0], [HUGE, 0.0]] + [[0.0, 0.0]] * 3), encoding="utf-8")
            where = f"{at}: [1][0]"
        path = frame_file(name, 4 if name == "7.1" else None)
        self.assert_not_finite(run("redundancy", path, "--at", str(at)), where)

    def test_transform_operator_row(self, run, frame_file, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, HUGE]]}), encoding="utf-8")
        outcome = run("transform", frame_file("7.2", 3), "--operator", str(op))
        self.assert_not_finite(outcome, f"{op}: rows[2][2]")


class TestUndecodableJson:
    """Nesting beyond the recursion limit and over-long integer literals are ParseErrors."""

    TEXTS = {"deep": "[" * 100_000, "long-integer": "[" + "7" * 5000 + "]"}

    def assert_parse_error(self, outcome, prefix=""):
        code, stdout, stderr = outcome
        assert (code, stdout) == (1, "")
        assert stderr.count("\n") == 1
        error = json.loads(stderr)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(prefix)

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_analyze(self, run, tmp_path, kind):
        path = tmp_path / "frame.json"
        path.write_text(self.TEXTS[kind], encoding="utf-8")
        self.assert_parse_error(run("analyze", str(path)))

    @pytest.mark.parametrize("kind", sorted(TEXTS))
    def test_redundancy_at(self, run, frame_file, tmp_path, kind):
        at = tmp_path / "x.json"
        at.write_text(self.TEXTS[kind], encoding="utf-8")
        self.assert_parse_error(run("redundancy", frame_file("7.1", 4), "--at", str(at)), f"{at}: ")


class TestOverflow:
    """Values that overflow inside numpy end in one JSON line on stderr, with no numpy warning before it."""

    DOCUMENTS = {  # (weight of member 0, local vector of member 0)
        "weight": (1e308, [1.0, 0.0]),
        "squared-weight": (1e154, [1.0, 0.0]),  # S is finite; its Hermitian part S + S* overflows
        "local-vector": (1.0, [1e300, 0.0]),
    }
    ARGV = {
        "analyze": ["{frame}"],
        "redundancy": ["{frame}", "--at", "{at}"],
        "dual": ["{frame}", "--canonical"],
        "verify-dual": ["{frame}", "{frame}"],
        "erasure": ["{frame}"],
        "transform": ["{frame}", "--operator", "{operator}"],
        "system": ["{frame}"],
    }

    @pytest.mark.parametrize(
        "command, document",
        [(command, document) for command in ARGV for document in ("weight", "squared-weight")]
        + [("system", "local-vector")],
    )
    def test_one_json_line_on_stderr(self, tmp_path, command, document):
        weight, local = self.DOCUMENTS[document]
        tree = {
            "schema_version": "ffk/1",
            "field": "real",
            "dimension": 2,
            "subspaces": [{"weight": weight, "vectors": [[1.0, 0.0]]}, {"weight": 1.0, "vectors": [[0.0, 1.0]]}],
            "local_frames": [[local], [[0.0, 1.0]]],
        }
        paths = {"frame": tmp_path / "frame.json", "at": tmp_path / "x.json", "operator": tmp_path / "op.json"}
        paths["frame"].write_text(json.dumps(tree), encoding="utf-8")
        paths["at"].write_text("[1.0, 0.0]", encoding="utf-8")
        paths["operator"].write_text(json.dumps({"rows": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
        argv = [command] + [arg.format(**paths) for arg in self.ARGV[command]]
        src = str(Path(ffk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "ffk.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.count("\n") == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "NonFiniteEntries"
        if document == "weight":  # S = T T* overflows; the message names it and the weight
            assert error["message"].startswith("frame operator (largest weight 1e+308)")


def test_operator_underflowing_to_zero_is_bessel_only(tmp_path, run):
    """Weights whose squares underflow give ``S = 0``: a Bessel-only family with upper bound 0.0, exit 2."""
    tree = {
        "schema_version": "ffk/1",
        "field": "real",
        "dimension": 2,
        "subspaces": [{"weight": 1e-200, "vectors": [[1.0, 0.0]]}, {"weight": 1e-200, "vectors": [[0.0, 1.0]]}],
    }
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    code, stdout, stderr = run("analyze", str(path))
    assert (code, stderr) == (2, "")
    report = json.loads(stdout)
    assert report["bounds"] == {"lower": None, "upper": 0.0}
    assert report["redundancy_range"] == [1.0, 1.0]
    assert report["flags"]["bessel_only"]


def test_analyze_gallery_script_prints_one_row_per_example_and_dimension():
    """``scripts/analyze_gallery.py`` runs to the end: a header, a rule, then one row per example and dimension."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(ffk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(root / "scripts" / "analyze_gallery.py"), "--dims", "2", "4", "--budget", "2"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    header, rule, *rows = result.stdout.splitlines()
    assert header.split()[:3] == ["example", "n", "members"] and set(rule.replace(" ", "")) == {"-"}
    dims = {name: (2, 4) for name in gallery.EXAMPLE_NAMES} | {"7.3": (example_frame("7.3").ambient_dim,)}
    expected = [(name, str(n)) for name in gallery.EXAMPLE_NAMES for n in dims[name]]
    assert [tuple(row.split()[:2]) for row in rows] == expected
