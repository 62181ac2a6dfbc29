"""The three benchmark workloads and the layer calls each operation makes.

Each workload is a closed loop with one client: it runs its operations
one after another in this single-threaded process (cli-small waits for
one ``ffk`` child process at a time) and each waits for its reply.

``run(op, tracer)`` is the timed operation.  ``replay(op, tracer)`` makes
the same layer calls in process, with a span around each call into a
public ``ffk`` function; for the in-process workloads it is ``run``
itself.  ``probe(frame, tracer)`` times direct calls into ``numerics``
and the operator assembly on the operation's own frame.  ``check`` runs
outside the timed region and raises ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import checks
import inputs
from checks import Reference, require

import ffk.cli
from ffk.documents import FrameDocument, ReportDocument, sampled_consistency_checks
from ffk.duality import canonical_dual_fusion, canonical_ratio_bounds, verify_alternate_dual
from ffk.errors import LocalNotParseval, NotUniformWeights
from ffk.fusion import (
    classify,
    erasure_certificate,
    fusion_frame_operator,
    redundancy_samples,
    synthesis_matrix,
)
from ffk.numerics import (
    hermitian_eigenrange,
    kernel_dimension,
    orthonormalize,
    sample_unit_vectors,
    solve_hermitian_positive,
)
from ffk.systems import check_local_additivity, parseval_equivalences, redundancy_one_equivalence

LIBRARY_SAMPLES = 20_000
SYSTEM_SAMPLES = 100
PROBE_SAMPLES = 1_000
CLI_TIMEOUT_S = 120


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def fresh_dir(workdir: Path) -> Path:
    """A new directory for one set-up's documents.

    Overwriting a file that was written moments ago makes ext4 flush it
    on close (its replace-by-truncate heuristic), which costs tens of
    milliseconds per file and would make set-up time depend on how many
    set-ups ran before.  New files in a new directory avoid that.
    """
    return Path(tempfile.mkdtemp(dir=workdir))


def run_child(argv) -> subprocess.CompletedProcess:
    """Run a child process and wait for it, with output captured.

    With a timeout and no pipes, ``subprocess`` waits by polling with
    sleeps of up to 50 ms, which would round every measured time up to
    that grain.  With pipes it waits for end of output instead, which
    comes as the child exits.
    """
    return subprocess.run(argv, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)


def warm_import(module: str) -> None:
    """Import ``module`` in a fresh interpreter, as the first user call would."""
    run_child([sys.executable, "-c", f"import {module}"])


def load(text: str, tracer):
    with tracer.span("documents.parse"):
        document = FrameDocument.from_json_text(text)
    tracer.count("documents.parse.bytes", len(text))
    with tracer.span("documents.build"):
        return document.build()


def serialize(document, tracer) -> str:
    with tracer.span("documents.serialize"):
        text = document.to_json_text()
    tracer.count("documents.serialize.bytes", len(text))
    return text


def exhaustive_certificate(frame, budget, tracer):
    effective = frame.member_count - 1 if budget is None else min(budget, frame.member_count - 1)
    with tracer.span("fusion.erasure_exhaustive"):
        certificate = erasure_certificate(frame, budget, "exhaustive")
    tracer.count(
        "fusion.erasure_exhaustive.subsets_max",
        sum(math.comb(frame.member_count, k) for k in range(1, effective + 1)),
    )
    return certificate


def probe(frame, tracer, rng) -> None:
    """Direct calls into the operator assembly and every numerics primitive."""
    itemsize = 16 if frame.field == "complex" else 8
    for normalized in (True, False):
        with tracer.span("fusion.operator"):
            S = fusion_frame_operator(frame, normalized=normalized)
        tracer.count("fusion.operator.bytes_computed", frame.member_count * frame.ambient_dim**2 * itemsize)
    with tracer.span("numerics.eigenrange"):
        hermitian_eigenrange(S, frame.tol)
    if frame.is_frame:
        with tracer.span("numerics.solve"):
            solve_hermitian_positive(S, frame.members[0].subspace.basis, frame.tol)
    T = synthesis_matrix(frame)
    with tracer.span("numerics.kernel_dimension"):
        kernel_dimension(T, frame.tol)
    with tracer.span("numerics.orthonormalize"):
        orthonormalize(T[:, : frame.ambient_dim], frame.tol)
    with tracer.span("numerics.sample_unit_vectors"):
        sample_unit_vectors(rng, frame.ambient_dim, PROBE_SAMPLES, frame.field)


class CliSmall:
    """Many small documents, one ``python -m ffk.cli`` process per operation.

    Process start and ``import ffk.cli`` dominate each command, so this
    workload shows import, start-up and ``documents`` changes and skips
    large-matrix numerics.
    """

    name = "cli-small"
    in_process = False

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        docs = inputs.cli_documents(np.random.default_rng([seed, 1]))
        if smoke:
            keep = {"g7.1-n4", "g7.3", "r8-10-real", "bessel6", "sys-orthogonal"}
            docs = [d for d in docs if d[0] in keep]
        docdir = fresh_dir(workdir)
        self.trees, self.paths = {}, {}
        for name, tree, kind, _ in docs:
            path = docdir / f"{name}.json"
            path.write_text(inputs.to_text(tree), encoding="utf-8")
            self.trees[name], self.paths[name] = tree, str(path)
        ops = []
        for name, tree, kind, code in docs:
            ops.append(("analyze", name, ["analyze", self.paths[name], "--seed", str(seed)], code))
        for name, tree, kind, _ in docs:
            if kind == "random":
                dual = str(docdir / f"{name}.dual.json")
                self.paths[name + ".dual"] = dual
                ops.append(("dual", name, ["dual", self.paths[name], "--canonical", "--out", dual, "--seed", str(seed)], 0))
                ops.append(("verify-dual", name, ["verify-dual", self.paths[name], dual], 0))
        for name, tree, kind, _ in docs:
            if kind != "bessel" and len(tree["subspaces"]) <= 22:
                ops.append(("erasure", name, ["erasure", self.paths[name], "--exhaustive"], 0))
        for name, tree, kind, _ in docs:
            if kind == "system":
                ops.append(("system", name, ["system", self.paths[name], "--seed", str(seed), "--samples", str(SYSTEM_SAMPLES)], 0))
        self.ops = ops
        self.references = {}
        warm_import("ffk.cli")

    def key(self, op) -> str:
        return f"{op[0]}:{op[1]}"

    def run(self, op, tracer):
        sub, name, argv, _ = op
        if sub == "dual":
            # Remove the previous cycle's output so that every run of
            # the command creates its file, as the first run did (see
            # fresh_dir for what overwriting would add).
            Path(self.paths[name + ".dual"]).unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, "-m", "ffk.cli", *argv], capture_output=True, timeout=CLI_TIMEOUT_S
        )
        output = done.stdout
        if sub == "dual":
            output += Path(self.paths[name + ".dual"]).read_bytes()
        return done.returncode, output, done.stderr

    def output_bytes(self, result) -> bytes:
        return str(result[0]).encode() + b"\0" + result[1]

    def reference(self, name) -> Reference:
        if name not in self.references:
            self.references[name] = Reference(self.trees[name])
        return self.references[name]

    def check(self, op, result) -> None:
        sub, name, _, code = op
        returncode, stdout, stderr = result
        require(returncode == code, f"exit code {returncode}, expected {code}: {stderr[-300:]!r}")
        if sub == "dual":
            dual_text = Path(self.paths[name + ".dual"]).read_text(encoding="utf-8")
            checks.check_dual(self.reference(name), Reference(dual_text))
            return
        tree = json.loads(stdout)
        if sub == "analyze":
            ref = self.reference(name)
            checks.check_analysis(ref, tree["bounds"]["lower"], tree["bounds"]["upper"], tree["redundancy_range"])
            if tree["erasure"] is not None:
                e = tree["erasure"]
                checks.check_erasure(e["budget"], e["certified"], e["universal"], e["weight_rule"], e["mode"])
        elif sub == "verify-dual":
            checks.check_verify(tree["residual"], tree["is_dual"])
        elif sub == "erasure":
            checks.check_erasure(tree["budget"], tree["certified"], tree["universal"], tree["weight_rule"], tree["mode"])
        elif sub == "system":
            require(tree["samples"] == SYSTEM_SAMPLES, "system reported a different sample count")
            if name == "sys-orthogonal":
                additivity = tree["additivity"]
                require(additivity["orthogonal_locals"] and additivity["additive"], f"orthogonal locals not additive: {additivity}")
            else:
                parseval = tree["parseval_equivalence"]
                require(parseval["applicable"] and parseval["consistent"], f"Parseval equivalence: {parseval}")

    def replay(self, op, tracer):
        """The subcommand's layer calls, in process, through the public API."""
        sub, name, argv, _ = op
        text = Path(self.paths[name]).read_text(encoding="utf-8")
        frame, system = load(text, tracer)
        if sub == "analyze":
            with tracer.span("fusion.classify"):
                report = classify(frame)
            erasure = None
            if frame.is_frame and frame.member_count <= ffk.cli.ANALYZE_ERASURE_MEMBER_LIMIT:
                budget = min(frame.member_count - 1, ffk.cli.ANALYZE_ERASURE_BUDGET_CAP)
                if budget > 0:
                    erasure = exhaustive_certificate(frame, budget, tracer)
            sampled = sampled_consistency_checks(frame, self.seed)
            serialize(ReportDocument.from_analysis(report, self.seed, frame.tol, erasure, sampled), tracer)
        elif sub == "dual":
            with tracer.span("duality.canonical_dual"):
                dual = canonical_dual_fusion(frame)
            serialize(FrameDocument.from_fusion_frame(dual), tracer)
            try:
                with tracer.span("duality.ratio_bounds"):
                    canonical_ratio_bounds(frame, np.random.default_rng(self.seed), samples=1000)
            except NotUniformWeights:
                pass
        elif sub == "verify-dual":
            candidate, _ = load(Path(self.paths[name + ".dual"]).read_text(encoding="utf-8"), tracer)
            with tracer.span("duality.verify"):
                certificate = verify_alternate_dual(frame, candidate)
            tracer.record_max("duality.verify.residual_max", certificate.residual)
        elif sub == "erasure":
            exhaustive_certificate(frame, None, tracer)
        elif sub == "system":
            with tracer.span("numerics.sample_unit_vectors"):
                X = sample_unit_vectors(np.random.default_rng(self.seed), frame.ambient_dim, SYSTEM_SAMPLES, frame.field)
            for row in X:
                with tracer.span("systems.additivity"):
                    check_local_additivity(system, row)
            try:
                with tracer.span("systems.parseval"):
                    parseval_equivalences(system)
            except LocalNotParseval:
                pass
            try:
                with tracer.span("systems.redundancy_one"):
                    redundancy_one_equivalence(system)
            except (LocalNotParseval, NotUniformWeights):
                pass
        return frame


class LibraryLarge:
    """Library callers on big frames: one frame's full pipeline per operation.

    Costs are dominated by ``numerics`` on n x n operators, where the
    numpy and scipy BLAS thread pools contend, and then by the
    three-operand einsum in redundancy sampling.
    """

    name = "library-large"
    in_process = True

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        shapes = [s for s in inputs.LIBRARY_SHAPES if s[0] == 64] if smoke else inputs.LIBRARY_SHAPES
        self.ops = list(enumerate(inputs.library_documents(np.random.default_rng([seed, 2]), shapes)))
        docdir = fresh_dir(workdir)
        for index, (name, text) in self.ops:
            (docdir / f"{name}.json").write_text(text, encoding="utf-8")
        self.references = {}
        warm_import("ffk")

    def key(self, op) -> str:
        return op[1][0]

    def run(self, op, tracer):
        index, (name, text) = op
        frame, _ = load(text, tracer)
        with tracer.span("fusion.classify"):
            report = classify(frame)
        with tracer.span("duality.canonical_dual"):
            dual = canonical_dual_fusion(frame)
        with tracer.span("duality.verify"):
            certificate = verify_alternate_dual(frame, dual)
        tracer.record_max("duality.verify.residual_max", certificate.residual)
        rng = np.random.default_rng([self.seed, index])
        with tracer.span("fusion.redundancy_samples"):
            samples = redundancy_samples(frame, rng, LIBRARY_SAMPLES)
        # The einsum costs count * (n^2 + n) multiply-adds: 2 flops each,
        # 8 when complex.  Drawing the samples is not counted.
        scale = 4 if frame.field == "complex" else 1
        tracer.count("fusion.redundancy_samples.flops_computed", scale * 2 * LIBRARY_SAMPLES * (frame.ambient_dim**2 + frame.ambient_dim))
        with tracer.span("fusion.erasure_greedy"):
            erasure = erasure_certificate(frame, None, "greedy")
        dual_text = serialize(FrameDocument.from_fusion_frame(dual), tracer)
        return frame, report, certificate, samples, erasure, dual_text

    def output_bytes(self, result) -> bytes:
        frame, report, certificate, samples, erasure, dual_text = result
        return digest(report, certificate, samples.tobytes(), erasure, dual_text).encode()

    def check(self, op, result) -> None:
        frame, report, certificate, samples, erasure, dual_text = result
        name, text = op[1]
        if name not in self.references:
            self.references[name] = Reference(text)
        ref = self.references[name]
        checks.check_analysis(ref, report.bounds.lower, report.bounds.upper, report.redundancy)
        checks.check_verify(certificate.residual, certificate.is_dual)
        checks.check_dual(ref, Reference(dual_text))
        checks.check_samples(samples, ref.redundancy)
        require(samples.shape == (LIBRARY_SAMPLES,), f"got {samples.shape} samples")
        checks.check_erasure(erasure.budget, erasure.certified, erasure.universal, erasure.weight_rule, erasure.mode)

    def replay(self, op, tracer):
        return self.run(op, tracer)[0]


class ErasureExhaustive:
    """Exhaustive erasure certificates on small frames, one per operation.

    Thousands of eigvalsh calls on matrices of 16 x 16 or smaller, so
    Python call overhead dominates, not BLAS.  Frames are built in set-up:
    documents, import and duals are not part of the operation.
    """

    name = "erasure-exhaustive"
    in_process = True

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        docs = inputs.erasure_documents(np.random.default_rng([seed, 3]))
        if smoke:
            docs = docs[:2]
        self.ops = []
        docdir = fresh_dir(workdir)
        for name, text, budget in docs:
            (docdir / f"{name}.json").write_text(text, encoding="utf-8")
            frame, _ = FrameDocument.from_json_text(text).build()
            self.ops.append((name, frame, budget))
        warm_import("ffk")

    def key(self, op) -> str:
        return op[0]

    def run(self, op, tracer):
        name, frame, budget = op
        return exhaustive_certificate(frame, budget, tracer)

    def output_bytes(self, result) -> bytes:
        return digest(result).encode()

    def check(self, op, result) -> None:
        checks.check_erasure(result.budget, result.certified, result.universal, result.weight_rule, result.mode)
        require(result.mode == "exhaustive", f"mode {result.mode!r}")

    def replay(self, op, tracer):
        self.run(op, tracer)
        return op[1]


WORKLOADS = {w.name: w for w in (CliSmall, LibraryLarge, ErasureExhaustive)}


def environment() -> dict:
    """Versions, CPU count and the BLAS thread variables as found (never set)."""

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": info.get("name"), "version": info.get("version")}
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_thread_env": {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
