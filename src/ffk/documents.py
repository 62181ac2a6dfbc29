"""Frame and report documents: a small, stable JSON wire format.

Frame documents declare a scalar field, an ambient dimension, and one
entry per weighted subspace whose vectors are coordinate rows spanning
the subspace (orthonormality is not required; spans are orthonormalized
on load).  Complex entries are two-element ``[re, im]`` arrays, real
entries are plain numbers.  In memory, the vectors of each subspace and
of each local frame are one read-only ``(count, dimension)`` array of
the field's dtype, one vector per row; ``_parse_rows`` and ``_rows_tree``
convert JSON rows to and from it.  Serialization is canonical: fixed key
order, two-space indentation, and floats printed with 17 significant
digits so every double round-trips exactly and equal documents emit
byte-identical text.  Report documents are write-only: ``ffk analyze``
renders them, and nothing reads one back.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import __version__
from .erasure import ErasureCertificate
from .errors import MemberCountMismatch, ParseError, SchemaVersionUnsupported
from .fusion import AnalysisReport, FusionFrame, _positive_weight, build_fusion_frame
from .gallery import example_frame
from .numerics import COMPLEX, REAL, Tolerance, _column_blocks, _read_only, quadratic_forms, sample_unit_vectors
from .systems import FusionFrameSystem

SCHEMA_VERSION = "ffk/1"
SAMPLED_CHECK_COUNT = 64  # unit vectors per report's sampled checks


# --- canonical JSON --------------------------------------------------------

def _format_number(value) -> str:
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    text = format(float(value), ".17g")
    if text.lstrip("-").isdigit():
        text += ".0"
    return text


def _all_numbers(items) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items)


@lru_cache(maxsize=256)
def _float_template(lengths: tuple, separator: str) -> str:
    return separator.join("[" + ", ".join(["%.17g"] * k) + "]" for k in lengths)


def _float_lists(lists, separator: str) -> str | None:
    """Number lists joined by ``separator``, printed by one ``%.17g`` template, or ``None``.

    The template prints each entry as :func:`_format_number` would when the
    entries are floats and each printed entry holds a ``.``; an entry
    without one is integral below 1e17 (which needs ``.0``), at least 1e17,
    or not finite, and then ``None`` leaves the lists to the per-entry path.
    """
    entries = tuple(chain.from_iterable(lists))
    if set(map(type, entries)) != {float}:
        return None
    text = _float_template(tuple(map(len, lists)), separator) % entries
    return text if text.count(".") == len(entries) else None


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return _format_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if (row := _float_lists((value,), "")) is not None:
            return row
        if _all_numbers(value):
            return "[" + ", ".join(map(_format_number, value)) + "]"
        if all(isinstance(x, (list, tuple)) for x in value):
            # a row of number lists, such as complex [re, im] pairs: one template for the row
            if (body := _float_lists(value, ",\n" + inner)) is not None:
                return "[\n" + inner + body + "\n" + pad + "]"
        body = ",\n".join(inner + _render(x, indent + 1) for x in value)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_render(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(tree) -> str:
    """Deterministic JSON text for a tree of plain Python values."""
    return _render(tree, 0) + "\n"


# --- parse helpers ----------------------------------------------------------

def _json_tree(text: str, where: str = ""):
    """``json.loads``, with every way the text can fail to decode as a :class:`ParseError` prefixed by ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}arrays or objects are nested too deeply") from exc
    except ValueError as exc:  # the interpreter's limit on digits of an integer
        raise ParseError(f"{where}an integer literal has too many digits") from exc


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the range of doubles
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: number must be finite, got {value!r}")
    return number


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_entry(entry, field: str, path: str):
    if field == REAL:
        return _expect_number(entry, path)
    pair = _expect_list(entry, path)
    if len(pair) != 2:
        raise ParseError(f"{path}: expected an [re, im] pair, got {entry!r}")
    return complex(_expect_number(pair[0], path + "[0]"), _expect_number(pair[1], path + "[1]"))


def _parse_rows(rows, field: str, dimension: int, path: str) -> np.ndarray:
    """JSON vector rows as a read-only ``(count, dimension)`` array of the field's dtype.

    Well-formed rows take one ``np.array`` call.  Otherwise the rows are
    walked entry by entry, which raises the first error in document order.
    """
    rows = _expect_list(rows, path)
    if not rows:
        raise ParseError(f"{path}: expected at least one vector")
    shape = (len(rows), dimension) if field == REAL else (len(rows), dimension, 2)
    leaves = chain.from_iterable(chain.from_iterable(rows) if field == COMPLEX else rows)
    try:
        values = np.array(rows, dtype=np.float64)
        valid = values.shape == shape and {int, float}.issuperset(map(type, leaves)) and np.isfinite(values).all()
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        for r, row in enumerate(rows):
            entries = _expect_list(row, f"{path}[{r}]")
            if len(entries) != dimension:
                raise ParseError(f"{path}[{r}]: vector has {len(entries)} entries, expected {dimension}")
            for e, entry in enumerate(entries):
                _parse_entry(entry, field, f"{path}[{r}][{e}]")
    if field == COMPLEX:
        values = values.view(np.complex128).reshape(len(rows), dimension)
    return _read_only(values)


def _column_rows(matrix: np.ndarray, field: str) -> np.ndarray:
    """The columns of ``matrix`` as a read-only rows array of the field's dtype."""
    dtype = np.complex128 if field == COMPLEX else np.float64
    return _read_only(np.array((matrix if field == COMPLEX else np.real(matrix)).T, dtype=dtype, order="C"))


def _rows_tree(rows: np.ndarray) -> list:
    """JSON rows of a rows array: plain numbers, or ``[re, im]`` pairs if complex."""
    if np.iscomplexobj(rows):
        rows = np.stack((rows.real, rows.imag), axis=-1)
    return rows.tolist()


# --- frame documents --------------------------------------------------------

@dataclass(frozen=True)
class FrameDocument:
    """Serialized fusion frame (optionally with local frames).

    Members are two parallel tuples, as :class:`FusionFrame` takes its bases
    and weights: ``vectors[i]`` spans member ``i``, of weight ``weights[i]``.  Each
    ``vectors`` and ``local_frames`` entry is a read-only ``(count,
    dimension)`` array of the field's dtype (``float64`` or ``complex128``),
    one vector per row.  The header (schema version, field, dimension) is
    checked by ``from_json_text`` before any row is read.
    """

    field: str
    dimension: int
    vectors: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    local_frames: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not self.vectors:
            raise ParseError("subspaces: a frame document needs at least one subspace")
        if len(self.weights) != len(self.vectors):
            raise MemberCountMismatch(f"{len(self.weights)} weights for {len(self.vectors)} subspaces")
        if self.local_frames is not None and len(self.local_frames) != len(self.vectors):
            raise MemberCountMismatch(
                f"local_frames has {len(self.local_frames)} entries for {len(self.vectors)} subspaces"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_json_text(cls, text: str) -> "FrameDocument":
        root = _expect_dict(_json_tree(text), "document")
        version = root.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionUnsupported(
                f"schema_version {version!r} is not supported (expected {SCHEMA_VERSION!r})"
            )
        field = root.get("field")
        if field not in (REAL, COMPLEX):
            raise ParseError(f"field: expected 'real' or 'complex', got {field!r}")
        dimension = _expect_int(root.get("dimension"), "dimension")
        if dimension < 1:
            raise ParseError(f"dimension: must be a positive integer, got {dimension!r}")
        vectors, weights = [], []
        for i, item in enumerate(_expect_list(root.get("subspaces"), "subspaces")):
            entry = _expect_dict(item, f"subspaces[{i}]")
            weight = _expect_number(entry.get("weight"), f"subspaces[{i}].weight")
            vectors.append(_parse_rows(entry.get("vectors"), field, dimension, f"subspaces[{i}].vectors"))
            weights.append(_positive_weight(weight, f"subspaces[{i}]: "))
        local_frames = root.get("local_frames")
        if local_frames is not None:
            local_frames = tuple(
                _parse_rows(rows, field, dimension, f"local_frames[{i}]")
                for i, rows in enumerate(_expect_list(local_frames, "local_frames"))
            )
        return cls(field, dimension, tuple(vectors), tuple(weights), local_frames)

    @classmethod
    def from_fusion_frame(cls, frame: FusionFrame, system: FusionFrameSystem | None = None) -> "FrameDocument":
        field = frame.field
        vectors = tuple(_column_rows(B, field) for B in _column_blocks(frame.bases, frame.offsets))
        local_frames = None
        if system is not None:
            blocks = _column_blocks(system.local_synthesis, system.local_offsets)
            local_frames = tuple(_column_rows(L, field) for L in blocks)
        return cls(field, frame.ambient_dim, vectors, tuple(frame.weights.tolist()), local_frames)

    # -- output -----------------------------------------------------------

    def to_tree(self) -> dict:
        tree = {
            "schema_version": SCHEMA_VERSION,
            "field": self.field,
            "dimension": self.dimension,
            "subspaces": [{"weight": w, "vectors": _rows_tree(V)} for V, w in zip(self.vectors, self.weights)],
        }
        if self.local_frames is not None:
            tree["local_frames"] = [_rows_tree(rows) for rows in self.local_frames]
        return tree

    def to_json_text(self) -> str:
        return canonical_json(self.to_tree())

    # -- realization -------------------------------------------------------

    def build(self) -> tuple[FusionFrame, FusionFrameSystem | None]:
        frame = build_fusion_frame(zip([V.T for V in self.vectors], self.weights), self.dimension)
        system = None if self.local_frames is None else FusionFrameSystem(frame, self.local_frames)
        return frame, system


def load_frame(path) -> tuple[FusionFrame, FusionFrameSystem | None]:
    """Read a frame document and realize it (frame plus optional system)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return FrameDocument.from_json_text(text).build()


def _load_entries(path, key: str) -> list:
    """Read a JSON array, bare or wrapped in an object under ``key``."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = _json_tree(handle.read(), f"{path}: ")
    if isinstance(tree, dict):
        tree = tree.get(key)
    return _expect_list(tree, f"{path}: {key}")


def load_vector(path, field: str) -> np.ndarray:
    """Read a vector of the field's entries: a JSON array, bare or as ``{"vector": [...]}``."""
    entries = _load_entries(path, "vector")
    return np.array([_parse_entry(value, field, f"{path}: [{i}]") for i, value in enumerate(entries)])


def load_operator(path, field: str, dimension: int) -> np.ndarray:
    """Read a matrix's rows, each of ``dimension`` entries: a JSON array, bare or as ``{"rows": [...]}``."""
    return _parse_rows(_load_entries(path, "rows"), field, dimension, f"{path}: rows")


def emit_example(name: str, n: int | None = None) -> FrameDocument:
    """Serialize a catalog example as a frame document."""
    return FrameDocument.from_fusion_frame(example_frame(name, n))


# --- report documents --------------------------------------------------------

FLAG_ORDER = (
    "tight",
    "parseval",
    "uniform_weights",
    "orthonormal_fusion_basis",
    "minimal",
    "uniform_redundancy",
    "bessel_only",
)


@dataclass(frozen=True)
class ReportDocument:
    """Serialized analysis outcome: the report's JSON tree, keys in canonical order."""

    tree: dict

    @classmethod
    def from_analysis(
        cls,
        report: AnalysisReport,
        seed: int,
        tol: Tolerance,
        erasure: ErasureCertificate | None = None,
        sampled_checks: dict | None = None,
    ) -> "ReportDocument":
        return cls(
            {
                "tool_version": __version__,
                "seed": seed,
                "tolerances": {"rank_rel": tol.rank_rel, "eig_rel": tol.eig_rel, "recon_abs": tol.recon_abs},
                "bounds": {"lower": report.bounds.lower, "upper": report.bounds.upper},
                "redundancy_range": report.redundancy,
                "flags": {name: bool(getattr(report, name)) for name in FLAG_ORDER},
                "excess": report.excess,
                "erasure": asdict(erasure) if erasure is not None else None,
                "sampled_checks": dict(sampled_checks) if sampled_checks is not None else None,
            }
        )

    def to_json_text(self) -> str:
        return canonical_json(self.tree)


def sampled_consistency_checks(frame: FusionFrame, seed: int) -> dict:
    """Seeded spot checks recorded in analysis reports.

    Compares the quadratic-form redundancy against the direct projection
    sum at ``SAMPLED_CHECK_COUNT`` sampled unit vectors, and verifies the
    weighted energy lands inside the computed bounds.
    """
    rng = np.random.default_rng(seed)
    X = sample_unit_vectors(rng, frame.ambient_dim, SAMPLED_CHECK_COUNT, frame.field)
    quadratic = quadratic_forms(X, frame.normalized_operator)
    direct = np.linalg.norm(X @ frame.bases.conj(), axis=1) ** 2
    energy = quadratic_forms(X, frame.operator)
    low, high = frame._operator_range
    return {
        "samples": SAMPLED_CHECK_COUNT,
        "max_rayleigh_deviation": float(np.abs(quadratic - direct).max()),
        "energy_bounds_ok": frame.tol.within(energy, low if frame.is_frame else -np.inf, high),
    }
