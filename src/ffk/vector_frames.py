"""Classical vector frames: operators, redundancy, and dual families.

A frame here is a finite family of nonzero vectors spanning its ambient
space.  The pointwise redundancy of the family at a unit vector ``x`` is
the norm-insensitive energy ``sum_i |<x, phi_i>|^2 / ||phi_i||^2``, the
Rayleigh quotient of the normalized frame operator.  Inner products are
linear in the first argument: ``<x, y> = y* x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotADual,
    NotAFrame,
    NotUnitVector,
    WrongEtaCount,
    ZeroVector,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    FrameBounds,
    Tolerance,
    field_of,
    hermitian_eigenrange,
    solve_hermitian_positive,
    _require_finite,
)

UNIT_NORM_TOL = 1e-10


class VectorFrame:
    """A finite family of nonzero vectors in a fixed ambient space.

    Vectors are stored as the columns of ``matrix``.  By default the
    family must span the ambient space (the frame property); pass
    ``require_spanning=False`` for families that are frames only for
    their own span, such as the local families of a fusion frame system.
    """

    def __init__(self, vectors, *, require_spanning: bool = True, tol: Tolerance = DEFAULT_TOLERANCE):
        matrix = _as_column_matrix(vectors)
        norms = np.linalg.norm(matrix, axis=0)
        if not np.all(tol.spans(norms, norms.max())):
            index = int(np.argmin(norms))
            raise ZeroVector(f"vector {index} has numerically zero norm")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.tol = tol
        low, high = hermitian_eigenrange(matrix @ matrix.conj().T, tol)
        self.is_frame = tol.spans(low, high)
        if require_spanning and not self.is_frame:
            raise NotAFrame(
                f"{self.count} vectors do not span dimension {self.ambient_dim} "
                f"(operator spectrum [{low:.3e}, {high:.3e}])"
            )

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, **kwargs) -> "VectorFrame":
        """Build from an ``n x N`` matrix whose columns are the vectors."""
        return cls(np.asarray(matrix).T, **kwargs)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    @property
    def field(self) -> str:
        return field_of(self.matrix)

    @property
    def vectors(self) -> list[np.ndarray]:
        return [self.matrix[:, i] for i in range(self.count)]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorFrame(count={self.count}, dim={self.ambient_dim}, field={self.field})"


@dataclass(frozen=True)
class VectorFrameReport:
    """Summary of a vector frame: bounds, redundancy range, and flags."""

    bounds: FrameBounds
    redundancy: tuple[float, float]
    tight: bool
    equal_norm: bool


def _as_column_matrix(vectors) -> np.ndarray:
    rows = [np.asarray(v) for v in vectors]
    if not rows:
        raise DimensionMismatch("a frame needs at least one vector")
    dim = rows[0].shape
    if len(dim) != 1 or dim[0] < 1:
        raise DimensionMismatch(f"frame vectors must be 1-d, got shape {dim}")
    for i, row in enumerate(rows):
        if row.shape != dim:
            raise DimensionMismatch(f"vector {i} has shape {row.shape}, expected {dim}")
    matrix = np.stack(rows, axis=1)
    dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
    return _require_finite(matrix.astype(dtype), "frame vectors")


def _as_unit_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got shape {v.shape}")
    _require_finite(v, "vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
        raise NotUnitVector(f"||x|| = {float(np.linalg.norm(v))!r} is not 1 within {UNIT_NORM_TOL}")
    return v


def frame_operator(frame: VectorFrame) -> np.ndarray:
    """The frame operator S = sum_i phi_i phi_i*."""
    return frame.matrix @ frame.matrix.conj().T


def normalized_frame_operator(frame: VectorFrame) -> np.ndarray:
    """sum_i phi_i phi_i* / ||phi_i||^2: the operator behind redundancy."""
    unit = frame.matrix / frame.norms()[None, :]
    return unit @ unit.conj().T


def redundancy_function(frame: VectorFrame, x) -> float:
    """Pointwise redundancy sum_i |<x, phi_i>|^2 / ||phi_i||^2 at unit x."""
    v = _as_unit_vector(x, frame.ambient_dim)
    coefficients = frame.matrix.conj().T @ v
    return float(np.sum(np.abs(coefficients) ** 2 / np.linalg.norm(frame.matrix, axis=0) ** 2))


def vector_redundancy_range(frame: VectorFrame) -> tuple[float, float]:
    """Extremes (R-, R+) of the redundancy function over the unit sphere."""
    return hermitian_eigenrange(normalized_frame_operator(frame), frame.tol)


def analyze_vector_frame(frame: VectorFrame) -> VectorFrameReport:
    """Bounds, redundancy range, tightness, and equal-norm detection."""
    tol = frame.tol
    low, high = hermitian_eigenrange(frame_operator(frame), tol)
    if not frame.is_frame:
        raise NotAFrame("the family does not span its ambient space")
    norms = frame.norms()
    return VectorFrameReport(
        bounds=FrameBounds(low, high),
        redundancy=vector_redundancy_range(frame),
        tight=tol.flat(low, high),
        equal_norm=tol.flat(norms.min(), norms.max()),
    )


def dual_residual(frame: VectorFrame, candidate: VectorFrame) -> float:
    """Worst-case reconstruction defect of a candidate dual family.

    A family ``psi_i`` is a dual when ``sum_i <x, phi_i> psi_i = x`` for
    every ``x``; by linearity it suffices to test the ambient basis,
    i.e. the columns of ``I - Psi Phi*``.
    """
    if candidate.ambient_dim != frame.ambient_dim or candidate.count != frame.count:
        raise DimensionMismatch(
            f"candidate has shape ({candidate.ambient_dim}, {candidate.count}), "
            f"expected ({frame.ambient_dim}, {frame.count})"
        )
    defect = np.eye(frame.ambient_dim) - candidate.matrix @ frame.matrix.conj().T
    return float(np.linalg.norm(defect, axis=0).max())


def is_dual_pair(frame: VectorFrame, candidate: VectorFrame, tol: Tolerance | None = None) -> bool:
    return (tol or frame.tol).reconstructs(dual_residual(frame, candidate))


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The canonical dual family S^{-1} phi_i."""
    if not frame.is_frame:
        raise NotAFrame("only spanning families have a canonical dual")
    dual_matrix = solve_hermitian_positive(frame_operator(frame), frame.matrix, frame.tol)
    return VectorFrame.from_matrix(dual_matrix, tol=frame.tol)


def alternate_dual(frame: VectorFrame, eta) -> VectorFrame:
    """The dual family generated by a list of perturbation vectors.

    Every dual of a frame arises, for some choice of vectors ``eta_i``,
    as ``psi_i = S^{-1} phi_i + eta_i - sum_k <S^{-1} phi_i, phi_k> eta_k``.
    With all ``eta_i = 0`` this is the canonical dual; perturbations are
    projected so the reconstruction identity survives exactly.
    """
    if not frame.is_frame:
        raise NotAFrame("only spanning families have duals")
    eta_list = [np.asarray(e) for e in eta]
    if len(eta_list) != frame.count:
        raise WrongEtaCount(f"got {len(eta_list)} perturbations for {frame.count} vectors")
    for i, e in enumerate(eta_list):
        if e.shape != (frame.ambient_dim,):
            raise DimensionMismatch(f"eta[{i}] has shape {e.shape}, expected ({frame.ambient_dim},)")
        _require_finite(e, f"eta[{i}]")
    H = np.stack(eta_list, axis=1)
    if np.iscomplexobj(H) and not np.iscomplexobj(frame.matrix):
        raise DimensionMismatch("complex perturbations applied to a real frame")
    H = H.astype(frame.matrix.dtype)
    D = solve_hermitian_positive(frame_operator(frame), frame.matrix, frame.tol)
    gram = frame.matrix.conj().T @ D  # gram[k, i] = <S^{-1} phi_i, phi_k>
    dual_matrix = D + H - H @ gram
    return VectorFrame.from_matrix(dual_matrix, tol=frame.tol)


def check_norm_inequality(frame: VectorFrame, dual: VectorFrame, x) -> tuple[float, float, bool]:
    """Compare coefficient norms of the canonical dual against any dual.

    For every dual ``psi_i`` and unit ``x`` the canonical coefficient
    sequence has the smaller Euclidean norm:
    ``||(<x, S^{-1} phi_i>)_i||_2 <= ||(<x, psi_i>)_i||_2``.
    Returns ``(lhs, rhs, holds)``.
    """
    v = _as_unit_vector(x, frame.ambient_dim)
    if not frame.tol.reconstructs(dual_residual(frame, dual)):
        raise NotADual("candidate fails the reconstruction identity")
    D = solve_hermitian_positive(frame_operator(frame), frame.matrix, frame.tol)
    lhs = float(np.linalg.norm(D.conj().T @ v))
    rhs = float(np.linalg.norm(dual.matrix.conj().T @ v))
    return lhs, rhs, lhs <= rhs or frame.tol.near(lhs, rhs)


@dataclass(frozen=True)
class SandwichCheck:
    """Multiplicative bracket for redundancy ratios of a dual pair.

    ``lower``/``upper`` are the bracket endpoints, ``ratio_minus`` and
    ``ratio_plus`` the observed ratios of the dual's redundancy extremes
    to the frame's, and ``holds`` whether both ratios land inside.
    """

    lower: float
    ratio_minus: float
    ratio_plus: float
    upper: float
    holds: bool


def dual_redundancy_sandwich(frame: VectorFrame) -> SandwichCheck:
    """Bracket the canonical dual's redundancy range via conditioning.

    With ``k`` the condition ratio of the frame operator, each extreme
    of the canonical dual's redundancy lies within a factor ``k^2`` of
    the corresponding extreme for the frame itself.
    """
    if not frame.is_frame:
        raise NotAFrame("only spanning families have a canonical dual")
    tol = frame.tol
    low, high = hermitian_eigenrange(frame_operator(frame), tol)
    k = high / low
    r_minus, r_plus = vector_redundancy_range(frame)
    d_minus, d_plus = vector_redundancy_range(canonical_dual(frame))
    lower, upper = k**-2, k**2
    ratio_minus = d_minus / r_minus
    ratio_plus = d_plus / r_plus
    holds = tol.within((ratio_minus, ratio_plus), lower, upper)
    return SandwichCheck(lower, ratio_minus, ratio_plus, upper, holds)
