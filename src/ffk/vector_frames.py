"""Classical vector frames: the rank-one fusion frames, and their dual families.

A frame here is a finite family of nonzero vectors spanning its ambient
space.  The family ``{phi_i}`` is the fusion frame of the lines
``span phi_i`` weighted by ``||phi_i||``: both have ``S = Phi Phi*``,
the normalized operator ``sum_i phi_i phi_i* / ||phi_i||^2`` and the
pointwise redundancy ``sum_i |<x, phi_i>|^2 / ||phi_i||^2`` at a unit
vector ``x``, its Rayleigh quotient.  So :class:`VectorFrame` is a
:class:`ffk.fusion.FusionFrame`, and every fusion analysis (bounds,
redundancy range, classification, excess, erasures) applies to it
unchanged; this module adds what only vectors have: their duals and the
coefficient-norm checks.  A family that does not span still constructs,
tagged ``is_frame`` false, and every operation here that needs a frame
refuses it with :class:`NotAFrame`.  Inner products are linear in the
first argument: ``<x, y> = y* x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotADual, NotAFrame, WrongEtaCount
from .fusion import FusionFrame, redundancy_range
from .numerics import _as_unit_vector, _as_vector_columns, _require_finite


class VectorFrame(FusionFrame):
    """A finite family of nonzero vectors in a fixed ambient space.

    Vectors are stored as the columns of ``synthesis``, the matrix ``Phi``.
    Construction never fails on a span deficiency: ``is_frame`` tells
    whether the family spans the ambient space (the frame property), and
    the operations here that need a frame raise :class:`NotAFrame` when it
    does not.  So a family that is a frame only for its own span is still
    a ``VectorFrame``.

    As a fusion frame its ``bases`` are the unit vectors ``phi_i / ||phi_i||``,
    its ``weights`` the norms ``||phi_i||`` and every member of dimension
    one, so ``operator`` is ``S = Phi Phi*`` and ``dual_synthesis`` is
    ``S^-1 Phi``.  Two canonical duals read the columns of ``dual_synthesis``:
    the fusion frame ``frame.canonical_dual`` ``{(S^-1 span phi_i, ||phi_i||)}``,
    and :func:`canonical_dual`'s vectors ``{S^-1 phi_i}``, on the same lines.
    """

    def __init__(self, vectors):
        matrix, norms = _as_vector_columns(vectors)
        self._assemble(matrix / norms[None, :], norms, np.ones(len(norms), int), matrix)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "VectorFrame":
        """Build from an ``n x N`` matrix whose columns are the vectors."""
        return cls(np.asarray(matrix).T)


def dual_residual(frame: VectorFrame, candidate: VectorFrame) -> float:
    """Worst-case reconstruction defect of a candidate dual family.

    A family ``psi_i`` is a dual when ``sum_i <x, phi_i> psi_i = x`` for
    every ``x``; by linearity it suffices to test the ambient basis,
    i.e. the columns of ``I - Psi Phi*``.
    """
    if candidate.ambient_dim != frame.ambient_dim or candidate.member_count != frame.member_count:
        raise DimensionMismatch(
            f"candidate has shape ({candidate.ambient_dim}, {candidate.member_count}), "
            f"expected ({frame.ambient_dim}, {frame.member_count})"
        )
    defect = np.eye(frame.ambient_dim) - candidate.synthesis @ frame.synthesis.conj().T
    return float(np.linalg.norm(defect, axis=0).max())


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The canonical dual family S^{-1} phi_i, tagged like any :class:`VectorFrame`."""
    if not frame.is_frame:
        raise NotAFrame("only spanning families have a canonical dual")
    return VectorFrame.from_matrix(frame.dual_synthesis)


def alternate_dual(frame: VectorFrame, eta) -> VectorFrame:
    """The dual family generated by a list of perturbation vectors.

    Every dual of a frame arises, for some choice of vectors ``eta_i``,
    as ``psi_i = S^{-1} phi_i + eta_i - sum_k <S^{-1} phi_i, phi_k> eta_k``.
    With all ``eta_i = 0`` this is the canonical dual; perturbations are
    projected so the reconstruction identity survives exactly.  The
    result is tagged like any :class:`VectorFrame`.
    """
    if not frame.is_frame:
        raise NotAFrame("only spanning families have duals")
    eta_list = [np.asarray(e) for e in eta]
    if len(eta_list) != frame.member_count:
        raise WrongEtaCount(f"got {len(eta_list)} perturbations for {frame.member_count} vectors")
    for i, e in enumerate(eta_list):
        if e.shape != (frame.ambient_dim,):
            raise DimensionMismatch(f"eta[{i}] has shape {e.shape}, expected ({frame.ambient_dim},)")
        _require_finite(e, f"eta[{i}]")
    H = np.stack(eta_list, axis=1)
    if np.iscomplexobj(H) and not np.iscomplexobj(frame.synthesis):
        raise DimensionMismatch("complex perturbations applied to a real frame")
    H = H.astype(frame.synthesis.dtype)
    Z, D = frame._synthesis_factor  # Z Z* = Phi* S^-1 Phi projects onto the range of Phi*
    return VectorFrame.from_matrix(D + H - (H @ Z) @ Z.conj().T)


def check_norm_inequality(frame: VectorFrame, dual: VectorFrame, x) -> tuple[float, float, bool]:
    """Compare coefficient norms of the canonical dual against any dual.

    For every dual ``psi_i`` and unit ``x`` the canonical coefficient
    sequence has the smaller Euclidean norm:
    ``||(<x, S^{-1} phi_i>)_i||_2 <= ||(<x, psi_i>)_i||_2``.
    Returns ``(lhs, rhs, holds)``; ``holds`` allows a slack relative to
    ``rhs``, since coefficient norms scale inversely with the frame.
    """
    if not frame.is_frame:
        raise NotAFrame("only spanning families have duals")
    v = _as_unit_vector(x, frame.ambient_dim)
    if not frame.tol.reconstructs(dual_residual(frame, dual)):
        raise NotADual("candidate fails the reconstruction identity")
    lhs = float(np.linalg.norm(frame.dual_synthesis.conj().T @ v))
    rhs = float(np.linalg.norm(dual.synthesis.conj().T @ v))
    return lhs, rhs, frame.tol.within(lhs, 0.0, rhs)


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
    the corresponding extreme for the frame itself.  The dual's lines are
    ``S^-1 W_i`` for the frame's lines ``W_i``, so this is the rank-one case
    of :class:`ffk.fusion.OperatorImageReport`'s bracket with ``U = S^-1``,
    whose ``||U|| ||U^-1||`` is ``B / A``.
    """
    d_minus, d_plus = redundancy_range(canonical_dual(frame))  # raises NotAFrame first
    low, high = frame._operator_range
    k = high / low
    r_minus, r_plus = redundancy_range(frame)
    lower, upper = k**-2, k**2
    ratio_minus = d_minus / r_minus
    ratio_plus = d_plus / r_plus
    holds = frame.tol.within((ratio_minus, ratio_plus), lower, upper)
    return SandwichCheck(lower, ratio_minus, ratio_plus, upper, holds)
