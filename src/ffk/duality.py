"""Dual families of fusion frames: the canonical dual and verified duals.

The canonical dual of a fusion frame maps each subspace through the
inverse frame operator, keeping the weight.  A more general dual is any
weighted Bessel family ``{(V_i, u_i)}`` satisfying the reconstruction
identity ``x = sum_i u_i v_i P_{V_i} S^{-1} P_{W_i} x``.

The ratio checks in this module compare pointwise redundancies of a
frame and a dual against claimed multiplicative brackets, which exact
extremes do leave (tight families among others): a violation is a
``holds: false`` to log, never an exception.  :func:`alternate_dual_bounds`
decides on exact extremes, :func:`canonical_ratio_bounds` on samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADual, NotAFusionFrame, NotPositiveDefinite, NotUniformWeights
from .fusion import FusionFrame, frame_bounds
from .numerics import FrameBounds, quadratic_forms, sample_unit_vectors


@dataclass(frozen=True)
class DualCertificate:
    """Outcome of the reconstruction check for a candidate dual family."""

    residual: float
    is_dual: bool
    bessel_bound: float


@dataclass(frozen=True)
class RatioBoundsCheck:
    """Observed redundancy ratios against a claimed bracket.

    ``observed`` holds the sampled (min, max) of the pointwise ratio;
    ``holds`` records whether every sample landed inside
    ``[lower, upper]`` up to eigenvalue slack.
    """

    lower: float
    observed: tuple[float, float]
    upper: float
    holds: bool
    samples: int


@dataclass(frozen=True)
class DualBoundsCheck:
    """Frame-bound and redundancy-ratio checks for a verified dual pair.

    ``floor`` is the guaranteed lower frame bound of the dual,
    ``dual_bounds`` its computed bounds, and ``bounds_hold`` whether the
    guarantee is met.  ``observed`` holds the exact (min, max) of the
    pointwise redundancy ratio dual/frame over the unit sphere;
    ``ratios_hold`` records whether it lies in the claimed ``[lower,
    upper]`` up to eigenvalue slack, and ``holds`` conjoins both.
    """

    floor: float
    dual_bounds: FrameBounds
    bounds_hold: bool
    lower: float
    observed: tuple[float, float]
    upper: float
    ratios_hold: bool
    holds: bool


def _require_uniform_one(frame: FusionFrame, what: str) -> None:
    if not frame.tol.near(frame.weights, 1.0):
        raise NotUniformWeights(f"{what} is stated for families with every weight equal to 1")


def _member_of_column(frame: FusionFrame) -> np.ndarray:
    return np.repeat(np.arange(frame.member_count), frame.dims)


def canonical_dual_fusion(frame: FusionFrame) -> FusionFrame:
    """The canonical dual family {(S^-1 W_i, v_i)}, computed once per frame."""
    if not frame.is_frame:
        raise NotAFusionFrame("Bessel-only families have no canonical dual")
    return frame.canonical_dual


def canonical_ratio_bounds(frame: FusionFrame, rng: np.random.Generator, samples: int = 1000) -> RatioBoundsCheck:
    """Sweep the pointwise ratio R_frame / R_dual against the claimed bracket [A^3/B, B^3/A].

    Stated for families with unit weights.  The bracket is a claim: tight
    non-Parseval families sit at ratio 1 while it degenerates to {A^2}, and
    exact extremes leave it on generic frames too, so ``holds`` is an
    observation.  What follows is ``[(A/B)^2, (B/A)^2]``: Gavruta's ``P_W U*
    P_{UW} = P_W U*`` for ``U = S^-1``, and its mirror for ``U^-1``, give
    ``A^2 <S^-1 x, x> <= R_dual(x) <= B^2 <S^-1 x, x>``, with ``<S^-1 x, x>``
    in ``[1/B, 1/A]`` and ``R_frame(x)`` in ``[A, B]``.
    """
    _require_uniform_one(frame, "the canonical ratio bracket")
    bounds = frame_bounds(frame)
    A, B = bounds.lower, bounds.upper
    dual = frame.canonical_dual
    X = sample_unit_vectors(rng, frame.ambient_dim, samples, frame.field)
    ratios = quadratic_forms(X, frame.normalized_operator) / quadratic_forms(X, dual.normalized_operator)
    lower, upper = A**3 / B, B**3 / A
    return RatioBoundsCheck(
        lower=lower,
        observed=(float(ratios.min()), float(ratios.max())),
        upper=upper,
        holds=frame.tol.within(ratios, lower, upper),
        samples=samples,
    )


def verify_alternate_dual(frame: FusionFrame, candidate: FusionFrame) -> DualCertificate:
    """Test the reconstruction identity for a candidate dual family.

    The reconstruction operator ``sum_i u_i v_i P_{V_i} S^-1 P_{W_i}``
    is applied to the ambient basis; the residual is the worst column
    deviation from the identity.  With stacked bases ``Q`` (frame) and
    ``R`` (candidate), synthesis matrix ``T`` of the frame and ``U`` of
    the candidate, the operator is ``U (M o R* S^-1 T) Q*`` where ``M``
    keeps the blocks that pair a member with itself, so the frame's one
    ``S^-1 T``, which its canonical dual reads too, serves every member.
    The certificate also reports the candidate's Bessel bound (largest
    eigenvalue of its weighted operator), which is always finite.
    """
    if not frame.is_frame:
        raise NotAFusionFrame("duals are defined against a fusion frame")
    if candidate.ambient_dim != frame.ambient_dim or candidate.field != frame.field:
        raise NotADual("candidate lives in a different space")
    if candidate.member_count != frame.member_count:
        raise NotADual(
            f"candidate has {candidate.member_count} members, expected {frame.member_count}"
        )
    inner = candidate.bases.conj().T @ frame.dual_synthesis
    same_member = np.equal.outer(_member_of_column(candidate), _member_of_column(frame))
    reconstruction = candidate.synthesis @ np.where(same_member, inner, 0.0) @ frame.bases.conj().T
    residual = float(np.linalg.norm(np.eye(frame.ambient_dim) - reconstruction, axis=0).max())
    return DualCertificate(
        residual=residual,
        is_dual=frame.tol.reconstructs(residual),
        bessel_bound=float(candidate._operator_range[1]),
    )


def alternate_dual_bounds(frame: FusionFrame, dual: FusionFrame) -> DualBoundsCheck:
    """Check a verified dual's bounds and its exact redundancy ratio extremes.

    The dual's lower frame bound is at least ``floor = 1 / (B ||S^-1||^2)``,
    an invariant: the adjoint of the reconstruction identity is ``x =
    sum_i u_i v_i P_{W_i} S^-1 P_{V_i} x``, so by Cauchy-Schwarz ``||x||^2
    <= ||S^-1|| (sum_i u_i^2 ||P_{V_i} x||^2)^(1/2) (B ||x||^2)^(1/2)``.
    With unit weights ``R_dual / R_frame`` is a quotient of Hermitian forms
    whose extremes (Courant-Fischer) are the extreme eigenvalues of ``L^-1
    S1_dual L^-*`` for any ``S1_frame = L L*``: here ``L = R*`` from the QR
    factor ``Q* = Z R`` of the stacked bases, and they are the squared
    singular values of ``L^-1 Q_dual``, so roundoff grows with ``sqrt(cond
    S1)``, not ``cond S1``.  The bracket ``[1 / ||S^-1||^2, C / A]`` (``C``
    the dual's Bessel bound) is a claim: its upper end holds, as ``R_dual
    <= C`` and ``R_frame >= A``, but the floor gives only ``A^2 / B^2`` for
    the lower one, and on tight families with ``A > 1`` the claimed lower
    end exceeds the upper one; containment is reported.
    """
    certificate = verify_alternate_dual(frame, dual)
    if not certificate.is_dual:
        raise NotADual(f"reconstruction residual {certificate.residual:.3e} exceeds tolerance")
    _require_uniform_one(frame, "the dual ratio bracket")
    _require_uniform_one(dual, "the dual ratio bracket")
    A, B = frame._operator_range  # a frame: verify_alternate_dual checked
    inv_norm = 1.0 / A  # ||S^-1|| for the weighted operator
    floor = 1.0 / (B * inv_norm**2)
    dual_bounds = frame_bounds(dual)
    bounds_hold = frame.tol.within(dual_bounds.lower, floor, np.inf)
    R = np.linalg.qr(frame.bases.conj().T, mode="r")  # S1_frame = Q Q* = R* R
    try:
        scaled = np.linalg.solve(R.conj().T, dual.bases)  # L^-1 Q_dual
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("the frame's S1 is singular") from exc
    ratios = np.linalg.svd(scaled, compute_uv=False) ** 2
    observed = (float(ratios[-1]), float(ratios[0]))
    lower = 1.0 / inv_norm**2
    upper = certificate.bessel_bound / A
    ratios_hold = frame.tol.within(observed, lower, upper)
    return DualBoundsCheck(
        floor=floor,
        dual_bounds=dual_bounds,
        bounds_hold=bounds_hold,
        lower=lower,
        observed=observed,
        upper=upper,
        ratios_hold=ratios_hold,
        holds=bounds_hold and ratios_hold,
    )
