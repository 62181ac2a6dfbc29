"""Weighted subspace families: bounds, redundancy, excess and ``erase``; :mod:`ffk.erasure` searches erasures.

A fusion frame is a finite family of closed subspaces ``W_i`` with
positive weights ``v_i`` such that the weighted projection energy
``sum_i v_i^2 ||P_i x||^2`` is bounded above and below by positive
multiples of ``||x||^2``.  The pointwise redundancy drops the weights:
``R(x) = sum_i ||P_i x||^2`` for unit ``x``, the Rayleigh quotient of
the normalized operator ``sum_i P_i``; its extremes over the sphere are
the eigenvalue range of that operator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .erasure import _weight_rule
from .erasure import erasure_certificate  # perfbench/workloads.py imports it from here until ROADMAP item 1
from .errors import (
    AllColumnsNumericallyZero,
    DimensionMismatch,
    EmptyRemainder,
    InvariantViolation,
    NonPositiveWeight,
    NotAFusionFrame,
    NotPositiveDefinite,
    SingularOperator,
    ZeroSubspace,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    FrameBounds,
    REAL,
    field_of,
    hermitian_eigenrange,
    kernel_dimension,
    orthonormalize,
    sphere_weights,
    symmetrize,
    _as_unit_vector,
    _chunk_rows,
    _column_blocks,
    _orthonormal_basis,
    _read_only,
    _require_finite,
    _require_square,
)

class Subspace:
    """One member's orthonormal basis: a read-only view of its block of ``FusionFrame.bases``."""

    def __init__(self, basis: np.ndarray):
        self.basis = basis


class WeightedSubspace:
    """One member of a :class:`FusionFrame` as its ``members`` view shows it: its subspace and its weight."""

    def __init__(self, subspace: Subspace, weight: float):
        self.subspace, self.weight = subspace, weight


def _positive_weight(weight, where: str = "") -> float:
    w = float(weight)
    if not np.isfinite(w) or w <= 0.0:
        raise NonPositiveWeight(f"{where}weight must be strictly positive, got {weight!r}")
    return w


class FusionFrame:
    """A weighted subspace family over a fixed ambient space.

    Construction never fails on span deficiencies: a family whose
    weighted operator has numerically zero smallest eigenvalue is kept
    and tagged Bessel-only (``is_frame`` is ``False``); operations that
    need a positive lower bound raise :class:`NotAFusionFrame` instead.
    Every cutoff reads ``tol``, the class attribute ``DEFAULT_TOLERANCE``.

    ``FusionFrame(bases, weights)``, per member an n x d_i matrix with
    orthonormal columns and a positive weight, checked once (an error about
    one member begins ``member i: ``), is the one way to build a family.
    The frame keeps only its stacked form, all read-only: ``weights``,
    ``dims`` and ``bases`` (n x m), member ``i`` owning columns
    ``offsets[i]:offsets[i + 1]``.  From it derive ``synthesis``
    ``T = [v_1 Q_1 | ... | v_N Q_N]``, ``operator`` ``S = T T*`` and, on
    first use, ``normalized_operator`` ``S1 = Q Q*``, ``normalized_spectrum`` its
    ascending eigenvalues, ``dual_synthesis``
    ``S^-1 T``, from one QR factor of ``T*`` for frames only (``is_frame``
    is the one positivity decision), and ``canonical_dual`` the family
    ``{(S^-1 W_i, v_i)}``.  :class:`ffk.vector_frames.VectorFrame`, the
    rank-one case, shares that assembly.  ``members`` shows the member
    blocks as :class:`WeightedSubspace` objects for the benchmark's probe,
    its one reader; the package and its tests read the stacked form.
    """

    tol = DEFAULT_TOLERANCE

    def __init__(self, bases, weights):
        bases, weights = list(bases), list(weights)
        if len(bases) != len(weights):
            raise DimensionMismatch(f"{len(bases)} bases for {len(weights)} weights")
        if not bases:
            raise DimensionMismatch("a fusion frame needs at least one member")
        bases = [_orthonormal_basis(B, f"member {i}: ") for i, B in enumerate(bases)]
        if len({B.dtype for B in bases}) > 1:
            raise DimensionMismatch("members mix real and complex scalar fields")
        for i, B in enumerate(bases):
            if len(B) != len(bases[0]):
                raise DimensionMismatch(f"member {i} lives in dimension {len(B)}, expected {len(bases[0])}")
        weights = [_positive_weight(w, f"member {i}: ") for i, w in enumerate(weights)]
        self._assemble(np.concatenate(bases, axis=1), np.array(weights), np.array([B.shape[1] for B in bases]))

    def _assemble(self, bases, weights, dims, synthesis=None):
        """Own the stacked form; derive ``T = synthesis`` (or ``v_i Q_i``), ``S = T T*``, its range and ``is_frame``."""
        if synthesis is None:
            synthesis = bases * np.repeat(weights, dims)
        self.bases, self.weights, self.dims = _read_only(bases), _read_only(weights), _read_only(dims)
        self.offsets = _read_only(np.cumsum(np.append(0, dims)))
        self.synthesis = _read_only(synthesis)
        label = f"frame operator (largest weight {weights.max():.3g})"
        self.operator = _read_only(_require_finite(synthesis @ synthesis.conj().T, label))
        self._operator_range = hermitian_eigenrange(self.operator)
        self.is_frame = self.tol.spans(*self._operator_range)

    @cached_property
    def members(self) -> tuple[WeightedSubspace, ...]:
        """Each member's read-only block of ``bases`` and its weight; nothing is copied or checked again."""
        blocks = _column_blocks(self.bases, self.offsets)
        return tuple(WeightedSubspace(Subspace(B), w) for B, w in zip(blocks, self.weights.tolist()))

    @cached_property
    def normalized_operator(self) -> np.ndarray:
        return _read_only(self.bases @ self.bases.conj().T)

    @cached_property
    def normalized_spectrum(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(symmetrize(self.normalized_operator)))

    @cached_property
    def _synthesis_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Z, S^-1 T)`` from the QR ``T* = Z R``: ``S = R* R``, ``S^-1 T = R^-1 Z*``, ``T* S^-1 T = Z Z*``."""
        if not self.is_frame:
            raise NotPositiveDefinite("spectrum [{:.3e}, {:.3e}] fails is_frame".format(*self._operator_range))
        Z, R = np.linalg.qr(self.synthesis.conj().T)
        return _read_only(Z), _read_only(np.linalg.solve(R, Z.conj().T))

    @property
    def dual_synthesis(self) -> np.ndarray:
        return self._synthesis_factor[1]

    @cached_property
    def canonical_dual(self) -> "FusionFrame":
        """The canonical dual family, the member blocks ``v_i S^-1 Q_i`` of ``S^-1 T``; needs ``is_frame``."""
        blocks = _column_blocks(self.dual_synthesis, self.offsets)
        return build_fusion_frame(zip(blocks, self.weights), self.ambient_dim)

    @property
    def ambient_dim(self) -> int:
        return self.bases.shape[0]

    @property
    def member_count(self) -> int:
        return len(self.weights)

    @property
    def field(self) -> str:
        return field_of(self.bases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(members={self.member_count}, ambient={self.ambient_dim}, "
            f"field={self.field}, is_frame={self.is_frame})"
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Structural summary of a weighted subspace family."""

    bounds: FrameBounds
    redundancy: tuple[float, float]
    tight: bool
    parseval: bool
    uniform_weights: bool
    orthonormal_fusion_basis: bool
    minimal: bool
    excess: int
    uniform_redundancy: bool
    bessel_only: bool


def build_fusion_frame(spans, ambient_dim: int) -> FusionFrame:
    """Assemble a fusion frame from raw (span matrix, weight) pairs.

    Span matrices hold generating vectors as columns; each is
    orthonormalized, so redundant generators are harmless; the bases and
    the weights go to :class:`FusionFrame`, which checks them.
    """
    bases, weights = [], []
    for i, (vectors, weight) in enumerate(spans):
        V = np.asarray(vectors)
        if V.ndim != 2 or V.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"member {i}: span matrix has shape {V.shape}, expected {ambient_dim} rows"
            )
        try:
            bases.append(orthonormalize(V))
        except AllColumnsNumericallyZero as exc:
            raise ZeroSubspace(f"member {i}: {exc}") from exc
        weights.append(weight)
    return FusionFrame(bases, weights)


def fusion_frame_operator(frame: FusionFrame, normalized: bool = False) -> np.ndarray:
    """The operator ``sum_i v_i^2 P_i``; with ``normalized`` the weights drop."""
    return frame.normalized_operator if normalized else frame.operator


def frame_bounds(frame: FusionFrame) -> FrameBounds:
    """Optimal frame bounds: the eigenvalue range of the weighted operator."""
    low, high = frame._operator_range
    if not frame.is_frame:
        raise NotAFusionFrame(
            f"family is Bessel-only: operator spectrum [{low:.3e}, {high:.3e}]"
        )
    return FrameBounds(low, high)


def redundancy_at(frame: FusionFrame, x) -> float:
    """Pointwise redundancy sum_i ||P_i x||^2 at a unit vector."""
    v = _as_unit_vector(x, frame.ambient_dim)
    return float(np.real(v.conj() @ frame.normalized_operator @ v))


def redundancy_range(frame: FusionFrame) -> tuple[float, float]:
    """Extremes (R-, R+) of pointwise redundancy over the unit sphere.

    Defined for Bessel-only families too; there the lower extreme is
    numerically zero.
    """
    spectrum = frame.normalized_spectrum
    return float(spectrum[0]), float(spectrum[-1])


def redundancy_samples(frame: FusionFrame, rng: np.random.Generator, count: int) -> np.ndarray:
    """Redundancy values at ``count`` Haar-sampled unit vectors, from the spectrum of ``S1``.

    Write ``S1 = V diag(lambda) V*``.  At ``x = V y`` the redundancy is
    ``R(x) = sum_k lambda_k |y_k|^2``, and Haar measure on the sphere is
    invariant under the unitary ``V``, so ``y`` is Haar-distributed when
    ``x`` is: the law of ``R`` depends on the spectrum alone.  The squared
    moduli ``w_k = |y_k|^2`` of a Haar unit vector are normalized
    independent Gamma variables: ``chi^2_1 = Gamma(1/2)`` over the reals,
    so ``w`` is Dirichlet(1/2, ..., 1/2), and ``|a + ib|^2 = 2 Exp(1) =
    2 Gamma(1)`` over the complex numbers, so ``w`` is Dirichlet(1, ..., 1).
    Each value is ``w . lambda`` for one row ``w`` of :func:`sphere_weights`,
    which is ``R`` at the Haar point ``V y`` with ``y = sqrt(w)`` times
    independent uniform signs or phases; ``R`` does not see them, so they
    are not drawn.  After the draw the work is O(count n), on the cached
    ``normalized_spectrum``.

    The weights are drawn in blocks of ``rows`` rows, the largest power of
    two with ``8 n rows <= CHUNK_BYTES`` (at least one), into one ``count``
    vector, so memory is O(count + block) however large ``count`` is.
    Each block continues the stream of ``rng`` and redraws its own rows
    summing below 1e-24, so when nothing is redrawn the values equal the
    one-shot ``sphere_weights(rng, n, count, field) @ normalized_spectrum``
    bit for bit wherever BLAS groups the rows of that product alike.  Its
    kernels take rows in small power-of-two groups, which blocks of
    ``rows`` rows keep; a one-row product takes another kernel, so the last
    block takes a lone last row.  The seeded values' last bits also depend
    on the BLAS thread count: a thread whose share of a block's rows does
    not start on a multiple of four rounds them differently, and the
    one-shot's rows split elsewhere (``count = 20001`` on two threads).
    """
    n, spectrum = frame.ambient_dim, frame.normalized_spectrum
    rows = 1 << (_chunk_rows(n, 8).bit_length() - 1)
    values = np.empty(max(count, 0))
    starts = range(0, max(count - 1, 1), rows)  # count < 1 reaches sphere_weights, which raises before any draw
    for start, stop in zip(starts, [*starts[1:], count]):
        values[start:stop] = sphere_weights(rng, n, stop - start, frame.field) @ spectrum
    return values


def synthesis_matrix(frame: FusionFrame) -> np.ndarray:
    """Synthesis operator in local orthonormal coordinates.

    The block matrix ``[v_1 Q_1 | ... | v_N Q_N]`` mapping stacked local
    coefficients to ``sum_i v_i f_i``.  Its kernel dimension is the
    excess of the family.
    """
    return frame.synthesis


def excess(frame: FusionFrame) -> int:
    """Dimension of the synthesis kernel: local degrees of freedom minus rank.

    A fusion frame has rank ``n`` without an SVD: ``spans`` puts
    ``s_min / s_max`` of ``T`` near ``sqrt(lambda_min / lambda_max) >
    sqrt(rank_rel)``, far above the rank cutoff ``rank_rel``.
    """
    if frame.is_frame:
        return int(frame.dims.sum()) - frame.ambient_dim
    return kernel_dimension(frame.synthesis, frame.tol)


def classify(frame: FusionFrame) -> AnalysisReport:
    """Full structural classification of a weighted subspace family.

    Bessel-only families are classified too: their report has no lower
    bound and all frame-dependent flags are false.
    """
    low, high = frame._operator_range
    bessel_only = not frame.is_frame
    bounds = FrameBounds(None if bessel_only else low, high)
    r_minus, r_plus = redundancy_range(frame)
    weights = frame.weights
    parseval = frame.tol.parseval(low, high)  # implies a positive lower bound
    excess_value = excess(frame)
    return AnalysisReport(
        bounds=bounds,
        redundancy=(r_minus, r_plus),
        tight=(not bessel_only) and frame.tol.flat(low, high),
        parseval=parseval,
        uniform_weights=frame.tol.flat(weights.min(), weights.max()),
        orthonormal_fusion_basis=parseval and frame.tol.near(weights, 1.0),
        minimal=excess_value == 0,
        excess=excess_value,
        uniform_redundancy=(not bessel_only) and frame.tol.flat(r_minus, r_plus),
        bessel_only=bessel_only,
    )


def union(a: FusionFrame, b: FusionFrame) -> FusionFrame:
    """Concatenation of two families over the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.field != b.field:
        raise DimensionMismatch(f"scalar fields differ: {a.field} vs {b.field}")
    blocks = _column_blocks(a.bases, a.offsets) + _column_blocks(b.bases, b.offsets)
    return FusionFrame(blocks, np.concatenate([a.weights, b.weights]))


def erase(frame: FusionFrame, indices) -> tuple[FusionFrame, float | None]:
    """Remove the members at the given integer positions (0-based).

    Returns the remaining family and the guaranteed lower bound ``A - a``
    (``a = sum v_i^2`` erased) when the weight rule :func:`_weight_rule`
    holds for ``a``, else ``None``.  The remaining family may be Bessel-only
    (``is_frame`` false).  The floor is checked within ``[A - a, B]``:
    eigenvalue roundoff scales with ``B``.
    """
    try:
        removed = {operator.index(i) for i in indices}
    except TypeError as exc:
        raise DimensionMismatch(f"erasure indices must be integers: {exc}") from None
    J = sorted(removed)
    if any(i < 0 or i >= frame.member_count for i in J):
        raise DimensionMismatch(f"erasure indices {J} out of range for {frame.member_count} members")
    if len(J) == frame.member_count:
        raise EmptyRemainder("erasing every member leaves nothing to analyze")
    blocks = _column_blocks(frame.bases, frame.offsets)
    remaining = FusionFrame([B for i, B in enumerate(blocks) if i not in removed], np.delete(frame.weights, J))
    guaranteed: float | None = None
    if frame.is_frame:
        A, B = frame._operator_range
        a = float(sum(w**2 for w in frame.weights[J].tolist()))
        if _weight_rule(frame, a):
            guaranteed = A - a
            # Deleting weighted energy a cannot push the operator below A - a.
            if not frame.tol.within(remaining._operator_range[0], guaranteed, B):
                raise InvariantViolation(
                    f"remaining lower bound {remaining._operator_range[0]:.6g} is below the "
                    f"guaranteed floor {guaranteed:.6g}"
                )
    return remaining, guaranteed


def apply_operator(frame: FusionFrame, U: np.ndarray) -> FusionFrame:
    """Image family {(U W_i, v_i)} under an invertible operator."""
    return _image(frame, U)[0]


def _image(frame: FusionFrame, U: np.ndarray) -> tuple[FusionFrame, np.ndarray]:
    """:func:`apply_operator`'s image and the descending singular values of ``U``, from its one SVD."""
    M = _require_square(_require_finite(np.asarray(U), "operator"), "operator")
    if M.shape[0] != frame.ambient_dim:
        raise DimensionMismatch(f"operator is {M.shape[0]} x {M.shape[0]}, ambient dimension is {frame.ambient_dim}")
    if np.iscomplexobj(M) and frame.field == REAL:
        raise DimensionMismatch("complex operator applied to a real-field family")
    s = np.linalg.svd(M, compute_uv=False)
    if not frame.tol.spans(s[-1], s[0]):
        raise SingularOperator(f"singular values span [{s[-1]:.3e}, {s[0]:.3e}]")
    images = [(M @ B, w) for B, w in zip(_column_blocks(frame.bases, frame.offsets), frame.weights)]  # per member
    return build_fusion_frame(images, frame.ambient_dim), s


@dataclass(frozen=True)
class OperatorImageReport:
    """Predicted versus computed behavior of a frame under an operator.

    The invertible image of a fusion frame has bounds within the
    conditioning bracket ``[A / k^2, B k^2]`` with ``k = ||U|| ||U^-1||``,
    and each redundancy extreme moves by at most a factor ``k^2`` in
    either direction.  Both follow from ``P_W U* P_UW = P_W U*``
    (Gavruta, 2007): ``||P_W U* x|| <= ||U|| ||P_UW x||``, and for ``U^-1``,
    which maps ``UW`` onto ``W``, ``||P_UW x|| <= ||U^-1|| ||P_W U* x||``.
    With ``y = U* x``, ``||x|| / ||U^-1|| <= ||y|| <= ||U|| ||x||``, so the
    weighted sums over the members give ``A / k^2 <= A' <= B' <= B k^2``,
    and the unweighted ones put ``R'(x)`` within a factor ``k^2`` of
    ``R(y / ||y||)``, where ``y / ||y||`` covers the unit sphere.
    """

    image: FusionFrame
    condition: float
    predicted_bounds: tuple[float, float]
    computed_bounds: FrameBounds
    bounds_hold: bool
    redundancy_brackets: tuple[tuple[float, float], tuple[float, float]]
    image_redundancy: tuple[float, float]
    redundancy_holds: bool


def operator_image_report(frame: FusionFrame, U: np.ndarray) -> OperatorImageReport:
    """Apply an invertible operator and check the conditioning brackets."""
    image, s = _image(frame, U)
    bounds = frame_bounds(frame)
    k = float(s[0] / s[-1])
    predicted = (bounds.lower / k**2, bounds.upper * k**2)
    image_bounds = frame_bounds(image)
    r_minus, r_plus = redundancy_range(frame)
    brackets = ((r_minus / k**2, r_minus * k**2), (r_plus / k**2, r_plus * k**2))
    image_r = redundancy_range(image)
    return OperatorImageReport(
        image=image,
        condition=k,
        predicted_bounds=predicted,
        computed_bounds=image_bounds,
        bounds_hold=frame.tol.within((image_bounds.lower, image_bounds.upper), *predicted),
        redundancy_brackets=brackets,
        image_redundancy=image_r,
        redundancy_holds=frame.tol.within(image_r, *np.transpose(brackets)),
    )


def redundancy_equivalent(a: FusionFrame, b: FusionFrame) -> bool:
    """Whether two families have identical redundancy functions.

    Redundancy functions agree pointwise exactly when the normalized
    operators coincide, so ``Tolerance.near`` on ``Sa`` and ``Sb`` decides:
    at unit ``x`` the two differ by at most ``||Sa - Sb||_2``.
    """
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise DimensionMismatch("families live in different spaces")
    return a.tol.near(a.normalized_operator, b.normalized_operator)


@dataclass(frozen=True)
class ProjectionDecompositionCheck:
    """Whether a positive operator splits as a sum of rank-m projections."""

    is_decomposition: bool
    projections_valid: bool
    common_rank: int | None
    sum_residual: float
    trace_residual: float


def verify_projection_decomposition(T: np.ndarray, projections) -> ProjectionDecompositionCheck:
    """Check ``T = sum_i P_i`` for rank-m orthogonal projections ``P_i``.

    Each candidate must be Hermitian, idempotent, and of one common rank
    ``m``; the sum must reproduce ``T`` entrywise within 1e-10, which
    forces ``tr T = m N``.
    """
    T = _require_square(_require_finite(np.asarray(T)))
    mats = [_require_square(_require_finite(np.asarray(P)), f"projection {i}") for i, P in enumerate(projections)]
    if not mats:
        raise DimensionMismatch("need at least one projection")
    for i, P in enumerate(mats):
        if P.shape != T.shape:
            raise DimensionMismatch(f"projection {i} has shape {P.shape}, expected {T.shape}")
    tol = DEFAULT_TOLERANCE
    valid = True
    ranks = []
    for P in mats:
        hermitian = tol.negligible(np.abs(P - P.conj().T), 1)
        idempotent = tol.negligible(np.abs(P @ P - P), 1)
        trace = float(np.real(np.trace(P)))
        rank = round(trace)
        valid = valid and hermitian and idempotent and tol.negligible(abs(trace - rank), max(1, P.shape[0]))
        ranks.append(rank)
    common_rank = ranks[0] if valid and len(set(ranks)) == 1 else None
    sum_residual = float(np.abs(T - sum(mats)).max())
    expected_trace = (common_rank or 0) * len(mats)
    trace_residual = float(abs(np.real(np.trace(T)) - expected_trace)) if common_rank else float("inf")
    is_decomposition = (
        valid
        and common_rank is not None
        and tol.negligible(sum_residual, 1)
        and tol.negligible(trace_residual, max(1, T.shape[0] * len(mats)))
    )
    return ProjectionDecompositionCheck(
        is_decomposition=bool(is_decomposition),
        projections_valid=bool(valid and common_rank is not None),
        common_rank=common_rank,
        sum_residual=sum_residual,
        trace_residual=trace_residual,
    )
