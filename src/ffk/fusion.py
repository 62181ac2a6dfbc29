"""Weighted subspace families: bounds, redundancy, erasures, and excess.

A fusion frame is a finite family of closed subspaces ``W_i`` with
positive weights ``v_i`` such that the weighted projection energy
``sum_i v_i^2 ||P_i x||^2`` is bounded above and below by positive
multiples of ``||x||^2``.  The pointwise redundancy drops the weights:
``R(x) = sum_i ||P_i x||^2`` for unit ``x``, the Rayleigh quotient of
the normalized operator ``sum_i P_i``; its extremes over the sphere are
the eigenvalue range of that operator.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    _column_blocks,
    _orthonormal_basis,
    _read_only,
    _require_finite,
    _require_square,
)

EXHAUSTIVE_MEMBER_LIMIT = 22
# Working-block budget: each (rows, s, s) stack of one erasure-search chunk (s = |J| d_max for G_JJ, J a removal,
# or top w for a union of top member groups in w-wide slots; n for S_J, one row per witness prefix), and each
# block of sphere weights that redundancy sampling draws.  A Gram chunk holds three such arrays at once: its
# blocks, the flat intp gather index of as many entries, and Cholesky's output: 2-3 times the budget.
CHUNK_BYTES = 1 << 17


def _chunk_rows(entries: int, itemsize: int) -> int:
    """Rows per chunk of ``entries`` items of ``itemsize`` bytes each: as many as ``CHUNK_BYTES`` holds, at least one."""
    return max(1, CHUNK_BYTES // (entries * itemsize))


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


@dataclass(frozen=True)
class ErasureCertificate:
    """Erasure robustness of a fusion frame up to a removal budget.

    ``certified``    largest k <= budget for which some k-subset removal
                     verifiably leaves a fusion frame (a witness subset's
                     remaining operator has positive smallest eigenvalue)
    ``universal``    largest k <= budget for which *every* k-subset
                     removal leaves a fusion frame
    ``weight_rule``  largest k <= budget certified by the weight-sum
                     rule alone: ``spans`` holds on ``[A - a - e_1/2,
                     B + e_1/2]``, ``a`` the k smallest ``v_i^2`` summed
                     (at most ``certified``: :func:`_weight_rule_level`)
    ``rule``         "weight-sum-bound" when the weight rule already
                     certifies ``certified``, "spectral" when only the
                     eigenvalue check does, "none" when nothing is
                     certified
    ``mode``         "exhaustive" (both exact; a spanning witness that a
                     survivor scan completes gives ``certified``) or
                     "greedy": ``certified`` from that witness alone, exact
                     when it reaches the dimension bound, else a sound
                     lower bound; ``universal`` a sound upper bound from one
                     removal path, witnessed below the budget by the
                     weakest path's failing removal
    """

    budget: int
    certified: int
    universal: int
    weight_rule: int
    rule: str
    mode: str


def _weight_rule_level(frame: FusionFrame, budget: int) -> int:
    """Largest ``k <= budget`` with ``spans(A - a_k - e_1/2, B + e_1/2)``: the weight-sum rule.

    ``a_k`` sums the ``k`` smallest ``v_i^2``, ``e_1`` is :func:`_range_error`,
    and removing ``J`` leaves ``S - a I <= S_J <= S``, ``a = sum_{i in J} v_i^2``.
    Exhaustive: the reference's range of ``S_J``, ``J`` the ``k`` smallest
    weights, lies in ``[A - a_k - e_1/2, B + e_1/2]`` (it is within ``e_1/4``
    of exact, as is ``(A, B)``), and the exact ``lambda_min > 0`` passes the
    dimension test: levels up to ``k`` have a survivor.  So greedy mode's
    witness count (:func:`_witness_level`) takes it as its floor.
    """
    erased = np.cumsum(np.sort(frame.weights**2))[:budget]
    return int(_weight_rule(frame, erased).sum())  # a prefix of levels: a_k grows


def _weight_rule(frame: FusionFrame, erased):
    """``spans(A - erased - e_1/2, B + e_1/2)``, elementwise: removing weighted energy ``erased`` leaves a frame."""
    A, B = frame._operator_range
    margin = _range_error(frame) / 2
    return frame.tol.spans(A - erased - margin, B + margin)


def _frames_left(frame: FusionFrame, H: np.ndarray) -> np.ndarray:
    """Which remaining operators ``H``, a ``(k, n, n)`` stack it overwrites, leave a frame.

    One batched ``eigvalsh`` of the symmetrized ``H`` decides each row bit
    for bit as the per-subset ``hermitian_eigenrange`` test.
    """
    H += np.conjugate(_require_finite(H)).swapaxes(1, 2)  # a new array also when H is real
    H /= 2.0  # the symmetrize() of hermitian_eigenrange, in place
    low, high = np.linalg.eigvalsh(H)[:, [0, -1]].T
    return frame.tol.spans(low, high)


def _padded(frame: FusionFrame, X: np.ndarray, label: np.ndarray) -> np.ndarray:
    """``X``, ``rows x m``, as ``(rows, g, w)``: slot ``j`` holds the columns of group ``j``'s members (``i`` in group
    ``label[i]``), then zeros, ``w`` the largest group's dimension count; ``label = arange(N)`` gives ``w = d_max``."""
    filled = [0] * (label.max() + 1)  # columns placed in each slot so far
    padded = np.zeros((len(X), len(filled), int(np.bincount(label, frame.dims).max())), X.dtype)
    for j, block in zip(label.tolist(), _column_blocks(X, frame.offsets)):
        padded[:, j, filled[j] : filled[j] + block.shape[1]] = block
        filled[j] += block.shape[1]
    return padded


def _range_error(frame: FusionFrame) -> float:
    """``e_1 = 4 (n^2 + 2 m + 8) eps tr S`` of :func:`_exhaustive_levels`; computed ranges lie within ``e_1/4``."""
    n, m = frame.ambient_dim, frame.dims.sum()
    return 4 * (n * n + 2 * m + 8) * (np.finfo(float).eps * frame.operator.trace().real)


def _gram_error(frame: FusionFrame) -> float:
    """``e_2 = 16 (m n + n^2 + (W + 1)^2) eps sqrt(t/A)`` of :func:`_exhaustive_levels`; ``G`` lies within ``e_2/4``."""
    n, m, W = frame.ambient_dim, frame.dims.sum(), frame.member_count * frame.dims.max()
    t_over_a = frame.operator.trace().real / frame._operator_range[0]
    return 16 * (m * n + n * n + (W + 1) ** 2) * np.finfo(float).eps * np.sqrt(t_over_a)


def _gram_cutoff(frame: FusionFrame) -> float:
    """The cutoff ``c`` of :func:`_exhaustive_levels`; no Gram block is certified when ``c <= 0``."""
    A, B = frame._operator_range
    return 1.0 - (frame.tol.floor(B) + _range_error(frame)) / A - _gram_error(frame)


def _shifted_gram(frame: FusionFrame, c: float, label: np.ndarray) -> np.ndarray:
    """``c I - G`` of :func:`_exhaustive_levels` in :func:`_padded` slots: ``G = Y* Y``, ``Y`` the padded ``Z*``."""
    Y = _padded(frame, frame._synthesis_factor[0].conj().T, label).reshape(frame.ambient_dim, -1)
    G = symmetrize(Y.conj().T @ Y)
    return c * np.eye(len(G)) - G


def _gram_survivors(shifted: np.ndarray, width: int, J: np.ndarray) -> np.ndarray:
    """Which rows ``J`` of slots, removals or unions of groups, their ``c I - G_JJ`` blocks of ``shifted`` certify.

    One batched Cholesky certifies every row; when it declines, one batched
    ``eigvalsh`` certifies the rows it finds positive.  Either gives
    ``lambda_max(G_JJ) <= c + (s + 1)^2 eps`` on an ``s``-square block: the
    Cholesky backward error is ``(s + 1) s eps``, that of ``eigvalsh``
    ``s^2 eps``, and rounding ``c - G_ii`` adds ``eps``.
    """
    idx = _padded_columns(J, width)
    blocks = np.take(shifted, idx[:, :, None] * len(shifted) + idx[:, None, :])
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(blocks)[:, 0] > 0.0
    return np.ones(len(J), bool)


def _padded_columns(J: np.ndarray, width: int) -> np.ndarray:
    """The columns of the slots in each row of ``J`` in a :func:`_padded` ``rows x g width`` matrix, row by row."""
    return (J[:, :, None] * width + np.arange(width)).reshape(len(J), -1)


def _exact_frames_left(frame: FusionFrame, padded: np.ndarray, J: np.ndarray) -> np.ndarray:
    """:func:`_frames_left` on ``S_J = S - Y_J Y_J*`` for each row of ``J``, by chunks within ``CHUNK_BYTES``.

    ``Y_J`` holds the columns of ``J``'s members in ``padded``, the :func:`_padded` ``T`` as ``n x N d_max``.
    """
    n, width = frame.ambient_dim, frame.dims.max()
    rows = _chunk_rows(n * max(n, J.shape[1] * width), padded.itemsize)
    left = np.empty(len(J), bool)
    for start in range(0, len(J), rows):
        Y = padded[:, _padded_columns(J[start : start + rows], width)].swapaxes(0, 1)
        H = Y @ Y.conj().swapaxes(1, 2)
        left[start : start + rows] = _frames_left(frame, np.subtract(frame.operator, H, out=H))
    return left


def _subset_chunks(N: int, k: int, rows: int):
    """``itertools.combinations(range(N), k)`` as arrays of at most ``rows`` rows."""
    indices = itertools.chain.from_iterable(itertools.combinations(range(N), k))
    while len(J := np.fromiter(itertools.islice(indices, rows * k), np.intp).reshape(-1, k)):
        yield J


def _member_groups(dims: np.ndarray, top: int, spare: int) -> np.ndarray:
    """Each member's group, packed first-fit decreasing into groups of at most ``spare // top`` dimensions.

    For a level ``top >= 2`` whose ``top`` largest ``d_i`` sum to at most
    ``spare``.  A member above that capacity is a group of its own.  Every
    member is its own group, in member order, unless the packing merges
    some, its ``top`` largest groups hold at most ``spare`` dimensions, and
    the ``C(g, top)`` union blocks of :func:`_top_pass`, side ``top w`` for
    the largest group's ``w`` dimensions, have ``C(g, top) w^2 <= C(N, top)
    d_max^2 / 2``.  So any union of ``top`` groups passes the dimension test
    either way, and ``top w <= spare < N d_max`` unless a member above the
    capacity makes ``w = d_max``.
    """
    N, capacity = len(dims), spare // top
    label, loads = np.empty(N, np.intp), []
    for i in sorted(range(N), key=lambda i: -dims[i]):
        label[i] = next((j for j, load in enumerate(loads) if load + dims[i] <= capacity), len(loads))
        if label[i] == len(loads):
            loads.append(0)
        loads[label[i]] += int(dims[i])
    g, w, d = len(loads), max(loads), int(dims.max())
    if g == N or sum(sorted(loads)[-top:]) > spare or 2 * math.comb(g, top) * w * w > math.comb(N, top) * d * d:
        return np.arange(N)
    return label


def _top_pass(frame: FusionFrame, c: float, label: np.ndarray, top: int) -> bool:
    """Whether :func:`_gram_survivors` certifies every union of ``top`` of ``label``'s groups on ``c I - G`` in
    their slots, chunk by chunk (one array, one Cholesky each), up to the first chunk it does not wholly certify."""
    shifted, g = _shifted_gram(frame, c, label), label.max() + 1
    width = len(shifted) // g
    rows = _chunk_rows((top * width) ** 2, shifted.itemsize)
    return all(_gram_survivors(shifted, width, J).all() for J in _subset_chunks(g, top, rows))


def _dimension_levels(frame: FusionFrame, budget: int) -> tuple[int, int, int]:
    """``(spare, top, hi)``: ``spare = sum_i d_i - n``, and the most of the largest, and of the smallest, ``d_i``
    whose sum fits in it, at most ``budget``.  Every removal of at most ``top`` members passes the dimension test
    ``sum_{i in J} d_i <= spare``, and none of more than ``hi`` does: the rest has ``rank S_J < n``."""
    dims, spare = np.sort(frame.dims), int(frame.dims.sum()) - frame.ambient_dim
    top = min(budget, int((np.cumsum(dims[::-1]) <= spare).sum()))
    return spare, top, min(budget, int((np.cumsum(dims) <= spare).sum()))


def _survivors(frame: FusionFrame, c: float, spare: int, k: int, built: dict):
    """Per chunk of the removals of ``k`` members in ``itertools.combinations`` order, which leave a frame.

    The dimension test fails rows unseen, :func:`_gram_survivors` certifies rows when ``c > 0``, and
    :func:`_exact_frames_left` decides the rest; ``built`` keeps ``c I - G`` and the padded synthesis.
    """
    N, n, dims = frame.member_count, frame.ambient_dim, frame.dims
    width = dims.max()
    for J in _subset_chunks(N, k, _chunk_rows((k * width if c > 0.0 else n) ** 2, frame.synthesis.itemsize)):
        alive = np.zeros(len(J), bool)
        undecided = dims[J].sum(axis=1) <= spare
        if c > 0.0 and undecided.any():
            if "shifted" not in built:
                built["shifted"] = _shifted_gram(frame, c, np.arange(N))
            alive[undecided] = _gram_survivors(built["shifted"], width, J[undecided])
            undecided &= ~alive
        if undecided.any():
            if "padded" not in built:
                built["padded"] = _padded(frame, frame.synthesis, np.arange(N)).reshape(n, -1)
            alive[undecided] = _exact_frames_left(frame, built["padded"], J[undecided])
        yield alive


def _exhaustive_levels(frame: FusionFrame, budget: int) -> tuple[int, int]:
    """``certified`` and ``universal`` from every removal of up to ``budget`` members.

    ``universal`` asks whether every removal of ``k`` members leaves a frame,
    ``certified`` whether some removal does; each is its own search below.
    A level's removals are decided in ``itertools.combinations`` order, by
    chunks (:func:`_survivors`).
    ``sum_{i in J} d_i > sum_i d_i - n`` fails unseen (``rank S_J < n``), so
    no level above ``hi`` (:func:`_dimension_levels`) is enumerated.
    The rest are decided on ``G = T* S^-1 T``, the projection onto the
    range of ``T*``, formed with ``d_max`` columns per member, or in the
    slots of member groups (:func:`_padded`) for the top pass below (a zero
    column of ``T`` adds a row and column of ``c I`` to ``c I - G_JJ``,
    which changes no decision).  ``S_J = S^1/2 (I - X X*) S^1/2`` with
    ``X = S^-1/2 T_J`` and ``X* X = G_JJ``, so with
    ``g = lambda_max(G_JJ) <= 1``:
    ``lambda_min(S_J) >= A (1 - g)`` and ``lambda_max(S_J) <= B``.

    Errors, with ``t = tr S``, ``m = sum_i d_i``, ``W = N d_max``, LAPACK
    backward errors ``p eps`` with ``p <= s^2`` on ``s``-square problems
    and ``p <= m n`` on the ``m x n`` QR,
    ``e_1 = 4 (n^2 + 2 m + 8) eps t`` and
    ``e_2 = 16 (m n + n^2 + (W + 1)^2) eps sqrt(t / A)``:

    - The ``eigvalsh`` range of the assembled ``S_J = S - Y_J Y_J*``, and
      the computed ``(A, B)``, lie within ``e_1 / 4`` of the exact ranges of
      ``S_J = sum_{i not in J} T_i T_i*`` and ``S = T T*``.  In Frobenius
      norm: rounding ``T`` costs ``2.01 eps t``, ``T T*`` ``m eps t``,
      ``Y_J Y_J*`` (at most ``m - n`` nonzero terms per entry once the
      dimension test passes) ``(m - n) eps t``, subtracting and symmetrizing
      ``2 eps t``, and ``eigvalsh`` ``n^2 eps t``.  The member sum
      ``sum_{i not in J} v_i^2 Q_i Q_i*`` costs ``(N + d_max + 5) eps t`` and
      ``eigvalsh``, also within ``e_1 / 4``.
    - The computed ``G = Z Z*``, from the frame's QR factor ``T* = Z R``,
      lies within ``e_2 / 4`` of the exact one.  ``c > 0`` gives ``e_1 < A``
      and ``e_2 < 1``, so ``sigma_n(T)^2 = lambda_min(S) >= 3A/4`` and
      ``sqrt(t / A) >= 0.86``.  Householder QR (Higham, *Accuracy and
      Stability*, Thm 19.4) gives an orthonormal ``Z'`` with ``T* + dT* =
      Z' R``, ``||dT||_F <= m n eps sqrt t`` and ``||Z - Z'||_F <= m n eps``.
      ``Z' Z'*`` projects onto the range of ``T* + dT*``, within ``||dT|| /
      (sigma_n(T) - ||dT||) <= 1.25 m n eps sqrt(t / A)`` of ``G``, as
      ``||dT|| <= e_2 sqrt(A) / 16``.  ``Z`` for ``Z'`` adds ``2.01 m n
      eps``, ``Y* Y`` ``n^2 eps`` and ``symmetrize`` ``sqrt(n) eps``: in all
      below ``4 (m n + n^2) eps sqrt(t / A)``, so ``e_2`` grows like
      ``sqrt(t / A)``, not ``t / A``.  In any slot layout each entry of
      ``G`` is that inner product of two columns of ``Z*``, or an exact 0.
    - A Cholesky success on ``c I - G_JJ``, of size ``s <= W`` (``|J|
      d_max`` for a removal ``J``, ``top w`` for a union of ``top`` groups
      below: :func:`_member_groups`), or a positive
      ``eigvalsh`` of it, gives ``lambda_max(G_JJ) <= c + (s + 1)^2 eps``
      (:func:`_gram_survivors`): below ``e_2 / 4``.

    So a certified block has ``g <= c + e_2 / 2``.  With
    ``c = 1 - (rank_rel B + e_1) / A - e_2``, ``lambda_min(S_J) >=
    (A - e_1/4)(1 - c - e_2/2) >= rank_rel B + 3 e_1/4 + A e_2/2``, so the
    reference's ``low >= rank_rel B + e_1/2 + A e_2/2`` exceeds
    ``rank_rel high`` (``high <= B + e_1/2``): the removal survives.

    One batched Cholesky of ``c I - G_JJ`` certifies a whole chunk
    (:func:`_gram_survivors`); the rows it leaves uncertified are assembled
    as ``S - Y_J Y_J*`` from the padded synthesis and decided by
    :func:`_frames_left`, which also decides every row when ``c <= 0``
    (``B / A`` near ``1 / rank_rel``).

    ``universal`` starts from the top: ``top`` is the largest level up to
    ``budget`` whose ``top`` largest ``d_i`` pass the dimension test, so
    every removal of at most ``top`` members passes it.  When ``top >= 2``,
    :func:`_member_groups` packs the members first-fit decreasing into
    ``h`` groups of at most ``spare // top`` dimensions (``spare = m -
    n``), so any union of ``top`` groups passes the dimension test, and
    ``h > top``, as such a union holds at most ``spare < m`` dimensions.
    A removal of ``top`` members touches at most ``top`` groups, so it
    lies in some union ``K`` of ``top`` groups (pigeonhole), and Cauchy
    interlacing (``G_JJ`` is a principal submatrix of ``G_KK``) gives
    ``lambda_max(G_JJ) <= lambda_max(G_KK)``.  So one Gram block per
    union, ``C(h, top)`` of them, can stand for the ``C(N, top)``
    removals.  :func:`_top_pass` packs group ``j``'s members into slot
    ``j`` of ``c I - G``, each slot as wide as the largest group's ``w``
    dimensions, and decides the groups' ``top``-subsets by chunks, one
    Cholesky each, up to the first chunk it does not wholly certify.  A
    union's block of side ``top w <= W`` is ``c I - G_KK`` and a row of
    ``c I`` per empty column, so ``c``, ``e_1`` and ``e_2`` stand.  Groups
    are merged only when the unions' blocks hold at most half the entries
    of the removals' blocks; when a merged pass ends early, the pass runs
    again on single members, the removals themselves, in the member
    layout, so a frame that no merged union certifies pays at most 1.5
    times that pass.  When every block of a pass is certified, every
    ``J' ⊂ K`` of a certified ``K`` has ``lambda_max(G_J'J') <= g <= c +
    e_2 / 2`` (interlacing again), so the chain above holds for ``S_J'``
    as for ``S_K``: the reference's ``low`` exceeds ``rank_rel high``, and
    ``J'`` survives.  So levels ``1`` to ``top`` are universal.  This needs
    Gram-certified blocks: the test ``low > rank_rel high`` on ``S_J``
    alone is not closed under subsets, since ``lambda_max(S_J')`` can grow
    faster than ``lambda_min(S_J')``.  Otherwise ``universal`` is the last
    of the levels ``1, 2, ...`` up to ``top`` whose removals all survive,
    each level decided up to its first chunk with a failing row.

    ``certified`` ends at the first level without a survivor (supersets of
    failing removals also fail); levels up to ``universal`` have one.  When
    ``universal < hi``, so has each level up to the count of
    :func:`_witness_level`, a prefix of its witness, and the levels above a
    short witness are decided up to the chunk that holds their first one.
    """
    N, members, c = frame.member_count, np.arange(frame.member_count), _gram_cutoff(frame)
    spare, top, hi = _dimension_levels(frame, budget)
    built = {}  # c I - G in the member layout and the padded synthesis, for _survivors
    universal = 0
    if c > 0.0 and top >= 2:
        groups = _member_groups(frame.dims, top, spare)
        if _top_pass(frame, c, groups, top) or groups.max() < N - 1 and _top_pass(frame, c, members, top):
            universal = top  # every removal of top members is a subset of a certified union
    while universal < top and all(alive.all() for alive in _survivors(frame, c, spare, universal + 1, built)):
        universal += 1
    certified = max(universal, _witness_level(frame, budget)) if universal < hi else universal
    while certified < hi and any(alive.any() for alive in _survivors(frame, c, spare, certified + 1, built)):
        certified += 1
    return certified, universal


def _secular_bracket(C: np.ndarray, lam: np.ndarray, delta: float, start: float) -> tuple[float, float] | None:
    """Test points ``lo < hi <= lam_1``, ``hi - lo <= delta``, with ``g(lo) < 1 <= g(hi)``, or ``None``.

    ``g(beta) = lambda_max(C* (lam - beta)^-1 C)``; ``hi = lam_1`` stands
    for the interlacing end.  Newton steps on ``1 - 1/g`` start from
    ``lam_1 - max(|c_1|^2, delta)`` or from ``start``, whichever is lower;
    once a step from a point with ``g >= 1`` (``g < 1``) is below
    ``delta``, the next test is ``delta`` below (above) that point, and a
    step that leaves ``(lo, hi)`` is replaced by bisection.
    """
    Ch = C.conj().T
    lo, hi = -np.inf, lam[0]
    x = min(lam[0] - max(np.vdot(C[0], C[0]).real, delta), start)
    for _ in range(64):
        w, V = np.linalg.eigh((Ch / (lam - x)) @ C)
        g = w[-1]
        if g >= 1.0:
            hi = x
        else:
            lo = x
        if hi - lo <= delta:
            return lo, hi
        y = (C @ V[:, -1]) / (lam - x)
        x -= g * (g - 1.0) / np.vdot(y, y).real  # Newton on 1 - 1/g
        if g >= 1.0 and hi - x < delta:
            x = hi - delta
        elif g < 1.0 and x - lo < delta:
            x = lo + delta
        if not lo < x < hi:
            x = hi - delta if lo == -np.inf else (lo + hi) / 2.0
    return None


def _spanning_witness(kernel: np.ndarray, dims: np.ndarray, spare: int, count: int) -> np.ndarray:
    """Up to ``count`` members in pick order, by block-pivoted Cholesky on ``kernel = I - G`` by member.

    ``kernel`` is in the member layout of :func:`_padded`, and the search
    overwrites it; removing ``J`` leaves a frame iff ``(I - G)_JJ`` is
    positive definite.  Each step
    eliminates, of the members that leave room for ``count`` removals
    within ``spare`` dimensions (the smallest remaining ``d_i`` fill the
    rest), the one whose Schur block has the largest ``lambda_min`` (one
    batched ``eigvalsh``), ties to the lowest index: the pivots of
    rank-revealing subset selection (Gu and Eisenstat, 1996).  When no such
    block is positive definite, ``count`` drops by one.
    """
    N, width = len(dims), len(kernel) // len(dims)
    blocks = kernel.reshape(N, width, N, width)  # a view: the eliminations below update it
    picks, free = [], np.ones(N, bool)
    while len(picks) < count:
        smallest, need = np.sort(dims[free]), count - len(picks) - 1  # need: removals after this pick
        room = spare - dims[picks].sum() - smallest[:need].sum()
        cand = np.flatnonzero(free & (np.maximum(dims, smallest[need]) <= room))  # d_i and the need smallest others fit
        low = np.linalg.eigvalsh(blocks[cand, :, cand, :])[:, 0]
        if low.max() <= 0.0:
            count -= 1  # no pick toward count removals leaves a frame: aim one lower
            continue
        picks.append(int(cand[np.argmax(low)]))
        free[picks[-1]] = False
        cols = slice(picks[-1] * width, (picks[-1] + 1) * width)
        kernel -= kernel[:, cols] @ np.linalg.solve(kernel[cols, cols], kernel[cols, :])
    return np.array(picks, np.intp)


def _witness_level(frame: FusionFrame, budget: int) -> int:
    """The leading prefixes of one :func:`_spanning_witness` that leave a frame: a level count with a survivor each.

    Greedy mode's ``certified``, and exhaustive mode's above ``universal``
    (:func:`_exhaustive_levels`, which completes a short count).
    Dimension bound: removing more than ``hi`` members, ``hi`` the number
    of the smallest ``d_i`` whose sum fits in ``spare = m - n``
    (:func:`_dimension_levels`), leaves ``rank S_J < n``, which the
    reference fails.  So a witness ``J`` of ``min(budget, hi)`` members
    whose prefixes all leave a frame proves ``certified`` exactly.  Gram
    certificate: one Cholesky of ``c I - G_JJ``, or a positive ``eigvalsh``
    when it declines (:func:`_gram_survivors`, ``c`` and ``G`` those of
    :func:`_exhaustive_levels`), gives ``lambda_max(G_JJ) <= c + (s + 1)^2
    eps``.  Interlacing: each prefix ``J_k`` indexes a principal submatrix
    of ``G_JJ``, so ``lambda_max(G_{J_k J_k}) <= lambda_max(G_JJ)``, and the
    error chain of :func:`_exhaustive_levels` gives the reference's ``low >
    rank_rel high`` on each ``S_{J_k}``: every level up to ``len(J)`` has a
    survivor.  When ``c <= 0`` or the block is not certified,
    :func:`_exact_frames_left` decides the prefixes one by one, as the
    exhaustive search decides a removal, up to the first that fails; the
    leading ones that pass count.  A shorter count is a sound lower bound,
    floored at the weight rule's level (:func:`_weight_rule_level`).
    """
    spare, _, count = _dimension_levels(frame, budget)
    if count == 0:
        return 0
    c, members = _gram_cutoff(frame), np.arange(frame.member_count)
    shifted = _shifted_gram(frame, c, members)
    witness = _spanning_witness(shifted + (1.0 - c) * np.eye(len(shifted)), frame.dims, spare, count)
    level = len(witness)
    if level and not (c > 0.0 and _gram_survivors(shifted, frame.dims.max(), witness[None])[0]):
        padded = _padded(frame, frame.synthesis, members).reshape(frame.ambient_dim, -1)
        left = (_exact_frames_left(frame, padded, witness[None, : k + 1])[0] for k in range(level))
        level = next((k for k, alive in enumerate(left) if not alive), level)  # the leading prefixes that pass
    return max(level, _weight_rule_level(frame, budget))


def _greedy_levels(frame: FusionFrame, budget: int) -> tuple[int, int]:
    """``certified`` from one spanning witness (:func:`_witness_level`), ``universal`` along the weakest removal path.

    The path extends by the member whose removal leaves the smallest lower
    bound, ties to the lowest index: member ``i``'s value ``x_i`` is the
    ``eigvalsh`` minimum of ``rest - T_i T_i*`` (``T_i = v_i Q_i``, its
    synthesis columns; ``rest = S - sum_{p in path} T_p T_p*``) that the
    full per-member loop compares.
    Tests read the last decomposition ``R_0 = U diag(lam) U*`` of the
    symmetrized rest (one ``eigh``), the
    columns ``C_i = U* T_i`` and those of the picks since then, ``Z = U*
    W``, ``W`` their synthesis columns (``rest = R_0 - W W*``, ``w``
    columns); for ``beta < lam_1``, ``lambda_min(R_0 - W W* - T_i T_i*) >
    beta`` iff ``g_i(beta) = lambda_max(Y_i* (lam - beta)^-1 Y_i) < 1``,
    ``Y_i = [Z C_i]`` (Schur complement; ``g_i(beta) = 1`` is the low-rank
    secular equation of Golub, 1973).  A level decomposes ``rest`` afresh
    when ``w + d_max > n // 8``, so below ``n = 16`` every level does, with
    ``w = 0``; otherwise ``r = w + d_i <= n // 8``, and ``r <= n`` always.
    With ``s = max|lam|``, ``[W T_i][W T_i]* <= R_0`` (what is left is a
    sum of member terms), so ``|Y_i|^2 <= s``, and LAPACK backward errors
    ``p(n) eps`` (``p <= n^2``), the errors are: ``eigh``, ``(5p + 5n^2 +
    4n) eps s`` on the matrix the test decides, the departure of ``U``
    from orthogonality on all ``r`` columns of ``Y_i`` included; the test,
    a relative ``rho <= (2 (n+4) r + p(r)) eps`` on ``lambda_max`` (its
    weights ``1/(lam_k - beta)`` are positive), as if ``lam - beta`` moved
    by ``2.1 rho s``; forming ``rest - T_i T_i*`` from ``R_0`` by ``q + 1``
    subtractions, ``q <= w`` the picks since the decomposition, ``(r^2 +
    (q + 1)(sqrt(n) + 1)) eps s``; the exact ``eigvalsh``, ``(p + 2
    sqrt(n)) eps s``.  With ``r <= n`` at ``q = 0`` and ``r, q <= n/8``
    otherwise, their sum is below ``19 (n+1)^2 eps s < delta = 32 (n+1)^2
    eps s``.  So a test at ``beta < lam_1`` that finds ``g_i >= 1`` gives
    ``x_i < beta + delta``, one that finds ``g_i < 1`` gives ``x_i > beta -
    delta``, and interlacing gives ``x_i < lam_1 + delta``.

    Brackets: ``1/g_i`` is concave below ``lam_1`` (a minimum over unit
    ``u`` of parallel sums of the affine ``(lam_k - beta) / |(Y_i u)_k|^2``),
    so Newton on ``1 - 1/g_i`` from ``lam_1 - |y_{i,1}|^2`` (at least
    ``delta`` below ``lam_1``), where ``g_i >= 1``, descends to the root
    from above; it starts lower at the last pick's certified upper end,
    above ``x_i`` but for roundoff, since ``x_i <= lambda_min(rest)``.  Test
    points ``lo < hi``, ``hi - lo <= delta``, with ``g_i(lo) < 1 <=
    g_i(hi)`` (:func:`_secular_bracket`) put ``x_i`` in ``(lo - delta, hi
    + delta)``; if 64 tests do not close a bracket, ``x_i`` is evaluated
    exactly.  Members are taken front-runner first (the most weight on
    ``U``'s first column, then the largest ``g``).  Each front-runner is
    bracketed, and one batched test at ``beta = bound + delta``, ``bound``
    the smallest certified upper end so far, drops every member it puts
    above ``bound``, which bounds that member's ``x_i`` from below; its
    matrices share the blocks ``Z* D Z`` and ``Z* D C_i``, ``D = (lam -
    beta)^-1``.  Once every member is bracketed or dropped, the smallest
    upper end's member is the pick unless another interval reaches that
    end; then the members whose intervals reach it are evaluated exactly,
    and the smallest value wins, ties to the lowest index.  Every other
    member's ``x_i`` is strictly larger, so the pick is the full loop's,
    bit for bit.

    Frames left: the full loop then decides ``spans`` on ``rest - T_p
    T_p*``, the next level's ``rest``, whose ``eigvalsh`` ``low`` is ``x_p``
    itself.  Its ``high`` is below ``lam_n + delta`` and, by interlacing
    (it is ``R_0`` less ``[W T_p][W T_p]*``, of rank ``w + d_p <= w +
    d_max``), above ``lam_{n - w - d_max} - delta``: the ``eigh`` and
    ``eigvalsh`` errors and forming it stay below ``delta``.  So a
    certified lower end ``L > floor(lam_n + delta)`` passes the pick; upper
    ends ``U <= floor(lam_{n - w - d_max} - delta)`` on every member that
    reaches the smallest upper end stop the path there, whichever of them
    the full loop picks; otherwise :func:`_frames_left` decides.

    Memory and time: each pick updates ``rest`` by one ``n x d_p`` product
    and appends its ``d_p`` columns to ``Z``, and each near-tie evaluation
    forms its ``rest - T_i T_i*`` the same way, so a level forms no ``n x
    m`` product, and the search holds O(n^2 + N n d_max) entries, never the
    N x n x n stack of the member terms.
    """
    tol, N, n, dims = frame.tol, frame.member_count, frame.ambient_dim, frame.dims
    eps = np.finfo(float).eps
    blocks, width = _padded(frame, frame.synthesis, np.arange(N)), dims.max()
    T = _column_blocks(frame.synthesis, frame.offsets)  # member i's synthesis columns T_i

    def less(rest, i):  # rest - T_i T_i*: member i removed
        return rest - T[i] @ T[i].conj().T

    universal, path = 0, []
    rest, start = frame.operator, np.inf  # start: the last pick's certified upper end
    for k in range(1, budget + 1):
        cand = np.setdiff1d(np.arange(N), path)
        if (dims[path].sum() + dims[cand] > dims.sum() - n).all():
            break  # every removal fails on its dimensions
        if k == 1 or Z.shape[1] + width > n // 8:  # rest = U diag(lam) U*, Cs[i] = U* T_i padded to width columns
            lam, U = np.linalg.eigh(symmetrize(rest))
            Cs = (U.conj().T @ blocks.reshape(n, -1)).reshape(n, N, width).swapaxes(0, 1)
            delta = 32 * (n + 1) ** 2 * eps * np.abs(lam).max()
            Z = np.empty((n, 0), Cs.dtype)  # no pick carried yet
        C, w = Cs[cand], Z.shape[1]
        lows = np.full(len(cand), -np.inf)  # certified: lows <= x_i <= highs
        highs = np.full(len(cand), np.inf)
        unseen = np.ones(len(cand), bool)  # neither bracketed nor dropped
        score = np.linalg.norm(C[:, 0], axis=1)  # larger: likely a smaller lambda_min
        while unseen.any():
            rows = np.flatnonzero(unseen)
            j = rows[np.argmax(score[rows])]
            unseen[j] = False
            bracket = _secular_bracket(np.hstack((Z, C[j])), lam, delta, start)
            if bracket is not None:  # else x_i stays unbounded, so the near-tie step evaluates it
                lows[j], highs[j] = bracket[0] - delta, bracket[1] + delta
            bound = highs.min()
            beta = bound + delta
            rows = np.flatnonzero(unseen)
            if rows.size and beta < lam[0]:
                Cr, Zd = C[rows], Z.conj().T / (lam - beta)
                G = np.empty((len(rows), w + width, w + width), C.dtype)
                G[:, :w, :w] = Zd @ Z
                G[:, :w, w:] = Zd @ Cr
                G[:, w:, :w] = G[:, :w, w:].conj().swapaxes(1, 2)
                G[:, w:, w:] = (Cr.conj().swapaxes(1, 2) / (lam - beta)) @ Cr
                score[rows] = g = np.linalg.eigvalsh(G)[:, -1]
                dropped = rows[g < 1.0]
                unseen[dropped] = False
                lows[dropped] = np.nextafter(bound, np.inf)  # x_i > bound: at least the next double above
        best = np.argmin(highs)
        reach = np.flatnonzero(lows <= highs[best])
        if w + width < n and (highs[reach] <= tol.floor(lam[n - 1 - w - width] - delta)).all():
            break  # whichever of them the full loop picks leaves no frame
        if len(reach) > 1:  # a near tie: the full loop's exact values decide
            for j in reach[lows[reach] < highs[reach]]:
                lows[j] = highs[j] = hermitian_eigenrange(less(rest, cand[j]))[0]
            best = reach[np.argmin(highs[reach])]
        path.append(int(cand[best]))
        rest, start = less(rest, path[-1]), highs[best]
        Z = np.hstack((Z, C[best, :, : dims[path[-1]]]))
        if dims[path].sum() > dims.sum() - n:
            break
        if lows[best] <= tol.floor(lam[-1] + delta) and not _frames_left(frame, rest[None].copy())[0]:
            break
        universal = k
    return _witness_level(frame, budget), universal


def erasure_certificate(
    frame: FusionFrame, budget: int | None = None, mode: str | None = None
) -> ErasureCertificate:
    """Determine how many members can be erased, verified spectrally.

    Removing the members ``J`` leaves a fusion frame iff ``S_J = S - T_J
    T_J*``, from the frame's ``S`` and synthesis columns ``T_J`` (``T_J T_J*
    = sum_{i in J} v_i^2 P_i``), passes ``Tolerance.spans`` on its range.
    Exhaustive mode (at most 22 members) gives both counts exactly, with
    that same outcome per removal, from the block ``G_JJ`` of the Gram
    matrix ``G = T* S^-1 T`` (``S_J`` is invertible iff
    ``lambda_max(G_JJ) < 1``) and, for removals that block does not
    certify, from ``S_J`` itself (:func:`_exhaustive_levels`).  Its top
    level, the largest whose removals all keep enough dimensions, is
    first tried on the blocks of unions of member groups, one ``w``-wide
    slot of ``G`` per group, ``top w <= N d_max`` square: a certified union
    certifies every removal inside it, and every smaller one.  Its
    ``certified`` completes the spanning witness below by a level scan.
    Greedy mode decides ``certified`` on that witness alone: one removal of
    up to ``hi`` members, ``hi`` the most whose dimensions can go, chosen by
    pivoting on ``I - G``; one Cholesky of ``c I - G_JJ`` certifies it and,
    by interlacing, each of its prefixes, so it is exact when the witness
    reaches ``hi`` (:func:`_witness_level`); ``universal`` follows the
    weakest removal path (:func:`_greedy_levels`).
    """
    if not frame.is_frame:
        raise NotAFusionFrame("erasure robustness is defined for fusion frames only")
    N = frame.member_count
    try:
        budget = max(0, min(N - 1 if budget is None else operator.index(budget), N - 1))
    except TypeError as exc:
        raise ValueError(f"erasure budget must be an integer: {exc}") from None
    if mode is None:
        mode = "exhaustive" if N <= EXHAUSTIVE_MEMBER_LIMIT else "greedy"
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown erasure search mode {mode!r}")
    if mode == "exhaustive" and N > EXHAUSTIVE_MEMBER_LIMIT:
        raise ValueError(f"exhaustive mode supports at most {EXHAUSTIVE_MEMBER_LIMIT} members, got {N}")
    search = _exhaustive_levels if mode == "exhaustive" else _greedy_levels
    certified, universal = search(frame, budget)
    weight_rule = _weight_rule_level(frame, budget)
    if certified == 0:
        rule = "none"
    elif weight_rule >= certified:
        rule = "weight-sum-bound"
    else:
        rule = "spectral"
    return ErasureCertificate(budget, certified, universal, weight_rule, rule, mode)


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
