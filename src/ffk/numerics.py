"""Dense linear-algebra substrate with explicit tolerance contracts.

Everything above this module (vector frames, weighted subspace families,
duality certificates) is phrased in terms of a handful of primitives:
rank-revealing orthonormalization, Hermitian eigenvalue ranges, kernel
dimensions, Gaussian draws, and Haar sampling on the unit sphere: unit
vectors, and sphere weights (the squared moduli of a Haar unit vector's
coordinates).  Frames invert ``S`` through one QR factor of ``T*``, not
a solve here.  Every cutoff decision in the package is a predicate of the
one :class:`Tolerance`, ``DEFAULT_TOLERANCE`` (``frame.tol``, and the
primitives' ``tol`` default): ``rank``, ``spans`` (through ``floor``)
and ``negligible`` apply ``rank_rel``; ``flat``, ``near``, ``parseval``
and ``within`` apply ``eig_rel``; ``reconstructs`` applies
``recon_abs``; unit vectors and bases are checked at scale 1.
Scale rule: a cutoff is relative to the scale of what it decides (the
largest singular or eigenvalue or bracket end, a family's largest norm),
so results are invariant under rescaling; only ``near`` (quantities of
scale 1) and ``reconstructs`` are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllColumnsNumericallyZero,
    DimensionMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    NotSquare,
    NotUnitVector,
    ZeroVector,
)

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs used throughout the package.

    rank_rel   relative singular-value cutoff for rank decisions
    eig_rel    relative slack when comparing eigenvalues and bounds
    recon_abs  absolute residual allowed in reconstruction identities
    """

    rank_rel: float = 1e-10
    eig_rel: float = 1e-9
    recon_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eig_rel", "recon_abs"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")

    def rank(self, s: np.ndarray) -> int:
        """Numerical rank: how many descending singular values ``s`` exceed ``rank_rel`` times the largest."""
        return int(np.count_nonzero(s > self.rank_rel * s[0])) if s.size else 0

    def floor(self, high):
        """What ``low`` must exceed for ``spans(low, high)``: ``rank_rel * high``, elementwise."""
        return self.rank_rel * high

    def spans(self, low, high):
        """Whether a PSD spectrum is nonsingular: ``high > 0 and low > floor(high)``, elementwise."""
        return (high > 0.0) & (low > self.floor(high))

    def negligible(self, residual, scale) -> bool:
        """Whether every ``residual`` is zero for data of size ``scale``: ``<= rank_rel * scale``."""
        return bool(np.max(residual) <= self.rank_rel * scale)

    def flat(self, low, high) -> bool:
        """Whether ``[low, high]`` is one value up to ``eig_rel``: ``high - low <= eig_rel * high``."""
        return bool(high - low <= self.eig_rel * high)

    def near(self, a, b) -> bool:
        """Whether ``max |a - b| <= eig_rel``, for quantities of scale 1."""
        return bool(np.max(np.abs(np.subtract(a, b))) <= self.eig_rel)

    def parseval(self, low, high) -> bool:
        """Whether the spectrum ``[low, high]`` is flat at 1: the Parseval rule."""
        return self.flat(low, high) and self.near(high, 1.0)

    def within(self, values, lower, upper) -> bool:
        """Whether values lie in ``[lower, upper]`` (ends may be arrays, one per value) up to a slack.

        The slack is ``eig_rel * max(1, |lower|, |upper|)`` over finite ends; an infinite end bounds nothing.
        """
        ends = np.abs(np.append(lower, upper))
        slack = self.eig_rel * ends[np.isfinite(ends)].max(initial=1.0)
        values = np.asarray(values)
        return bool(np.all((lower - slack <= values) & (values <= upper + slack)))

    def reconstructs(self, residual) -> bool:
        """Whether a reconstruction residual is at most ``recon_abs``."""
        return bool(residual <= self.recon_abs)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class FrameBounds:
    """Two-sided energy bounds (lower, upper) of a frame inequality.

    ``lower`` is ``None`` for Bessel-only families, which admit an upper
    bound but no positive lower one; their ``upper`` may be 0, for a family
    whose operator is zero in floating point.  When present the bounds
    satisfy ``0 < lower <= upper < inf``.
    """

    lower: float | None
    upper: float

    def __post_init__(self):
        if not np.isfinite(self.upper) or self.upper < 0.0:
            raise ValueError(f"upper bound must be nonnegative and finite, got {self.upper!r}")
        if self.lower is not None:
            if not np.isfinite(self.lower) or self.lower <= 0.0:
                raise ValueError(f"lower bound must be positive and finite, got {self.lower!r}")
            if self.lower > self.upper:
                raise ValueError(f"bounds out of order: {self.lower!r} > {self.upper!r}")


def field_of(array: np.ndarray) -> str:
    """Scalar field of an array: ``"complex"`` or ``"real"``."""
    return COMPLEX if np.iscomplexobj(array) else REAL


def _require_finite(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.size and not np.all(np.isfinite(M)):
        raise NonFiniteEntries(f"{what} contains NaN or infinite entries")
    return M


def _require_square(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquare(f"{what} must be square, got shape {M.shape}")
    return M


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_unit_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got shape {v.shape}")
    _require_finite(v, "vector")
    if not DEFAULT_TOLERANCE.negligible(abs(np.linalg.norm(v) - 1.0), 1.0):
        raise NotUnitVector(f"||x|| = {float(np.linalg.norm(v))!r} is not 1 within {DEFAULT_TOLERANCE.floor(1.0)}")
    return v


def _as_vector_columns(vectors, where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Nonzero 1-d vectors of one shape as the columns of a finite matrix, with their norms.

    The matrix is ``complex128`` if any vector is complex, else ``float64``.
    A norm at or below ``floor`` of the largest is zero.  Errors begin with ``where``.
    """
    rows = [np.asarray(v) for v in vectors]
    if not rows:
        raise DimensionMismatch(f"{where}a frame needs at least one vector")
    dim = rows[0].shape
    if len(dim) != 1 or dim[0] < 1:
        raise DimensionMismatch(f"{where}frame vectors must be 1-d, got shape {dim}")
    for i, row in enumerate(rows):
        if row.shape != dim:
            raise DimensionMismatch(f"{where}vector {i} has shape {row.shape}, expected {dim}")
    matrix = np.stack(rows, axis=1)
    dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
    matrix = _require_finite(matrix.astype(dtype), f"{where}frame vectors")
    norms = _require_finite(np.linalg.norm(matrix, axis=0), f"{where}frame vector norms")
    if not np.all(DEFAULT_TOLERANCE.spans(norms, norms.max())):
        raise ZeroVector(f"{where}vector {int(np.argmin(norms))} has numerically zero norm")
    return matrix, norms


def _orthonormal_basis(basis, where: str = "") -> np.ndarray:
    """A new ``complex128`` or ``float64`` copy of a finite n x d basis (1 <= d <= n), orthonormal at scale 1."""
    B = np.asarray(basis)
    if B.ndim != 2 or not (1 <= B.shape[1] <= B.shape[0]):
        raise DimensionMismatch(f"{where}basis must be n x d with 1 <= d <= n, got shape {B.shape}")
    _require_finite(B, f"{where}basis")
    gram_defect = np.abs(B.conj().T @ B - np.eye(B.shape[1])).max()
    if not DEFAULT_TOLERANCE.negligible(gram_defect, 1.0):
        raise DimensionMismatch(f"{where}basis columns are not orthonormal (defect {gram_defect:.3e})")
    return B.astype(np.complex128 if np.iscomplexobj(B) else np.float64)


def _column_blocks(X: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """The last-axis slices ``X[..., offsets[i]:offsets[i + 1]]`` of ``X``, for each ``i``."""
    return [X[..., a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*) / 2 of a square matrix; raises :class:`NonFiniteEntries` unless it is finite."""
    M = _require_square(M)
    return _require_finite((M + M.conj().T) / 2.0)


def orthonormalize(vectors: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors``.

    Uses the SVD; columns whose singular value falls at or below
    ``tol.rank_rel`` times the largest are treated as dependent.
    Returns an ``n x r`` matrix with orthonormal columns where ``r`` is
    the numerical rank.  Raises :class:`AllColumnsNumericallyZero` when
    the rank is zero.
    """
    A = np.asarray(vectors)
    if A.ndim != 2 or A.shape[1] < 1 or A.shape[0] < 1:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix of column vectors, got shape {A.shape}")
    _require_finite(A, "column matrix")
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = tol.rank(s)
    if rank == 0:
        raise AllColumnsNumericallyZero("every column is numerically zero")
    return np.ascontiguousarray(U[:, :rank])


def hermitian_eigenrange(M: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the decomposition, so tiny
    asymmetries from accumulated roundoff are harmless.
    """
    H = symmetrize(M)
    eigenvalues = np.linalg.eigvalsh(H)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def kernel_dimension(M: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Dimension of the null space of ``M`` under the relative rank cutoff."""
    A = np.asarray(_require_finite(M))
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    return A.shape[1] - tol.rank(np.linalg.svd(A, compute_uv=False))


def solve_hermitian_positive(
    M: np.ndarray, rhs: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Solve ``M X = rhs`` for Hermitian positive definite ``M``, decided by ``Tolerance.spans``.

    One eigendecomposition decides and inverts, and one refinement step
    follows; the error still grows like ``cond(M) eps``, so frames invert
    ``S`` through the QR factor of ``T*`` instead (:class:`ffk.fusion.FusionFrame`).
    """
    H = symmetrize(M)
    B = _require_finite(np.asarray(rhs), "right-hand side")
    if B.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"right-hand side has {B.shape[0]} rows, expected {H.shape[0]}")
    eigenvalues, V = np.linalg.eigh(H)
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    if not tol.spans(low, high):
        raise NotPositiveDefinite(f"spectrum [{low:.3e}, {high:.3e}] fails the positivity cutoff")
    scale = eigenvalues.reshape((-1,) + (1,) * (B.ndim - 1))

    def apply_inverse(Y):
        return V @ ((V.conj().T @ Y) / scale)

    X = apply_inverse(B)
    return X + apply_inverse(B - H @ X)


def gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """Standard normal entries of ``shape``; for the complex field a second draw gives the imaginary parts."""
    G = rng.standard_normal(shape)
    if field == COMPLEX:
        G = G + 1j * rng.standard_normal(shape)
    elif field != REAL:
        raise ValueError(f"unknown field {field!r}")
    return G


def sample_unit_vectors(
    rng: np.random.Generator, dim: int, count: int = 1, field: str = COMPLEX
) -> np.ndarray:
    """``count`` Haar-uniform unit vectors in dimension ``dim``: rows of :func:`gaussian`, normalized."""
    if dim < 1 or count < 1:
        raise DimensionMismatch(f"need dim >= 1 and count >= 1, got {dim}, {count}")
    X = gaussian(rng, (count, dim), field)
    norms = np.linalg.norm(X, axis=1)
    while np.any(norms < 1e-12):  # astronomically unlikely, but stay total
        bad = norms < 1e-12
        X[bad] = gaussian(rng, (int(bad.sum()), dim), field)
        norms = np.linalg.norm(X, axis=1)
    return X / norms[:, None]


def sphere_weights(
    rng: np.random.Generator, dim: int, count: int = 1, field: str = COMPLEX
) -> np.ndarray:
    """Squared moduli ``|x_k|^2`` of ``count`` Haar-uniform unit vectors in dimension ``dim``, one row each.

    Real field: the squares of the :func:`gaussian` draws that
    :func:`sample_unit_vectors` makes, normalized per row, so the rows
    follow Dirichlet(1/2, ..., 1/2).  Complex field: ``|a + ib|^2`` of a
    standard complex normal is ``2 Exp(1)``, so the rows are standard
    exponential draws, normalized per row, and follow Dirichlet(1, ..., 1);
    that takes half the variates of the complex Gaussian draw.  Rows are
    drawn in order, so calls for ``a`` and then ``b`` rows give the rows of
    one call for ``a + b`` unless a row summing below 1e-24 is redrawn:
    that redraw follows its own call's rows.  ``redundancy_samples`` draws
    in such blocks.
    """
    if dim < 1 or count < 1:
        raise DimensionMismatch(f"need dim >= 1 and count >= 1, got {dim}, {count}")
    if field == COMPLEX:
        def draw(rows):
            return rng.standard_exponential((rows, dim))
    else:
        def draw(rows):
            return np.square(gaussian(rng, (rows, dim), field))
    W = draw(count)
    sums = W.sum(axis=1)
    while np.any(sums < 1e-24):  # the squared norm cutoff of sample_unit_vectors
        bad = sums < 1e-24
        W[bad] = draw(int(bad.sum()))
        sums = W.sum(axis=1)
    W /= sums[:, None]
    return W


QUADRATIC_FORM_BLOCK_ROWS = 2048


def quadratic_forms(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Real parts of ``x* M x`` for every row ``x`` of ``X``.

    Rows are processed in fixed blocks so the temporaries stay small
    however many rows ``X`` has.
    """
    values = np.empty(X.shape[0])
    for start in range(0, X.shape[0], QUADRATIC_FORM_BLOCK_ROWS):
        block = X[start:start + QUADRATIC_FORM_BLOCK_ROWS]
        values[start:start + QUADRATIC_FORM_BLOCK_ROWS] = np.sum((block.conj() @ M) * block, axis=1).real
    return values
