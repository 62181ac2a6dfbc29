"""Seeded random constructions used by the property suites and scripts.

Everything takes an explicit ``numpy.random.Generator`` so sweeps are
reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .fusion import FusionFrame, union
from .numerics import COMPLEX, REAL, _column_blocks, gaussian, orthonormalize
from .systems import FusionFrameSystem, build_system
from .vector_frames import VectorFrame


def random_field(rng: np.random.Generator) -> str:
    return REAL if rng.integers(2) == 0 else COMPLEX


def random_subspace(rng: np.random.Generator, n: int, d: int, field: str = COMPLEX) -> np.ndarray:
    """An n x d orthonormal basis of a random d-dimensional subspace."""
    return orthonormalize(gaussian(rng, (n, d), field))


def random_fusion_frame(
    rng: np.random.Generator,
    n: int | None = None,
    members: int | None = None,
    max_dim: int | None = None,
    field: str | None = None,
) -> FusionFrame:
    """A random weighted subspace family that spans (retries otherwise)."""
    n = n or int(rng.integers(2, 9))
    field = field or random_field(rng)
    max_dim = max_dim or min(n, 4)
    fewest = -(-n // max_dim)  # fewer members of dimension <= max_dim cannot span
    if (members or 8) < fewest:
        raise DimensionMismatch(f"{members or 8} members of dimension <= {max_dim} cannot span dimension {n}")
    while True:
        count = members or int(rng.integers(max(2, fewest), 9))
        dims = rng.integers(1, max_dim + 1, size=count)
        while dims.sum() < n:  # otherwise the family cannot span
            dims[rng.integers(count)] = min(max_dim, n)
        weights = rng.uniform(0.3, 2.0, size=count)
        frame = FusionFrame([random_subspace(rng, n, int(d), field) for d in dims], weights)
        if frame.is_frame:
            return frame


def random_vector_frame(
    rng: np.random.Generator, n: int | None = None, count: int | None = None, field: str | None = None
) -> VectorFrame:
    n = n or int(rng.integers(2, 7))
    field = field or random_field(rng)
    count = count or int(rng.integers(n, 2 * n + 3))
    while True:
        frame = VectorFrame.from_matrix(gaussian(rng, (n, count), field))
        if frame.is_frame:
            return frame


def _invsqrt_psd(S: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh((S + S.conj().T) / 2.0)
    return (vectors * (1.0 / np.sqrt(values))) @ vectors.conj().T


def random_tight_vector_frame(
    rng: np.random.Generator, n: int | None = None, count: int | None = None, bound: float | None = None
) -> VectorFrame:
    """A tight frame with the requested bound, by whitening a random frame."""
    base = random_vector_frame(rng, n, count)
    bound = bound if bound is not None else float(rng.uniform(0.5, 3.0))
    return VectorFrame.from_matrix(np.sqrt(bound) * (_invsqrt_psd(base.operator) @ base.matrix))


def random_unitary(rng: np.random.Generator, n: int, field: str = COMPLEX) -> np.ndarray:
    Q, R = np.linalg.qr(gaussian(rng, (n, n), field))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_invertible(
    rng: np.random.Generator, n: int, field: str = COMPLEX, condition: float | None = None
) -> np.ndarray:
    """An invertible operator, optionally with a prescribed condition number."""
    if condition is None:
        while True:
            M = gaussian(rng, (n, n), field)
            s = np.linalg.svd(M, compute_uv=False)
            if s[-1] > 1e-6 * s[0]:
                return M
    singular = np.geomspace(condition, 1.0, n)
    return (random_unitary(rng, n, field) * singular) @ random_unitary(rng, n, field)


def random_orthogonal_decomposition(
    rng: np.random.Generator, n: int, parts: int | None = None, field: str = COMPLEX
) -> FusionFrame:
    """Random orthogonal direct sum of the ambient space (unit weights).

    With unit weights this is an orthonormal fusion basis; it is the
    canonical example of a minimal family with zero excess.
    """
    parts = parts or int(rng.integers(1, n + 1))
    U = random_unitary(rng, n, field)
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False)) if parts > 1 else np.array([], dtype=int)
    pieces = np.split(np.arange(n), cuts)
    return FusionFrame([U[:, piece] for piece in pieces], [1.0] * len(pieces))


def random_tight_uniform_fusion_frame(rng: np.random.Generator, n: int, layers: int = 2) -> FusionFrame:
    """Union of ``layers`` complex orthonormal fusion bases: layers-tight, unit weights."""
    frame = random_orthogonal_decomposition(rng, n)
    for _ in range(layers - 1):
        frame = union(frame, random_orthogonal_decomposition(rng, n))
    return frame


def random_parseval_fusion_frame(rng: np.random.Generator, n: int, layers: int = 2) -> FusionFrame:
    """``random_tight_uniform_fusion_frame`` with all weights ``1/sqrt(layers)``: Parseval.

    The ``layers`` decompositions so weighted sum to the identity; with
    ``layers=1`` this is an orthonormal fusion basis.
    """
    scale = 1.0 / np.sqrt(layers)
    tight = random_tight_uniform_fusion_frame(rng, n, layers)
    return FusionFrame(_column_blocks(tight.bases, tight.offsets), [scale] * tight.member_count)


def random_local_vectors(
    rng: np.random.Generator, frame: FusionFrame, kind: str = "orthogonal"
) -> list[np.ndarray]:
    """Per-member local vector lists for a system over ``frame``.

    ``orthogonal``  scaled rotated orthonormal bases of each subspace
    ``parseval``    Parseval frames for each subspace (possibly overcomplete)
    ``generic``     overcomplete Gaussian families inside each subspace
    """
    locals_ = []
    field = frame.field
    for Q in _column_blocks(frame.bases, frame.offsets):
        d = Q.shape[1]
        if kind == "orthogonal":
            rotation = random_unitary(rng, d, field) if d > 1 else np.ones((1, 1))
            scales = rng.uniform(0.5, 2.0, size=d)
            local = Q @ (rotation * scales)
        elif kind == "parseval":
            m = int(rng.integers(d, d + 3))
            C = gaussian(rng, (d, m), field)
            local = Q @ (_invsqrt_psd(C @ C.conj().T) @ C)
        elif kind == "generic":
            m = int(rng.integers(d + 1, d + 4))
            C = gaussian(rng, (d, m), field)
            local = Q @ C
        else:
            raise ValueError(f"unknown local family kind {kind!r}")
        locals_.append([np.ascontiguousarray(local[:, j]) for j in range(local.shape[1])])
    return locals_


def random_system(
    rng: np.random.Generator, frame: FusionFrame, kind: str = "orthogonal"
) -> FusionFrameSystem:
    return build_system(frame, random_local_vectors(rng, frame, kind))
