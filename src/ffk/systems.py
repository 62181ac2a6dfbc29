"""Fusion frame systems: subspace families with local vector frames.

A system attaches to each weighted subspace ``W_i`` a finite family of
vectors ``{f_ij}`` spanning it.  Local and global structure interact in
two ways tested here: pointwise redundancy is additive across members
exactly when each local family is orthogonal, and the weighted flattened
family ``{v_i f_ij}`` is Parseval for the ambient space exactly when the
local families are Parseval and the fusion frame itself is Parseval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LocalNotAFrame,
    LocalNotParseval,
    MemberCountMismatch,
    NotUniformWeights,
    VectorOutsideSubspace,
)
from .fusion import FusionFrame, redundancy_at, redundancy_range
from .numerics import (
    Tolerance,
    _as_unit_vector,
    _as_vector_columns,
    _column_blocks,
    _read_only,
    _require_finite,
    hermitian_eigenrange,
    kernel_dimension,
)


class FusionFrameSystem:
    """A fusion frame with one local family of vectors per member, given as lists or rows of arrays.

    The families are kept stacked, as the frame keeps its members: the
    columns of ``local_synthesis`` (n x M, the frame's dtype), family ``i``
    owning ``local_offsets[i]:local_offsets[i + 1]``, and ``local_norms``.
    Construction checks each family once (nonzero finite vectors, complex
    only in a complex frame, inside its subspace and spanning it) and decides
    what the checks below read: ``orthogonal_locals``, whether each family is
    pairwise orthogonal, and whether each ``L_i L_i*`` is its projection.
    """

    def __init__(self, frame: FusionFrame, local_vectors):
        families = tuple(local_vectors)
        if len(families) != frame.member_count:
            raise MemberCountMismatch(f"{len(families)} local frames for {frame.member_count} members")
        blocks = _column_blocks(frame.bases, frame.offsets)
        bases = [np.ascontiguousarray(B) for B in blocks]  # strided: basis* @ M gets other bits
        columns, norms, defects = [], [], []
        orthogonal = True
        for i, (basis, vectors) in enumerate(zip(bases, families)):
            local, local_norms = _as_vector_columns(vectors, f"local family {i}: ")
            if len(local) != len(basis):
                raise DimensionMismatch(f"local family {i} lives in dimension {len(local)}, expected {len(basis)}")
            if not np.can_cast(local.dtype, frame.bases.dtype):
                raise DimensionMismatch(f"local family {i} is complex in a real frame")
            local = local.astype(frame.bases.dtype, copy=False)
            local_operator = _require_finite(local @ local.conj().T, f"local family {i} operator")
            coordinates = basis.conj().T @ local
            defect = np.linalg.norm(local - basis @ coordinates, axis=0).max()
            if not frame.tol.negligible(defect, local_norms.max()):
                raise VectorOutsideSubspace(f"local family {i} leaves its subspace by {defect:.3e}")
            local_rank = local.shape[1] - kernel_dimension(coordinates, frame.tol)
            if local_rank < basis.shape[1]:
                raise LocalNotAFrame(f"local family {i} spans {local_rank} of {basis.shape[1]} dimensions")
            orthogonal = orthogonal and _orthogonal(local, frame.tol)
            defects.append(np.abs(local_operator - basis @ basis.conj().T).max())
            columns.append(local)
            norms.append(local_norms)
        self.frame = frame
        self.local_synthesis = _read_only(np.concatenate(columns, axis=1))
        self.local_norms = _read_only(np.concatenate(norms))
        self.local_offsets = _read_only(np.cumsum([0] + [local.shape[1] for local in columns]))
        self.orthogonal_locals = orthogonal
        self._nonparseval_local = next(
            ((i, defect) for i, defect in enumerate(defects) if not frame.tol.negligible(defect, 1.0)), None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusionFrameSystem(members={self.frame.member_count}, ambient={self.frame.ambient_dim})"


def _orthogonal(local: np.ndarray, tol: Tolerance) -> bool:
    gram = local.conj().T @ local
    off = gram - np.diag(np.diag(gram))
    return tol.negligible(np.abs(off), np.diag(gram).real.max())


@dataclass(frozen=True)
class LocalAdditivityCheck:
    """Pointwise comparison of fusion redundancy to summed local redundancies."""

    fusion_value: float
    local_sum: float
    orthogonal_locals: bool
    equal: bool


def check_local_additivity(system: FusionFrameSystem, x) -> LocalAdditivityCheck:
    """Compare fusion redundancy at ``x`` with the sum of local redundancies.

    Orthogonal local families (any norms) make the two quantities agree
    exactly; overcomplete or slanted local families generically break
    the identity.
    """
    fusion_value = redundancy_at(system.frame, x)
    local_sum = _local_redundancy_sum(system, _as_unit_vector(x, system.frame.ambient_dim))
    return LocalAdditivityCheck(
        fusion_value=fusion_value,
        local_sum=local_sum,
        orthogonal_locals=system.orthogonal_locals,
        equal=system.frame.tol.near(fusion_value, local_sum),
    )


def _local_redundancy_sum(system: FusionFrameSystem, v: np.ndarray) -> float:
    """``sum_i sum_j |<v, f_ij>|^2 / ||f_ij||^2`` at unit ``v``: the flattened lines' ``redundancy_at`` up to roundoff.

    ``ffk system`` prints the gap to the fusion redundancy as ``max_gap``
    (1.3322676295501878e-15 on the orthogonal real golden system), so the
    order is fixed: vector by vector within each family's block, copied to
    a contiguous matrix, then family by family.
    """
    offsets = system.local_offsets
    blocks = zip(_column_blocks(system.local_synthesis, offsets), _column_blocks(system.local_norms, offsets))
    return float(sum(float(np.sum(np.abs(local.copy().conj().T @ v) ** 2 / norms**2)) for local, norms in blocks))


def _require_local_parseval(system: FusionFrameSystem) -> None:
    if system._nonparseval_local is not None:
        i, defect = system._nonparseval_local
        raise LocalNotParseval(f"local family {i} misses its projection by {defect:.3e}")


def _flat_parseval(system: FusionFrameSystem, weighted: bool) -> bool:
    """Whether the flattened family {v_i f_ij}, or {f_ij} unweighted, passes the Parseval rule."""
    scales = system.frame.weights if weighted else np.ones(system.frame.member_count)
    flat = system.local_synthesis * np.repeat(scales, np.diff(system.local_offsets))
    return system.frame.tol.parseval(*hermitian_eigenrange(flat @ flat.conj().T))


@dataclass(frozen=True)
class ParsevalEquivalenceCheck:
    """Agreement between flattened-family and fusion-frame Parsevality."""

    global_parseval: bool
    fusion_parseval: bool
    consistent: bool


def parseval_equivalences(system: FusionFrameSystem) -> ParsevalEquivalenceCheck:
    """Test whether {v_i f_ij} is Parseval exactly when the fusion frame is.

    Requires every local family to be Parseval for its subspace.  The
    two flags are computed independently and must agree.
    """
    _require_local_parseval(system)
    global_parseval = _flat_parseval(system, weighted=True)
    fusion_parseval = system.frame.tol.parseval(*system.frame._operator_range)
    return ParsevalEquivalenceCheck(
        global_parseval=global_parseval,
        fusion_parseval=fusion_parseval,
        consistent=global_parseval == fusion_parseval,
    )


@dataclass(frozen=True)
class RedundancyOneCheck:
    """Agreement between flat Parsevality and unit redundancy range."""

    flat_parseval: bool
    fusion_redundancy_one: bool
    consistent: bool


def redundancy_one_equivalence(system: FusionFrameSystem) -> RedundancyOneCheck:
    """For unit weights: {f_ij} Parseval iff redundancy is identically 1.

    Requires Parseval local families and every weight equal to 1; then
    the unweighted flattened family is Parseval exactly when the fusion
    frame's pointwise redundancy is 1 everywhere on the sphere.
    """
    _require_local_parseval(system)
    tol = system.frame.tol
    if not tol.near(system.frame.weights, 1.0):
        raise NotUniformWeights("the redundancy-one equivalence is stated for unit weights")
    flat_parseval = _flat_parseval(system, weighted=False)
    fusion_redundancy_one = tol.parseval(*redundancy_range(system.frame))
    return RedundancyOneCheck(
        flat_parseval=flat_parseval,
        fusion_redundancy_one=fusion_redundancy_one,
        consistent=flat_parseval == fusion_redundancy_one,
    )
