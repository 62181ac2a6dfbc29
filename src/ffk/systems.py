"""Fusion frame systems: subspace families with local vector frames.

A system attaches to each weighted subspace a finite vector frame for
that subspace.  Local and global structure interact in two ways tested
here: pointwise redundancy is additive across members exactly when each
local family is orthogonal, and the weighted flattened family
``{v_i f_ij}`` is Parseval for the ambient space exactly when the local
families are Parseval and the fusion frame itself is Parseval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LocalNotAFrame,
    LocalNotParseval,
    MemberCountMismatch,
    NotUniformWeights,
    VectorOutsideSubspace,
)
from .fusion import FusionFrame, redundancy_at, redundancy_range
from .numerics import Tolerance, hermitian_eigenrange, kernel_dimension
from .vector_frames import VectorFrame, redundancy_function


class FusionFrameSystem:
    """A fusion frame together with one local frame per member.

    Construction validates each local family and decides, once, the two
    local properties the checks below read: ``orthogonal_locals``, whether
    the vectors of each local family are pairwise orthogonal, and whether
    each local frame operator equals its subspace's projection (Parseval).
    """

    def __init__(self, frame: FusionFrame, local_frames):
        local_frames = tuple(local_frames)
        if len(local_frames) != frame.member_count:
            raise MemberCountMismatch(
                f"{len(local_frames)} local frames for {frame.member_count} members"
            )
        bases = [np.ascontiguousarray(B) for B in frame._blocks(frame.bases)]  # strided: basis* @ M gets other bits
        for i, (basis, local) in enumerate(zip(bases, local_frames)):
            if not isinstance(local, VectorFrame):
                raise MemberCountMismatch(f"local family {i} is not a VectorFrame")
            if local.ambient_dim != frame.ambient_dim:
                raise MemberCountMismatch(
                    f"local family {i} lives in dimension {local.ambient_dim}, "
                    f"expected {frame.ambient_dim}"
                )
            coordinates = basis.conj().T @ local.matrix
            defect = np.linalg.norm(local.matrix - basis @ coordinates, axis=0).max()
            if not frame.tol.negligible(defect, local.weights.max()):
                raise VectorOutsideSubspace(
                    f"local family {i} leaves its subspace by {defect:.3e}"
                )
            local_rank = local.count - kernel_dimension(coordinates, frame.tol)
            if local_rank < basis.shape[1]:
                raise LocalNotAFrame(
                    f"local family {i} spans {local_rank} of {basis.shape[1]} dimensions"
                )
        self.frame = frame
        self.local_frames = local_frames
        self.orthogonal_locals = all(_orthogonal(local, frame.tol) for local in local_frames)
        defects = (
            np.abs(local.operator - basis @ basis.conj().T).max() for basis, local in zip(bases, local_frames)
        )
        self._nonparseval_local = next(
            ((i, defect) for i, defect in enumerate(defects) if not frame.tol.negligible(defect, 1.0)), None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusionFrameSystem(members={self.frame.member_count}, ambient={self.frame.ambient_dim})"


def _orthogonal(local: VectorFrame, tol: Tolerance) -> bool:
    gram = local.matrix.conj().T @ local.matrix
    off = gram - np.diag(np.diag(gram))
    return tol.negligible(np.abs(off), np.diag(gram).real.max())


def build_system(frame: FusionFrame, local_vectors) -> FusionFrameSystem:
    """Assemble a system from per-member lists of local vectors."""
    return FusionFrameSystem(frame, [VectorFrame(vectors) for vectors in local_vectors])


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
    local_sum = float(sum(redundancy_function(local, x) for local in system.local_frames))
    return LocalAdditivityCheck(
        fusion_value=fusion_value,
        local_sum=local_sum,
        orthogonal_locals=system.orthogonal_locals,
        equal=system.frame.tol.near(fusion_value, local_sum),
    )


def _require_local_parseval(system: FusionFrameSystem) -> None:
    if system._nonparseval_local is not None:
        i, defect = system._nonparseval_local
        raise LocalNotParseval(f"local family {i} misses its projection by {defect:.3e}")


def _flat_parseval(system: FusionFrameSystem, weighted: bool) -> bool:
    """Whether the flattened family {v_i f_ij}, or {f_ij} unweighted, passes the Parseval rule."""
    scales = system.frame.weights if weighted else np.ones(system.frame.member_count)
    flat = np.concatenate([scale * local.matrix for scale, local in zip(scales, system.local_frames)], axis=1)
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
