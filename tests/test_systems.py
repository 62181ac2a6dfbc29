import math

import numpy as np
import pytest

from ffk import fusion, systems
from ffk.errors import (
    DimensionMismatch,
    LocalNotAFrame,
    LocalNotParseval,
    MemberCountMismatch,
    NotUniformWeights,
    VectorOutsideSubspace,
    ZeroVector,
)
from ffk.fusion import build_fusion_frame, fusion_frame_operator
from ffk.gallery import example_frame
from ffk.generators import (
    random_fusion_frame,
    random_orthogonal_decomposition,
    random_local_vectors,
    random_parseval_fusion_frame,
    random_system,
)
from ffk.numerics import COMPLEX, sample_unit_vectors
from ffk.systems import (
    FusionFrameSystem,
    build_system,
    check_local_additivity,
    parseval_equivalences,
    redundancy_one_equivalence,
)
from test_differential import reference_member_bases


def basis_locals(frame):
    """One exact orthonormal basis per member: the tightest local choice."""
    return [list(basis.T) for basis in reference_member_bases(frame)]


def overcomplete_plane_system():
    """Plane-plus-axis frame whose plane family is slanted and overcomplete."""
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    frame = build_fusion_frame(
        [(np.stack([e1, e2], axis=1), 1.0), (e3[:, None], 1.0)], 3
    )
    locals_ = [[e1, e2, (e1 + e2) / math.sqrt(2)], [e3]]
    return build_system(frame, locals_)


class TestConstruction:
    def test_happy_path(self):
        frame = example_frame("7.2", 3)
        system = build_system(frame, basis_locals(frame))
        assert system.local_offsets.tolist() == [0, *np.cumsum(frame.dims)]
        assert system.local_synthesis.tobytes() == frame.bases.tobytes()
        assert system.local_norms.tolist() == [1.0] * frame.ambient_dim

    def test_wrong_local_count(self):
        frame = example_frame("7.2", 3)
        with pytest.raises(MemberCountMismatch):
            build_system(frame, basis_locals(frame)[:-1])

    def test_local_vector_outside_subspace(self):
        frame = example_frame("7.2", 3)
        locals_ = basis_locals(frame)
        locals_[0] = [np.array([0.0, 1.0, 0.0])]  # second axis claimed for the first
        with pytest.raises(VectorOutsideSubspace):
            build_system(frame, locals_)

    def test_local_family_must_span_its_subspace(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        frame = build_fusion_frame(
            [(np.stack([e1, e2], axis=1), 1.0), (e3[:, None], 1.0)], 3
        )
        with pytest.raises(LocalNotAFrame):
            build_system(frame, [[e1], [e3]])

    def test_local_in_wrong_ambient_dimension(self):
        frame = example_frame("7.2", 3)
        bad = [np.array([1.0, 0.0])]
        with pytest.raises(DimensionMismatch, match="local family 0 lives in dimension 2, expected 3"):
            FusionFrameSystem(frame, [bad] * frame.member_count)

    def test_complex_local_family_in_a_real_frame_is_refused(self):
        frame = example_frame("7.2", 2)
        with pytest.raises(DimensionMismatch, match="local family 0 is complex in a real frame"):
            build_system(frame, [[np.array([1j, 0])], [np.array([0, 1.0])]])

    def test_real_local_family_in_a_complex_frame_takes_its_dtype(self):
        e1, e2 = np.eye(2)
        frame = build_fusion_frame([(e1[:, None] * 1j, 1.0), (e2[:, None] + 0j, 1.0)], 2)
        system = build_system(frame, [[e1], [1j * e2]])
        assert system.local_synthesis.dtype == np.complex128
        assert parseval_equivalences(system).consistent

    def test_zero_local_vector_names_its_family(self):
        frame = example_frame("7.2", 2)
        with pytest.raises(ZeroVector, match="^local family 1: vector 1 has numerically zero norm$"):
            build_system(frame, [[np.array([1.0, 0.0])], [np.array([0.0, 1.0]), np.zeros(2)]])


class TestLocalAdditivity:
    def test_orthogonal_locals_make_redundancy_additive(self, rng):
        for _ in range(10):
            frame = random_fusion_frame(rng, n=4)
            system = random_system(rng, frame, kind="orthogonal")
            for x in sample_unit_vectors(rng, 4, 5, frame.field):
                check = check_local_additivity(system, x)
                assert check.orthogonal_locals
                assert check.equal
                assert check.fusion_value == pytest.approx(check.local_sum, abs=1e-9)

    def test_scaled_orthogonal_locals_still_additive(self, rng):
        """Orthogonality of the local family suffices; norms are irrelevant."""
        frame = random_orthogonal_decomposition(rng, 5, parts=2)
        scaled = [list(3.0 * basis.T) for basis in reference_member_bases(frame)]
        system = build_system(frame, scaled)
        x = sample_unit_vectors(rng, 5, 1, frame.field)[0]
        check = check_local_additivity(system, x)
        assert check.orthogonal_locals and check.equal

    @pytest.mark.parametrize("scale", [1e4, 1e7, 1e-11])
    @pytest.mark.parametrize("kind", ["orthogonal", "generic"])
    def test_flags_do_not_depend_on_the_scale_of_the_locals(self, scale, kind):
        """Membership, rank and orthogonality are decided relative to the local family."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            frame = random_fusion_frame(rng, n=4)
            locals_ = random_local_vectors(rng, frame, kind)
            x = sample_unit_vectors(rng, 4, 1, frame.field)[0]
            flags = []
            for factor in (1.0, scale):
                check = check_local_additivity(build_system(frame, [[factor * v for v in vs] for vs in locals_]), x)
                flags.append((check.orthogonal_locals, check.equal))
            assert flags[0] == flags[1], seed
            assert flags[0][0] == (kind == "orthogonal")

    def test_no_local_gram_after_construction(self, monkeypatch):
        """Orthogonality is decided at construction, not once per checked point."""
        grams = []

        class GramSpy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and all(np.ndim(a) == 2 for a in inputs):
                    grams.append(ufunc)
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        rng = np.random.default_rng(7)
        frame = example_frame("7.2", 16)
        system = random_system(rng, frame, kind="orthogonal")
        monkeypatch.setattr(system, "local_synthesis", system.local_synthesis.view(GramSpy))
        checks = [check_local_additivity(system, x) for x in sample_unit_vectors(rng, 16, 100, frame.field)]
        assert all(check.orthogonal_locals and check.equal for check in checks)
        assert grams == []

    def test_slanted_overcomplete_locals_break_additivity(self):
        system = overcomplete_plane_system()
        x = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        check = check_local_additivity(system, x)
        assert not check.orthogonal_locals
        assert not check.equal
        assert check.fusion_value == pytest.approx(1.0, abs=1e-12)
        assert check.local_sum == pytest.approx(2.0, abs=1e-12)
        assert abs(check.fusion_value - check.local_sum) > 1e-3


class TestParsevalEquivalences:
    def test_weighted_coordinate_family_is_consistently_non_parseval(self):
        frame = example_frame("7.3")
        system = build_system(frame, basis_locals(frame))
        check = parseval_equivalences(system)
        assert not check.global_parseval
        assert not check.fusion_parseval
        assert check.consistent

    def test_parseval_fusion_frame_flattens_to_parseval(self, rng):
        frame = random_parseval_fusion_frame(rng, n=5, layers=2)
        system = build_system(frame, basis_locals(frame))
        check = parseval_equivalences(system)
        assert check.global_parseval
        assert check.fusion_parseval
        assert check.consistent

    def test_weights_just_off_one_follow_the_fusion_parseval_rule(self):
        """Spectrum [1 - 8e-10, 1 + 8e-10]: within eig_rel of 1 but not flat, so not Parseval."""
        e1, e2 = np.eye(2)
        frame = build_fusion_frame([(e1[:, None], 0.9999999996), (e2[:, None], 1.0000000004)], 2)
        check = parseval_equivalences(build_system(frame, [[e1], [e2]]))
        assert (check.global_parseval, check.fusion_parseval, check.consistent) == (False, False, True)

    def test_parseval_locals_required(self, rng):
        frame = random_parseval_fusion_frame(rng, n=4, layers=2)
        system = random_system(rng, frame, kind="orthogonal")
        with pytest.raises(LocalNotParseval):
            parseval_equivalences(system)

    def test_overcomplete_parseval_locals_accepted(self, rng):
        frame = random_parseval_fusion_frame(rng, n=4, layers=2)
        system = random_system(rng, frame, kind="parseval")
        assert parseval_equivalences(system).consistent

    def test_consistency_is_generic(self, rng):
        for _ in range(20):
            frame = random_fusion_frame(rng, n=4)
            system = random_system(rng, frame, kind="parseval")
            assert parseval_equivalences(system).consistent

    def test_no_kernel_dimension_after_construction(self, rng, monkeypatch):
        # The fusion Parseval flag needs the frame's stored spectrum only, not its excess.
        frame = random_parseval_fusion_frame(rng, n=5, layers=2)
        system = build_system(frame, basis_locals(frame))
        calls = []
        for module in (fusion, systems):
            real = module.kernel_dimension
            monkeypatch.setattr(module, "kernel_dimension", lambda *args, real=real: calls.append(args) or real(*args))
        assert parseval_equivalences(system).fusion_parseval
        assert calls == []


class TestRedundancyOneEquivalence:
    def test_orthonormal_fusion_basis(self, rng):
        frame = random_orthogonal_decomposition(rng, 5, parts=3)
        system = build_system(frame, basis_locals(frame))
        check = redundancy_one_equivalence(system)
        assert check.flat_parseval
        assert check.fusion_redundancy_one
        assert check.consistent

    def test_doubled_lines_are_consistently_overcomplete(self):
        frame = example_frame("7.1-V", 4)
        system = build_system(frame, basis_locals(frame))
        check = redundancy_one_equivalence(system)
        assert not check.flat_parseval
        assert not check.fusion_redundancy_one
        assert check.consistent

    def test_weighted_family_rejected(self):
        frame = example_frame("7.3")
        system = build_system(frame, basis_locals(frame))
        with pytest.raises(NotUniformWeights):
            redundancy_one_equivalence(system)

    def test_non_parseval_locals_rejected(self, rng):
        frame = random_orthogonal_decomposition(rng, 4, parts=2)
        scaled = [list(2.0 * basis.T) for basis in reference_member_bases(frame)]
        system = build_system(frame, scaled)
        with pytest.raises(LocalNotParseval):
            redundancy_one_equivalence(system)


class TestFlattenedOperator:
    def test_weighted_flattening_reproduces_fusion_operator(self, rng):
        """With Parseval locals {v_i f_ij} has the fusion frame operator."""
        frame = random_fusion_frame(rng, n=4, field=COMPLEX)
        system = random_system(rng, frame, kind="parseval")
        offsets = system.local_offsets
        flat = np.concatenate(
            [
                weight * system.local_synthesis[:, a:b]
                for weight, a, b in zip(frame.weights.tolist(), offsets[:-1], offsets[1:])
            ],
            axis=1,
        )
        assert np.allclose(
            flat @ flat.conj().T, fusion_frame_operator(frame), atol=1e-9
        )
