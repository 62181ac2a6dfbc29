import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ffk
from ffk.errors import (
    AllColumnsNumericallyZero,
    DimensionMismatch,
    NonFiniteEntries,
    NotPositiveDefinite,
    NotSquare,
)
from ffk.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    FrameBounds,
    Tolerance,
    gaussian,
    hermitian_eigenrange,
    kernel_dimension,
    orthonormalize,
    quadratic_forms,
    sample_unit_vectors,
    solve_hermitian_positive,
    sphere_weights,
)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rank_rel == 1e-10
        assert tol.eig_rel == 1e-9
        assert tol.recon_abs == 1e-8

    @pytest.mark.parametrize("field_name", ["rank_rel", "eig_rel", "recon_abs"])
    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
    def test_rejects_out_of_range(self, field_name, bad):
        with pytest.raises(ValueError):
            Tolerance(**{field_name: bad})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_TOLERANCE.eig_rel = 0.5


class TestTolerancePredicates:
    tol = DEFAULT_TOLERANCE

    def test_rank_counts_values_above_the_relative_cutoff(self):
        assert self.tol.rank(np.array([2.0, 1e-9, 1e-10, 0.0])) == 2
        assert self.tol.rank(np.zeros(3)) == 0
        assert self.tol.rank(np.array([])) == 0

    def test_spans_is_elementwise_and_rejects_a_zero_spectrum(self):
        low = np.array([2e-10, 1e-10, 0.0])
        assert self.tol.spans(low, np.ones(3)).tolist() == [True, False, False]
        assert not self.tol.spans(0.0, 0.0)

    def test_negligible_is_relative_to_the_given_scale(self):
        assert self.tol.negligible(np.array([1e-3, 0.0]), 1e7)
        assert not self.tol.negligible(1e-3, 1.0)

    def test_parseval_needs_a_flat_spectrum_not_only_ends_near_one(self):
        low, high = 1.0 - 8e-10, 1.0 + 8e-10
        assert self.tol.near(low, 1.0) and self.tol.near(high, 1.0)
        assert not self.tol.flat(low, high)
        assert not self.tol.parseval(low, high)
        assert self.tol.parseval(1.0 - 4e-10, 1.0 + 4e-10)

    def test_within_slack_scales_with_the_largest_finite_end(self):
        assert self.tol.within(1e8 + 0.05, 1.0, 1e8)
        assert not self.tol.within(1e8 + 0.2, 1.0, 1e8)
        assert self.tol.within(0.5 - 9e-10, 0.5, np.inf)
        assert not self.tol.within(0.5 - 2e-9, 0.5, np.inf)
        assert self.tol.within([-5.0, 2.0], -np.inf, 2.0)
        assert self.tol.within([1.0, 10.0], np.array([0.5, 9.0]), np.array([2.0, 11.0]))
        assert not self.tol.within([1.0, 10.0], np.array([0.5, 10.5]), np.array([2.0, 11.0]))

    def test_reconstructs_is_absolute(self):
        assert self.tol.reconstructs(1e-8) and not self.tol.reconstructs(2e-8)


def _innermost_scopes(tree):
    """(first line, last line, qualified name) of every function, methods as Class.name."""
    scopes = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    scopes.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes


def test_cutoff_policy_stays_in_numerics():
    """Outside ``numerics``, code names ``eig_rel`` or ``rank_rel`` only to echo them in the report.

    Every cutoff decision calls a ``Tolerance`` predicate.
    """
    allowed = {
        ("documents.py", "ReportDocument.from_analysis"),
    }
    found = set()
    for path in sorted(Path(ffk.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        source = path.read_text(encoding="utf-8")
        scopes = _innermost_scopes(ast.parse(source))
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME and token.string in ("eig_rel", "rank_rel"):
                line = token.start[0]
                enclosing = [scope for scope in scopes if scope[0] <= line <= scope[1]]
                name = max(enclosing)[2] if enclosing else "<module>"
                found.add((path.name, name))
    assert found == allowed


class TestFrameBounds:
    def test_bessel_only_has_no_ratio(self):
        assert FrameBounds(lower=None, upper=3.0).lower is None

    def test_only_a_bessel_only_upper_bound_may_be_zero(self):
        assert FrameBounds(lower=None, upper=0.0).upper == 0.0
        for lower, upper in [(1.0, 0.0), (None, -1.0), (None, np.inf), (2.0, 1.0), (0.0, 1.0)]:
            with pytest.raises(ValueError):
                FrameBounds(lower, upper)


class TestOrthonormalize:
    def test_identity_columns_stay_identity(self):
        q = orthonormalize(np.eye(3))
        assert q.shape == (3, 3)
        assert np.allclose(q @ q.conj().T, np.eye(3), atol=1e-14)
        assert np.allclose(np.abs(q), np.eye(3), atol=1e-14)

    def test_dependent_columns_collapse_to_rank(self):
        m = np.array([[1.0, 2.0], [0.0, 0.0]])
        q = orthonormalize(m)
        assert q.shape == (2, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-14
        assert abs(q[1, 0]) < 1e-14

    def test_two_independent_columns(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        q = orthonormalize(m)
        assert q.shape == (2, 2)
        assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(AllColumnsNumericallyZero):
            orthonormalize(np.zeros((3, 2)))

    def test_nan_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntries):
            orthonormalize(m)

    def test_complex_span_preserved(self, rng):
        m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        q = orthonormalize(m)
        assert q.shape == (5, 3)
        again = orthonormalize(m @ rng.normal(size=(3, 3)))
        assert np.linalg.norm(q @ q.conj().T - again @ again.conj().T, 2) < 1e-8

    def test_near_dependent_column_dropped_by_relative_cutoff(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        wiggle = base @ np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        q = orthonormalize(wiggle)
        assert q.shape[1] == 1


class TestHermitianEigenrange:
    def test_identity(self):
        low, high = hermitian_eigenrange(np.eye(3))
        assert abs(low - 1.0) < 1e-12
        assert abs(high - 1.0) < 1e-12

    def test_diagonal(self):
        low, high = hermitian_eigenrange(np.diag([5.0, 1.0, 1.0, 1.0, 1.0]))
        assert abs(low - 1.0) < 1e-12
        assert abs(high - 5.0) < 1e-12

    def test_rayleigh_quotients_stay_inside_range(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        low, high = hermitian_eigenrange(h)
        quotients = quadratic_forms(sample_unit_vectors(rng, 6, 200, COMPLEX), h)
        assert np.min(quotients) >= low - 1e-3
        assert np.max(quotients) <= high + 1e-3

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            hermitian_eigenrange(np.ones((2, 3)))

    @pytest.mark.parametrize("function", [hermitian_eigenrange, lambda M: solve_hermitian_positive(M, np.ones(2))])
    def test_overflowing_hermitian_part_rejected(self, function):
        """A finite matrix whose ``M + M*`` overflows fails as non-finite, with the label of a NaN input."""
        for M in (np.array([[1e308, 0.0], [0.0, 1.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])):
            with np.errstate(over="ignore"), pytest.raises(NonFiniteEntries, match="^matrix contains"):
                function(M)


class TestKernelDimension:
    def test_identity_has_trivial_kernel(self):
        assert kernel_dimension(np.eye(4)) == 0

    def test_doubled_identity(self):
        assert kernel_dimension(np.hstack([np.eye(3), np.eye(3)])) == 3

    def test_wide_random(self, rng):
        m = rng.normal(size=(4, 9))
        assert kernel_dimension(m) == 5

    def test_zero_matrix(self):
        assert kernel_dimension(np.zeros((3, 7))) == 7


class TestSolveHermitianPositive:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, 3.0])
        assert np.allclose(solve_hermitian_positive(np.eye(3), rhs), rhs)

    def test_scaled_identity(self):
        x = solve_hermitian_positive(2.0 * np.eye(5), np.eye(5)[:, 0])
        assert np.allclose(x, np.array([0.5, 0, 0, 0, 0]))

    def test_random_spd_residual(self, rng):
        a = rng.normal(size=(8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        rhs = rng.normal(size=(8, 3))
        x = solve_hermitian_positive(spd, rhs)
        residual = np.linalg.norm(spd @ x - rhs)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian_positive(np.diag([1.0, -1.0]), np.ones(2))

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian_positive(np.diag([1.0, 0.0]), np.ones(2))


class TestSampling:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_unit_norm(self, rng, field):
        xs = sample_unit_vectors(rng, 5, 50, field)
        assert xs.shape == (50, 5)
        assert np.allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)

    def test_real_field_gives_real_dtype(self, rng):
        xs = sample_unit_vectors(rng, 3, 4, REAL)
        assert not np.iscomplexobj(xs)

    def test_deterministic_under_seed(self):
        a = sample_unit_vectors(np.random.default_rng(7), 4, 6, COMPLEX)
        b = sample_unit_vectors(np.random.default_rng(7), 4, 6, COMPLEX)
        assert np.array_equal(a, b)

    def test_gaussian_draws_real_parts_then_imaginary_parts(self):
        reference = np.random.default_rng(5)
        real = reference.standard_normal((3, 2))
        expected = real + 1j * reference.standard_normal((3, 2))
        assert np.array_equal(gaussian(np.random.default_rng(5), (3, 2), REAL), real)
        assert np.array_equal(gaussian(np.random.default_rng(5), (3, 2), COMPLEX), expected)

    def test_unknown_field_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown field"):
            gaussian(rng, (2, 3), "quaternion")
        with pytest.raises(ValueError, match="unknown field"):
            sample_unit_vectors(rng, 3, 2, "quaternion")


class TestSphereWeights:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dim", [1, 2, 7, 128])
    def test_rows_lie_on_the_simplex(self, rng, field, dim):
        weights = sphere_weights(rng, dim, 300, field)
        assert weights.shape == (300, dim)
        assert weights.dtype == np.float64
        assert np.all(weights >= 0.0)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 4 * dim * np.finfo(float).eps

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_real_rows_are_the_squared_unit_vectors(self, dim):
        weights = sphere_weights(np.random.default_rng(dim), dim, 200, REAL)
        vectors = sample_unit_vectors(np.random.default_rng(dim), dim, 200, REAL)
        assert np.abs(weights - vectors**2).max() <= 1e-15

    @pytest.mark.parametrize("field, alpha", [(REAL, 0.5), (COMPLEX, 1.0)])
    @pytest.mark.parametrize("dim", [2, 5, 32])
    def test_coordinate_means_are_one_over_dim(self, field, alpha, dim):
        count = 20_000
        weights = sphere_weights(np.random.default_rng(11), dim, count, field)
        # Dirichlet(alpha, ..., alpha) in dim coordinates: each has mean 1/dim.
        variance = (1.0 / dim) * (1.0 - 1.0 / dim) / (dim * alpha + 1.0)
        sigma = np.sqrt(variance / count)
        assert np.abs(weights.mean(axis=0) - 1.0 / dim).max() <= 5 * sigma

    def test_complex_rows_are_normalized_exponential_draws(self):
        draws = np.random.default_rng(4).standard_exponential((6, 3))
        expected = draws / draws.sum(axis=1, keepdims=True)
        assert np.abs(sphere_weights(np.random.default_rng(4), 3, 6, COMPLEX) - expected).max() <= 1e-15

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_rows_summing_below_the_cutoff_are_redrawn(self, field):
        class ZeroFirstRow:
            """A generator whose first draw has an all-zero first row; later draws are all ones."""

            def __init__(self):
                self.calls = []

            def draw(self, shape):
                values = np.ones(shape)
                if not self.calls:
                    values[0] = 0.0
                self.calls.append(shape)
                return values

            standard_normal = standard_exponential = draw

        rng = ZeroFirstRow()
        weights = sphere_weights(rng, 3, 4, field)
        assert np.array_equal(weights, np.full((4, 3), 1.0 / 3.0))
        assert rng.calls == [(4, 3), (1, 3)]

    @pytest.mark.parametrize(
        "dim, count, field", [(0, 3, REAL), (-1, 3, COMPLEX), (3, 0, REAL), (3, -2, COMPLEX), (3, 2, "quaternion")]
    )
    def test_bad_arguments_raise_like_sample_unit_vectors(self, dim, count, field):
        with pytest.raises((DimensionMismatch, ValueError)) as expected:
            sample_unit_vectors(np.random.default_rng(0), dim, count, field)
        with pytest.raises(type(expected.value)) as raised:
            sphere_weights(np.random.default_rng(0), dim, count, field)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


@settings(deadline=None, max_examples=40)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rank_plus_kernel_equals_columns(rows, cols, seed):
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    rank = np.linalg.matrix_rank(m)
    assert kernel_dimension(m) + rank == cols


@settings(deadline=None, max_examples=30)
@given(
    dim=st.integers(min_value=2, max_value=6),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_orthonormalize_is_projection_stable(dim, count, seed):
    gen = np.random.default_rng(seed)
    m = gen.normal(size=(dim, count))
    q = orthonormalize(m)
    again = orthonormalize(q)
    assert q.shape == again.shape
    assert np.linalg.norm(q @ q.conj().T - again @ again.conj().T, 2) < 1e-10
