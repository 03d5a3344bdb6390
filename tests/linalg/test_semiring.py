"""Tests for the semiring product kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.linalg.algebra import available_algebras, get_algebra
from repro.linalg.semiring import (
    elementwise_min,
    minplus_closure_iterations,
    minplus_power,
    minplus_product,
    semiring_product,
    semiring_square,
)


def naive_minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    out = np.full((m, n), np.inf)
    for i in range(m):
        for j in range(n):
            out[i, j] = np.min(a[i, :] + b[:, j])
    return out


def random_weight_matrix(rng, rows, cols, inf_prob=0.3):
    mat = rng.uniform(0.5, 10.0, size=(rows, cols))
    mask = rng.random((rows, cols)) < inf_prob
    mat[mask] = np.inf
    return mat


class TestMinplusProduct:
    def test_matches_naive_small(self):
        rng = np.random.default_rng(0)
        a = random_weight_matrix(rng, 7, 5)
        b = random_weight_matrix(rng, 5, 9)
        assert np.allclose(minplus_product(a, b), naive_minplus(a, b))

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(1)
        a = random_weight_matrix(rng, 3, 8)
        b = random_weight_matrix(rng, 8, 2)
        out = minplus_product(a, b)
        assert out.shape == (3, 2)

    def test_identity_behaviour(self):
        # The min-plus identity has 0 on the diagonal and inf elsewhere.
        rng = np.random.default_rng(2)
        a = random_weight_matrix(rng, 6, 6)
        ident = np.full((6, 6), np.inf)
        np.fill_diagonal(ident, 0.0)
        assert np.allclose(minplus_product(a, ident), a)
        assert np.allclose(minplus_product(ident, a), a)

    def test_inf_propagation(self):
        a = np.array([[np.inf, np.inf], [np.inf, np.inf]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = minplus_product(a, b)
        assert np.all(np.isinf(out))

    def test_out_parameter(self):
        rng = np.random.default_rng(4)
        a = random_weight_matrix(rng, 5, 5)
        out = np.empty((5, 5))
        result = minplus_product(a, a, out=out)
        assert result is out

    def test_wrong_out_shape_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(ValidationError):
            minplus_product(a, a, out=np.empty((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            minplus_product(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValidationError):
            minplus_product(np.zeros(3), np.zeros((3, 3)))

    @pytest.mark.parametrize("n", (3, 100))
    def test_out_sharing_an_operand_rejected(self, n):
        # The kernel overwrites out while still reading the operands, so an
        # aliased out would silently corrupt the result.
        rng = np.random.default_rng(7)
        a = random_weight_matrix(rng, n, n)
        b = random_weight_matrix(rng, n, n)
        with pytest.raises(ValidationError):
            minplus_product(a, b, out=a)
        with pytest.raises(ValidationError):
            minplus_product(a, b, out=b)
        with pytest.raises(ValidationError):
            minplus_product(a[:, :2], b[:2, :], out=a)    # overlapping view
        assert np.array_equal(minplus_product(a, b, out=np.empty((n, n))),
                              minplus_product(a, b))

    def test_transposed_operands(self):
        rng = np.random.default_rng(9)
        a = random_weight_matrix(rng, 6, 6)
        b = random_weight_matrix(rng, 6, 6)
        assert np.array_equal(minplus_product(a.T, b.T),
                              minplus_product(a.T.copy(), b.T.copy()))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(2, 8), st.integers(0, 10_000))
    def test_property_matches_naive(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, m, k)
        b = random_weight_matrix(rng, k, n)
        assert np.allclose(minplus_product(a, b), naive_minplus(a, b))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_property_associativity(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, n, n)
        b = random_weight_matrix(rng, n, n)
        c = random_weight_matrix(rng, n, n)
        left = minplus_product(minplus_product(a, b), c)
        right = minplus_product(a, minplus_product(b, c))
        assert np.allclose(left, right)


def broadcast_product(a, b, algebra):
    """The ``(m, k, n)`` broadcast-and-reduce product the sweep replaced."""
    return algebra.add_reduce(algebra.mul(a[:, :, None], b[None]), axis=1)


@st.composite
def product_operands(draw):
    """An algebra, one of its dtypes, and ``(m, k) x (k, n)`` operands.

    Entries mix the algebra's ``zero``/``one`` with in-domain values, and
    the shapes cover row/column vectors, ``k = 1`` and non-square blocks.
    """
    algebra = get_algebra(draw(st.sampled_from(available_algebras())))
    dtype = np.dtype(draw(st.sampled_from(algebra.dtypes)))
    m, k, n = (draw(st.integers(1, 9)) for _ in range(3))
    if dtype == np.bool_:
        values = st.booleans()
    else:
        low = -4.0 if algebra.name == "longest-path" else 0.0
        high = 1.0 if algebra.name == "most-reliable" else 8.0
        values = st.one_of(
            st.sampled_from([algebra.zero, algebra.one]),
            st.floats(low, high, allow_nan=False, width=dtype.itemsize * 8))

    def operand(rows, cols):
        cells = draw(st.lists(values, min_size=rows * cols,
                              max_size=rows * cols))
        return np.array(cells, dtype=dtype).reshape(rows, cols)

    return algebra, operand(m, k), operand(k, n)


class TestSweepMatchesBroadcast:
    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_property_bit_identical_to_broadcast(self, operands):
        algebra, a, b = operands
        result = semiring_product(a, b, algebra)
        expected = broadcast_product(a, b, algebra)
        assert result.dtype == expected.dtype == a.dtype
        assert np.array_equal(result, expected)
        assert np.array_equal(np.signbit(result), np.signbit(expected))

    @pytest.mark.parametrize("algebra", available_algebras())
    @pytest.mark.parametrize("shape", [(1, 40, 40), (40, 40, 1), (40, 1, 40),
                                       (17, 64, 33), (64, 17, 33)])
    def test_shapes_bit_identical_to_broadcast(self, algebra, shape):
        algebra = get_algebra(algebra)
        m, k, n = shape
        rng = np.random.default_rng(m * 100 + k + n)
        dtype = np.dtype(algebra.default_dtype)
        a = (rng.random((m, k)) < 0.5) if dtype == np.bool_ \
            else rng.random((m, k)).astype(dtype)
        b = (rng.random((k, n)) < 0.5) if dtype == np.bool_ \
            else rng.random((k, n)).astype(dtype)
        assert np.array_equal(semiring_product(a, b, algebra),
                              broadcast_product(a, b, algebra))


class TestElementwiseMin:
    def test_basic(self):
        a = np.array([[1.0, 5.0]])
        b = np.array([[2.0, 3.0]])
        assert np.array_equal(elementwise_min(a, b), [[1.0, 3.0]])

    def test_inf_handling(self):
        a = np.array([[np.inf]])
        b = np.array([[4.0]])
        assert elementwise_min(a, b)[0, 0] == 4.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            elementwise_min(np.zeros((2, 2)), np.zeros((3, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_property_commutative_idempotent(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, n, n)
        b = random_weight_matrix(rng, n, n)
        assert np.array_equal(elementwise_min(a, b), elementwise_min(b, a))
        assert np.array_equal(elementwise_min(a, a), a)


class TestMinplusPower:
    def test_power_yields_shortest_paths(self):
        # Path graph 0-1-2-3 with unit weights.
        adj = np.full((4, 4), np.inf)
        np.fill_diagonal(adj, 0.0)
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        closure = minplus_power(adj, 4)
        assert closure[0, 3] == 3.0
        assert closure[3, 0] == 3.0

    def test_square_keeps_existing_paths(self):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 2.0
        squared = semiring_square(adj)
        assert squared[0, 1] == 2.0

    def test_invalid_exponent(self):
        with pytest.raises(ValidationError):
            minplus_power(np.zeros((2, 2)), 0)


class TestClosureIterations:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2),
                                            (9, 3), (262144, 18)])
    def test_values(self, n, expected):
        assert minplus_closure_iterations(n) == expected

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            minplus_closure_iterations(0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 2000))
    def test_property_sufficient_for_paths(self, n):
        # 2^iterations must be at least n - 1 (the longest possible shortest path).
        iterations = minplus_closure_iterations(n)
        assert 2 ** iterations >= n - 1
        assert 2 ** (iterations - 1) < n - 1
