import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menkf.exceptions import DimensionError, InvalidInputError, NotSpdError
from menkf.numerics import RngStream, empirical_quantile, solve_spd, symmetrize, vec


def kron_by_hand(a, b):
    # independent index-formula implementation
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def matmul_by_hand(a, b):
    ra, ca = a.shape
    cb = b.shape[1]
    out = np.zeros((ra, cb))
    for i in range(ra):
        for j in range(cb):
            for k in range(ca):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestVec:
    def test_column_major_order(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])

    def test_vec_rejects_vectors(self):
        with pytest.raises(DimensionError):
            vec(np.arange(4.0))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, rows, cols, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols))
        np.testing.assert_array_equal(vec(m).reshape((rows, cols), order="F"), m)


class TestKron:
    # np.kron's block layout is the convention build_vec_operator relies on
    def test_identity_blocks(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_matches_index_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4)))
            b = rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4)))
            np.testing.assert_allclose(np.kron(a, b), kron_by_hand(a, b), rtol=0, atol=0)

    def test_vec_of_triple_product(self):
        # vec(A X B) == kron(B', A) vec(X), with the products done by hand
        rng = np.random.default_rng(3)
        for _ in range(25):
            ra, rx, cx, cb = rng.integers(1, 5, size=4)
            a = rng.standard_normal((ra, rx))
            x = rng.standard_normal((rx, cx))
            b = rng.standard_normal((cx, cb))
            direct = vec(matmul_by_hand(matmul_by_hand(a, x), b))
            lifted = kron_by_hand(b.T, a) @ vec(x)
            np.testing.assert_allclose(np.kron(b.T, a) @ vec(x), direct, atol=1e-12)
            np.testing.assert_allclose(lifted, direct, atol=1e-12)


class TestSolveSpd:
    def test_solves_small_system(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x = solve_spd(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_residual_small_up_to_dim_200(self):
        rng = np.random.default_rng(5)
        for n in (3, 20, 200):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.standard_normal((n, 4))
            x = solve_spd(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_matrix_rhs_shape(self):
        a = np.eye(3) * 2.0
        b = np.ones((3, 5))
        np.testing.assert_allclose(solve_spd(a, b), b / 2.0)

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NotSpdError):
            solve_spd(a, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_spd(np.eye(3), np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(InvalidInputError):
            solve_spd(np.eye(2), np.array([1.0, np.inf]))


class TestEmpiricalQuantile:
    def test_interpolated_value(self):
        # h = 0.975 * 3 = 2.925 -> 3 + 0.925 * (4 - 3)
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.975) == pytest.approx(3.925)

    def test_endpoints(self):
        v = [5.0, 1.0, 3.0]
        assert empirical_quantile(v, 0.0) == 1.0
        assert empirical_quantile(v, 1.0) == 5.0
        assert empirical_quantile(v, 0.5) == 3.0

    def test_single_sample(self):
        assert empirical_quantile([2.5], 0.3) == 2.5

    def test_empty_raises(self):
        with pytest.raises(InvalidInputError):
            empirical_quantile([], 0.5)

    def test_out_of_range_q_raises(self):
        with pytest.raises(InvalidInputError):
            empirical_quantile([1.0], 1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_q_and_bounded(self, v, q1, q2):
        lo, hi = sorted([q1, q2])
        a = empirical_quantile(v, lo)
        b = empirical_quantile(v, hi)
        assert a <= b
        assert min(v) <= a and b <= max(v)


class TestSymmetrize:
    def test_output_is_symmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = symmetrize(a)
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_allclose(s, [[1.0, 1.0], [1.0, 1.0]])


class TestRngStream:
    def test_equal_ids_bitwise_identical(self):
        a = RngStream(123, 4).generator().standard_normal(100)
        b = RngStream(123, 4).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(100)
        b = RngStream(123, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_children_reproducible_and_distinct(self):
        root = RngStream(9)
        c0 = root.child(0)
        assert c0 == root.child(0)
        seen = {root.child(i).stream_id for i in range(1000)}
        assert len(seen) == 1000

    def test_chained_children_do_not_collide(self):
        root = RngStream(9)
        ids = {root.child(i).child(j).stream_id for i in range(40) for j in range(40)}
        assert len(ids) == 1600

    def test_negative_child_index_rejected(self):
        with pytest.raises(InvalidInputError):
            RngStream(0).child(-1)

    def test_streams_independent_of_parent_draws(self):
        # deriving a child must not consume parent state
        root = RngStream(42, 7)
        before = root.child(3).generator().standard_normal(5)
        root.generator().standard_normal(1000)
        after = root.child(3).generator().standard_normal(5)
        np.testing.assert_array_equal(before, after)
