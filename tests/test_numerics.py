import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossclust.errors import ContractViolationError, DegenerateRowError, ShapeError
from crossclust.numerics import (
    entropy,
    row_l2_normalize,
    row_log_sum_exp,
    row_softmax,
    similarity_matrix,
)


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = row_l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_axis_vectors(self):
        out = row_l2_normalize(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_random_rows_become_unit(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 8))
        out = row_l2_normalize(m)
        # independent recomputation of the row norms
        norms = np.sqrt((out * out).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_direction_preserved(self):
        m = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0]])
        out = row_l2_normalize(m)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])

    def test_zero_row_identified(self):
        with pytest.raises(DegenerateRowError) as exc:
            row_l2_normalize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert exc.value.row == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            row_l2_normalize(np.array([[np.inf, 1.0]]))


class TestSimilarityMatrix:
    def test_identical_rows_all_ones(self):
        z = np.tile(np.array([[0.6, 0.8]]), (3, 1))
        np.testing.assert_allclose(similarity_matrix(z), np.ones((3, 3)), atol=1e-12)

    def test_orthogonal_rows(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(similarity_matrix(z), np.eye(2))

    def test_antipodal_rows(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(similarity_matrix(z), [[1.0, -1.0], [-1.0, 1.0]])

    def test_symmetry_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        z = row_l2_normalize(rng.normal(size=(40, 6)))
        s = similarity_matrix(z)
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)
        assert s.max() <= 1 + 1e-12 and s.min() >= -1 - 1e-12

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ContractViolationError, match="row 1"):
            similarity_matrix(np.array([[1.0, 0.0], [0.5, 0.5]]))


def lse_row(values, include=None):
    """row_log_sum_exp on a single row, all entries included unless a mask is given."""
    row = np.array([values], dtype=np.float64)
    mask = np.ones(row.shape, dtype=bool) if include is None else np.array([include])
    (out,) = row_log_sum_exp(row, mask)
    return out


class TestLogSumExp:
    def test_two_zeros(self):
        assert lse_row([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_no_overflow_for_large_inputs(self):
        assert lse_row([1000.0, 1000.0]) == pytest.approx(1000 + math.log(2), abs=1e-12)

    def test_single_element_exact(self):
        for a in (-123.456, 0.0, 7.25, 1e80):
            assert lse_row([a, 5.0], include=[True, False]) == a

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="row 0 selects no entries"):
            lse_row([1.0, 2.0], include=[False, False])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(-500, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, c):
        v = np.array(values)
        assert lse_row(v + c) == pytest.approx(lse_row(v) + c, abs=1e-10)


class TestEntropy:
    def test_uniform_over_ten(self):
        assert entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-15)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            entropy([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ContractViolationError):
            entropy([0.5, 0.6])

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_uniform_is_maximal(self, m, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m))
        p = p / p.sum()
        assert entropy(p) <= math.log(m) + 1e-12


class TestRowSoftmax:
    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(2)
        out = row_softmax(rng.normal(scale=50, size=(10, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_matches_direct_formula(self):
        x = np.array([[0.0, 1.0, 2.0]])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(row_softmax(x), expected, atol=1e-15)
