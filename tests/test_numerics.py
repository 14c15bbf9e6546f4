import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossclust.errors import ContractViolationError, DegenerateRowError
from crossclust.numerics import (
    entropy,
    row_l2_normalize,
    row_softmax,
    similarity_matrix,
)

from oracles import row_softmax_reference, similarity_matrix_reference

# Stacked batch sizes for the bit-identity checks against the reference bodies.
PAIRWISE_SIZES = (2, 130, 256, 1024)


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

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("dim", [3, 32])
    def test_bit_identical_to_reference(self, n2, dim):
        z = row_l2_normalize(np.random.default_rng(n2 + dim).normal(size=(n2, dim)))
        assert np.array_equal(similarity_matrix(z), similarity_matrix_reference(z))

    @pytest.mark.parametrize("layout", ["c", "fortran", "row_strided"])
    def test_exactly_symmetric_at_1024(self, layout):
        z = row_l2_normalize(np.random.default_rng(3).normal(size=(1024, 32)))
        z = {
            "c": z,
            "fortran": np.asfortranarray(z),
            "row_strided": np.repeat(z, 2, axis=0)[::2],
        }[layout]
        s = similarity_matrix(z)
        assert np.array_equal(s, s.T)


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

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    def test_bit_identical_to_reference_and_input_untouched(self, n2):
        x = np.random.default_rng(n2).normal(scale=50, size=(n2, n2))
        x[0, :] = -np.inf
        x[0, -1] = 3.0
        before = x.copy()
        assert np.array_equal(row_softmax(x), row_softmax_reference(x))
        assert np.array_equal(x, before)
