import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossclust.errors import ContractViolationError, ShapeError
from crossclust.metrics import Partition, accuracy, ari, contingency_table, hungarian, nmi

from oracles import accuracy_brute, hungarian_brute


def parts(pred, truth, m_pred=None, m_truth=None):
    """Partitions of ``pred`` and ``truth``, of ``max + 1`` clusters unless given."""
    pred, truth = np.array(pred), np.array(truth)
    p = Partition(pred, int(pred.max()) + 1 if m_pred is None else m_pred)
    t = Partition(truth, int(truth.max()) + 1 if m_truth is None else m_truth)
    return p, t


class TestPartition:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ContractViolationError):
            Partition(np.array([0, 3]), 3)


class TestContingency:
    def test_counts_sum_to_n(self):
        p, t = parts([0, 0, 1, 1], [0, 1, 1, 1])
        table = contingency_table(p, t)
        assert table.sum() == 4
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    @pytest.mark.parametrize("p_clusters, t_clusters", [(1, 1), (3, 3), (2, 6), (7, 3)])
    @pytest.mark.parametrize("n", [0, 1, 5, 200])
    def test_equals_add_at_counts(self, n, p_clusters, t_clusters):
        # few rows over many clusters leave some rows and columns empty
        rng = np.random.default_rng(n + p_clusters)
        p = Partition(rng.integers(0, p_clusters, size=n), p_clusters)
        t = Partition(rng.integers(0, t_clusters, size=n), t_clusters)
        want = np.zeros((p_clusters, t_clusters), dtype=np.int64)
        np.add.at(want, (p.labels, t.labels), 1)
        table = contingency_table(p, t)
        assert table.dtype == np.int64 and table.shape == want.shape
        np.testing.assert_array_equal(table, want)

    def test_length_mismatch(self):
        p, t = Partition(np.array([0, 1]), 2), Partition(np.array([0, 1, 0]), 2)
        with pytest.raises(ShapeError):
            contingency_table(p, t)


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_array_equal(hungarian(cost), [0, 1, 2, 3])

    def test_two_by_two_unique_optimum(self):
        np.testing.assert_array_equal(hungarian([[1.0, 2.0], [2.0, 1.0]]), [0, 1])

    def test_matches_exhaustive_search_on_random_integer_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cost = rng.integers(0, 10, size=(5, 5)).astype(float)
            perm = hungarian(cost)
            best_perm, best_cost = hungarian_brute(cost.tolist())
            assert cost[np.arange(5), perm].sum() == best_cost
            # deterministic tie-break: lexicographically smallest optimum
            assert tuple(perm) == best_perm

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hungarian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    def test_all_equal_costs_gives_identity(self):
        # every permutation is optimal; identity is the lexicographically smallest
        np.testing.assert_array_equal(hungarian(np.ones((6, 6))), np.arange(6))


class TestAccuracy:
    def test_identical_partitions(self):
        p, t = parts([0, 1, 2, 0], [0, 1, 2, 0])
        assert accuracy(p, t) == 1.0

    def test_relabeled_partition_is_perfect(self):
        truth = [0, 1, 2, 0, 1, 2]
        pred = [2, 0, 1, 2, 0, 1]
        p, t = parts(pred, truth)
        assert accuracy(p, t) == 1.0

    def test_small_case_against_brute_force(self):
        p, t = parts([0, 0, 1, 1], [0, 1, 1, 1])
        expected = accuracy_brute([0, 0, 1, 1], [0, 1, 1, 1], 2, 2)
        assert expected == 0.75
        assert accuracy(p, t) == expected

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m_pred = int(rng.integers(1, 7))
            m_truth = int(rng.integers(1, 7))
            n = int(rng.integers(2, 30))
            pred = rng.integers(0, m_pred, size=n)
            truth = rng.integers(0, m_truth, size=n)
            p = Partition(pred, m_pred)
            t = Partition(truth, m_truth)
            assert accuracy(p, t) == pytest.approx(
                accuracy_brute(pred.tolist(), truth.tolist(), m_pred, m_truth), abs=1e-12
            )

    def test_symmetry_when_cluster_counts_match(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a = Partition(rng.integers(0, 4, size=n), 4)
            b = Partition(rng.integers(0, 4, size=n), 4)
            assert accuracy(a, b) == pytest.approx(accuracy(b, a), abs=1e-12)

    def test_length_mismatch(self):
        p, t = Partition(np.array([0, 1]), 2), Partition(np.array([0, 1, 0]), 2)
        with pytest.raises(ShapeError):
            accuracy(p, t)


class TestNmi:
    def test_identical_nontrivial(self):
        p, t = parts([0, 0, 1, 2], [0, 0, 1, 2])
        assert nmi(p, t) == pytest.approx(1.0, abs=1e-12)

    def test_single_cluster_pred(self):
        p, t = parts([0, 0, 0, 0], [0, 1, 0, 1])
        assert nmi(p, t) == 0.0

    def test_independent_partitions(self):
        p, t = parts([0, 0, 1, 1], [0, 1, 0, 1])
        assert nmi(p, t) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster_defined_as_zero(self):
        p, t = parts([0, 0, 0], [0, 0, 0], 1, 1)
        assert nmi(p, t) == 0.0

    def test_matches_sklearn_arithmetic_normalizer(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            ours = nmi(Partition(a, 5), Partition(b, 4))
            ref = sklearn_metrics.normalized_mutual_info_score(b, a, average_method="arithmetic")
            assert ours == pytest.approx(ref, abs=1e-10)


class TestAri:
    def test_identical_nontrivial(self):
        p, t = parts([0, 1, 1, 2], [0, 1, 1, 2])
        assert ari(p, t) == 1.0

    def test_relabeling_invariance(self):
        pred = [0, 0, 1, 1, 2]
        relabeled = [2, 2, 0, 0, 1]
        truth = [0, 0, 1, 2, 2]
        p1, t = parts(pred, truth)
        p2, _ = parts(relabeled, truth)
        assert ari(p1, t) == pytest.approx(ari(p2, t), abs=1e-12)

    def test_pair_count_example(self):
        # brute force over all C(4,2)=6 sample pairs
        pred = [0, 0, 1, 1]
        truth = [0, 0, 1, 2]
        same_pred = {(i, j) for i in range(4) for j in range(i + 1, 4) if pred[i] == pred[j]}
        same_truth = {(i, j) for i in range(4) for j in range(i + 1, 4) if truth[i] == truth[j]}
        a = len(same_pred & same_truth)
        total = 6
        expected_index = a
        exp = len(same_pred) * len(same_truth) / total
        maximum = (len(same_pred) + len(same_truth)) / 2
        expected = (expected_index - exp) / (maximum - exp)
        p, t = parts(pred, truth)
        assert ari(p, t) == pytest.approx(expected, abs=1e-12)

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            ours = ari(Partition(a, 5), Partition(b, 4))
            ref = sklearn_metrics.adjusted_rand_score(b, a)
            assert ours == pytest.approx(ref, abs=1e-10)


class TestMetricProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        mp = int(rng.integers(1, 6))
        mt = int(rng.integers(1, 6))
        pred = rng.integers(0, mp, size=n)
        truth = rng.integers(0, mt, size=n)
        p, t = Partition(pred, mp), Partition(truth, mt)
        v_nmi = nmi(p, t)
        v_ari = ari(p, t)
        v_acc = accuracy(p, t)
        assert 0.0 <= v_nmi <= 1.0 + 1e-12
        assert -1.0 < v_ari <= 1.0 + 1e-12
        assert 0.0 < v_acc <= 1.0

        # relabel pred by a random permutation of ids: all three metrics unchanged
        sigma = rng.permutation(mp)
        p2 = Partition(sigma[pred], mp)
        assert nmi(p2, t) == pytest.approx(v_nmi, abs=1e-12)
        assert ari(p2, t) == pytest.approx(v_ari, abs=1e-12)
        assert accuracy(p2, t) == pytest.approx(v_acc, abs=1e-12)
