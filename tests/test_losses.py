import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossclust.errors import ConfigError, ContractViolationError, DegenerateRowError, ShapeError
from crossclust.losses import (
    c3_loss,
    c3_objective,
    chain_to_embeddings,
    compute_weights,
    count_positive_pairs,
    init_cluster_loss,
    init_instance_loss,
    instance_objective,
    positive_mask,
    twin_indices,
)
from crossclust.numerics import row_l2_normalize, row_softmax, similarity_matrix

from oracles import (
    c3_loss_reference,
    c3_loss_scalar,
    central_difference,
    cluster_loss_scalar,
    compute_weights_reference,
    init_instance_loss_reference,
    instance_loss_scalar,
    minimize_weights_eg,
    weighting_objective,
)

# Stacked batch sizes for the bit-identity checks against the reference
# bodies; the losses work in row blocks, of which 1024 fills 16 exactly and
# 1000 ends with a partial one.
PAIRWISE_SIZES = (2, 130, 256, 1000, 1024)
GAMMAS = (1e-6, 0.1, 100.0, 1000.0)
TAUS = (1e-3, 0.5)
ZETAS = (-1.0, 0.6, 1.0)


def random_embeddings(rng, n_samples, dim):
    return row_l2_normalize(rng.normal(size=(2 * n_samples, dim)))


def pairwise_inputs(n2, dim=32):
    """Unit embeddings of a stacked batch of 2N = n2 rows and their similarities."""
    z = random_embeddings(np.random.default_rng(n2), n2 // 2, dim)
    return z, similarity_matrix(z)


def random_assignments(rng, n, m):
    return row_softmax(rng.normal(size=(n, m)))


class TestPositiveMask:
    def test_zeta_minus_one_marks_all_off_self(self):
        rng = np.random.default_rng(0)
        s = similarity_matrix(random_embeddings(rng, 4, 6))
        mask = positive_mask(s, -1.0)
        assert not mask.diagonal().any()
        off = ~np.eye(8, dtype=bool)
        assert mask[off].all()

    def test_zeta_one_keeps_twins_only(self):
        rng = np.random.default_rng(1)
        s = similarity_matrix(random_embeddings(rng, 5, 7))
        mask = positive_mask(s, 1.0)
        twins = twin_indices(10)
        expected = np.zeros((10, 10), dtype=bool)
        expected[np.arange(10), twins] = True
        np.testing.assert_array_equal(mask, expected)

    def test_density_non_increasing_in_zeta(self):
        rng = np.random.default_rng(2)
        s = similarity_matrix(random_embeddings(rng, 8, 5))
        counts = [positive_mask(s, z).sum() for z in np.linspace(-1, 1, 21)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.integers(0, 10_000), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=100, deadline=None)
    def test_mask_monotone_subset(self, seed, z1, z2):
        lo, hi = min(z1, z2), max(z1, z2)
        rng = np.random.default_rng(seed)
        s = similarity_matrix(random_embeddings(rng, 4, 4))
        strict = positive_mask(s, hi)
        loose = positive_mask(s, lo)
        assert (loose | strict == loose).all()  # mask(hi) subset of mask(lo)

    def test_zeta_out_of_range(self):
        with pytest.raises(ConfigError, match="zeta"):
            positive_mask(np.eye(4), 1.5)


class TestComputeWeights:
    def test_rows_are_simplex_and_self_zero(self):
        rng = np.random.default_rng(3)
        s = similarity_matrix(random_embeddings(rng, 6, 9))
        w = compute_weights(s, 0.7)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(np.diag(w), 0.0)
        assert (w >= 0).all() and (w <= 1).all()

    def test_equal_similarities_give_uniform(self):
        s = np.ones((6, 6))
        w = compute_weights(s, 2.0)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(w[off], 1.0 / 5.0, atol=1e-15)

    def test_small_gamma_approaches_uniform(self):
        rng = np.random.default_rng(4)
        s = similarity_matrix(random_embeddings(rng, 8, 4))
        w = compute_weights(s, 1e-6)
        off = ~np.eye(16, dtype=bool)
        assert np.abs(w[off] - 1.0 / 15.0).max() <= 1e-4

    def test_large_gamma_selects_lowest_abs_similarity(self):
        # one entry clearly closest to |s| = 0: it should take nearly all the mass
        s = np.array(
            [
                [1.0, 0.05, 0.8, -0.9],
                [0.05, 1.0, 0.5, 0.6],
                [0.8, 0.5, 1.0, 0.7],
                [-0.9, 0.6, 0.7, 1.0],
            ]
        )
        w = compute_weights(s, 100.0)
        assert w[0, 1] > 0.99
        assert np.argmax(w[0]) == 1

    def test_example_row_proportions(self):
        # row sims [0.0, 0.5, -0.5, 1.0] at gamma 0.1: weights track exp(gamma*(1-|s|))
        s = np.array(
            [
                [1.0, 0.0, 0.5, -0.5, 1.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 1.0, 0.0, 0.0],
                [-0.5, 0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        w = compute_weights(s, 0.1)
        raw = np.exp(0.1 * (1.0 - np.abs(np.array([0.0, 0.5, -0.5, 1.0]))))
        np.testing.assert_allclose(w[0, 1:], raw / raw.sum(), atol=1e-15)

    def test_agrees_with_numerical_simplex_minimizer(self):
        rng = np.random.default_rng(5)
        for gamma in (0.01, 0.1, 1.0, 10.0):
            s = similarity_matrix(random_embeddings(rng, 5, 6))
            w = compute_weights(s, gamma)
            for i in range(s.shape[0]):
                others = np.delete(np.arange(s.shape[0]), i)
                sims_row = s[i, others]
                reference = minimize_weights_eg(sims_row, gamma)
                np.testing.assert_allclose(w[i, others], reference, atol=1e-9)
                # closed form is at least as good on the objective itself
                assert weighting_objective(w[i, others], sims_row, gamma) <= (
                    weighting_objective(reference, sims_row, gamma) + 1e-12
                )

    def test_argmax_at_minimal_abs_similarity_with_tied_rows_equal(self):
        s = np.array(
            [
                [1.0, 0.3, -0.3, 0.9],
                [0.3, 1.0, 0.1, 0.2],
                [-0.3, 0.1, 1.0, 0.4],
                [0.9, 0.2, 0.4, 1.0],
            ]
        )
        w = compute_weights(s, 1.3)
        # entries 1 and 2 of row 0 tie on |s|; they get equal weight, larger than entry 3
        assert w[0, 1] == pytest.approx(w[0, 2], abs=1e-15)
        assert w[0, 1] > w[0, 3]
        assert np.argmax(w[0]) == 1  # ties resolve to the lowest index

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_bit_identical_to_reference(self, n2, gamma):
        _, s = pairwise_inputs(n2)
        assert np.array_equal(compute_weights(s, gamma), compute_weights_reference(s, gamma))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError, match="gamma"):
            compute_weights(np.eye(4), 0.0)


class TestC3Loss:
    def test_single_pair_batch_is_zero(self):
        z = row_l2_normalize(np.array([[0.3, 0.7], [0.7, 0.3]]))
        s = similarity_matrix(z)
        mask = positive_mask(s, 1.0)
        w = compute_weights(s, 0.1)
        loss, d_s = c3_loss(s, mask, w)
        assert loss == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            z = random_embeddings(rng, n, 5)
            s = similarity_matrix(z)
            zeta = float(rng.uniform(-1, 1))
            gamma = float(rng.uniform(0.05, 5))
            mask = positive_mask(s, zeta)
            w = compute_weights(s, gamma)
            loss, _ = c3_loss(s, mask, w)
            assert loss == pytest.approx(c3_loss_scalar(s.tolist(), mask.tolist(), w.tolist()), abs=1e-10)

    def test_unweighted_all_positive_loss_is_exactly_zero(self):
        # with every off-self pair positive and unit unnormalized weights the
        # numerator and denominator coincide term by term
        rng = np.random.default_rng(7)
        z = random_embeddings(rng, 6, 4)
        s = similarity_matrix(z)
        mask = positive_mask(s, -1.0)
        w = np.ones_like(s)
        np.fill_diagonal(w, 0.0)
        loss, _ = c3_loss(s, mask, w)
        assert loss == 0.0

    def test_normalized_weights_differ_from_unweighted_at_zeta_floor(self):
        rng = np.random.default_rng(8)
        z = random_embeddings(rng, 6, 4)
        s = similarity_matrix(z)
        mask = positive_mask(s, -1.0)
        loss, _ = c3_loss(s, mask, compute_weights(s, 0.1))
        assert loss != 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        z = random_embeddings(rng, 5, 4)
        s = similarity_matrix(z)
        mask = positive_mask(s, 0.2)
        w = compute_weights(s, 0.5)
        _, d_s = c3_loss(s, mask, w)
        numeric = central_difference(lambda m: c3_loss(m, mask, w)[0], s, eps=1e-6)
        np.testing.assert_allclose(d_s, numeric, atol=1e-6)

    def test_rescaling_weights_shifts_loss_by_log_factor(self):
        rng = np.random.default_rng(10)
        z = random_embeddings(rng, 5, 4)
        s = similarity_matrix(z)
        mask = positive_mask(s, 0.4)
        w = compute_weights(s, 0.1)
        base, _ = c3_loss(s, mask, w)
        doubled, _ = c3_loss(s, mask, 2.0 * w)
        assert doubled - base == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_bit_identical_to_reference(self, n2, gamma):
        _, s = pairwise_inputs(n2)
        mask = positive_mask(s, 0.3)
        w = compute_weights(s, gamma)
        loss, d_s = c3_loss(s, mask, w)
        ref_loss, ref_d_s = c3_loss_reference(s, mask, w)
        assert loss == ref_loss
        assert np.array_equal(d_s, ref_d_s)

    def test_empty_positive_row_rejected(self):
        s = np.eye(4)
        mask = np.zeros((4, 4), dtype=bool)
        w = compute_weights(s, 0.1)
        with pytest.raises(ContractViolationError, match="row 0"):
            c3_loss(s, mask, w)

    def test_weight_row_without_off_self_mass_rejected(self):
        rng = np.random.default_rng(20)
        s = similarity_matrix(random_embeddings(rng, 3, 4))
        w = compute_weights(s, 0.1)
        w[2] = 0.0
        w[2, 2] = 1.0  # self weight never enters the denominator
        with pytest.raises(ContractViolationError, match="weight row 2"):
            c3_loss(s, positive_mask(s, 0.5), w)


class TestChainToEmbeddings:
    def test_zero_gradient_maps_to_zero(self):
        z = np.ones((4, 3))
        np.testing.assert_array_equal(chain_to_embeddings(np.zeros((4, 4)), z), np.zeros((4, 3)))

    def test_single_entry_touches_two_rows(self):
        rng = np.random.default_rng(11)
        z = random_embeddings(rng, 2, 3)
        d_s = np.zeros((4, 4))
        d_s[0, 2] = 1.0
        d_z = chain_to_embeddings(d_s, z)
        assert np.abs(d_z[0]).sum() > 0 and np.abs(d_z[2]).sum() > 0
        np.testing.assert_array_equal(d_z[1], 0.0)
        np.testing.assert_array_equal(d_z[3], 0.0)

    def test_end_to_end_embedding_gradient(self):
        # freeze mask and weights at the base point, differentiate through s = z z^T
        rng = np.random.default_rng(12)
        z = random_embeddings(rng, 4, 5)
        s0 = z @ z.T
        mask = positive_mask(s0, 0.1)
        w = compute_weights(s0, 0.3)

        def loss_of_z(zm):
            return c3_loss(zm @ zm.T, mask, w)[0]

        _, d_s = c3_loss(s0, mask, w)
        analytic = chain_to_embeddings(d_s, z)
        numeric = central_difference(loss_of_z, z, eps=1e-6)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    def test_matches_sum_form(self, n2):
        # dS z + dS^T z rounds differently from (dS + dS^T) z, by ~1e-17 here
        z, s = pairwise_inputs(n2)
        grads = (
            c3_loss(s, positive_mask(s, 0.3), compute_weights(s, 0.1))[1],
            init_instance_loss(s, 0.5)[1],
        )
        for d_s in grads:
            sum_form = (d_s + d_s.T) @ z
            np.testing.assert_allclose(chain_to_embeddings(d_s, z), sum_form, rtol=0, atol=1e-15)


class TestInitInstanceLoss:
    def test_equal_similarities_n2_gives_log3(self):
        z = np.tile(row_l2_normalize(np.array([[0.6, 0.8]])), (4, 1))
        loss, _ = init_instance_loss(similarity_matrix(z), 0.5)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_equal_logits_give_log_of_non_self_count(self):
        # identical rows make every logit of a row equal, so each row's
        # log-sum-exp is its logit plus log(2N - 1), also at logits near 1000
        for n in (2, 3, 8):
            z = np.tile(row_l2_normalize(np.array([[0.6, 0.8]])), (2 * n, 1))
            for tau in (1e-3, 0.5, 7.25):
                loss, _ = init_instance_loss(similarity_matrix(z), tau)
                assert loss == pytest.approx(math.log(2 * n - 1), abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            tau = float(rng.uniform(0.1, 2.0))
            z = random_embeddings(rng, n, 6)
            loss, _ = init_instance_loss(similarity_matrix(z), tau)
            assert loss == pytest.approx(instance_loss_scalar(z.tolist(), tau), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        z = random_embeddings(rng, 5, 4)
        _, d_s = init_instance_loss(z @ z.T, 0.5)
        d_z = chain_to_embeddings(d_s, z)
        numeric = central_difference(lambda m: init_instance_loss(m @ m.T, 0.5)[0], z, eps=1e-5)
        np.testing.assert_allclose(d_z, numeric, atol=1e-5)

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("tau", TAUS)
    def test_bit_identical_to_reference(self, n2, tau):
        _, s = pairwise_inputs(n2)
        loss, d_s = init_instance_loss(s, tau)
        ref_loss, ref_d_s = init_instance_loss_reference(s, tau)
        assert loss == ref_loss
        assert np.array_equal(d_s, ref_d_s)

    def test_large_logits_stay_finite_and_match_reference(self):
        # near-duplicate twins at tau = 1e-3 put logits at ~1000, where an
        # unshifted exp overflows
        rng = np.random.default_rng(15)
        z_a = row_l2_normalize(rng.normal(size=(8, 4)))
        z = row_l2_normalize(np.vstack([z_a, z_a + 1e-4 * rng.normal(size=z_a.shape)]))
        s = similarity_matrix(z)
        assert (s / 1e-3).max() > 999.0
        loss, d_s = init_instance_loss(s, 1e-3)
        assert math.isfinite(loss) and loss >= 0.0
        assert np.isfinite(d_s).all()
        ref_loss, ref_d_s = init_instance_loss_reference(s, 1e-3)
        assert loss == ref_loss
        assert np.array_equal(d_s, ref_d_s)

    @pytest.mark.parametrize("tau", [1e-3, 0.5, 7.25])
    @pytest.mark.parametrize("pair", [[[1.0, 0.0], [-1.0, 0.0]], [[0.6, 0.8], [0.8, 0.6]]])
    def test_two_row_batch_is_exactly_zero(self, tau, pair):
        # with 2N = 2 each row's only non-self entry is its twin, so the
        # log-sum-exp of the denominator is the twin logit exactly
        loss, d_s = init_instance_loss(similarity_matrix(np.array(pair)), tau)
        assert loss == 0.0
        np.testing.assert_array_equal(d_s, np.zeros((2, 2)))

    @given(st.integers(1, 6), st.integers(0, 10_000), st.floats(-500, 500))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, n, seed, c):
        s = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2 * n, 2 * n))
        shifted, _ = init_instance_loss(s + c, 0.5)
        assert shifted == pytest.approx(init_instance_loss(s, 0.5)[0], abs=1e-10)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError, match="tau_I"):
            init_instance_loss(np.eye(4), 0.0)


class TestInitClusterLoss:
    def test_uniform_assignments_hit_entropy_floor(self):
        n, m = 8, 5
        uniform = np.full((n, m), 1.0 / m)
        loss, _, _ = init_cluster_loss(uniform, uniform, 1.0)
        # mean-assignment term is -log(m) per view at the uniform optimum
        balance = 2.0 * (1.0 / m * math.log(1.0 / m)) * m
        assert balance == pytest.approx(-2.0 * math.log(m), abs=1e-12)
        rng = np.random.default_rng(15)
        for _ in range(10):
            c_a = random_assignments(rng, n, m)
            c_b = random_assignments(rng, n, m)
            pa, pb = c_a.mean(axis=0), c_b.mean(axis=0)
            other = float((pa * np.log(pa)).sum() + (pb * np.log(pb)).sum())
            assert other >= balance - 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(2, 9))
            tau = float(rng.uniform(0.2, 2.0))
            c_a = random_assignments(rng, n, m)
            c_b = random_assignments(rng, n, m)
            loss, _, _ = init_cluster_loss(c_a, c_b, tau)
            assert loss == pytest.approx(
                cluster_loss_scalar(c_a.tolist(), c_b.tolist(), tau), abs=1e-10
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        c_a = random_assignments(rng, 5, 3)
        c_b = random_assignments(rng, 5, 3)
        _, d_ca, d_cb = init_cluster_loss(c_a, c_b, 1.0)
        num_a = central_difference(lambda m: init_cluster_loss(m, c_b, 1.0)[0], c_a, eps=1e-5)
        num_b = central_difference(lambda m: init_cluster_loss(c_a, m, 1.0)[0], c_b, eps=1e-5)
        np.testing.assert_allclose(d_ca, num_a, atol=1e-5)
        np.testing.assert_allclose(d_cb, num_b, atol=1e-5)

    def test_rejects_invalid_probability_rows(self):
        good = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(ContractViolationError):
            init_cluster_loss(np.full((4, 3), 0.9), good, 1.0)
        with pytest.raises(ContractViolationError):
            init_cluster_loss(good - 0.4, good, 1.0)

    def test_rejects_all_zero_cluster_column(self):
        c = np.zeros((4, 3))
        c[:, 0] = 1.0  # one-hot everywhere: columns 1 and 2 are all-zero
        with pytest.raises(DegenerateRowError, match="^cluster column 1 is all zero$") as exc:
            init_cluster_loss(c, c, 1.0)
        assert exc.value.row == 1

    @pytest.mark.parametrize("tiny", [1e-200, 1e-300])
    def test_column_of_underflowing_norm_trains(self, tiny):
        # the entries square to 0, so the plain norm of column 1 is 0
        c_a = np.array([[1.0, tiny]] * 4)
        c_b = np.full((4, 2), 0.5)
        loss, d_ca, d_cb = init_cluster_loss(c_a, c_b, 1.0)
        assert np.isfinite(loss) and np.isfinite(d_ca).all() and np.isfinite(d_cb).all()
        # cosines see unit profiles only: both columns' are (1, 1, 1, 1) / 2,
        # as in any constant assignment; the loss differs in the balance term
        even = np.array([[0.75, 0.25]] * 4)

        def balance(p):
            return float((p * np.log(p)).sum())

        contrastive = loss - balance(np.array([1.0, tiny]))
        want = init_cluster_loss(even, c_b, 1.0)[0] - balance(np.array([0.75, 0.25]))
        assert contrastive == pytest.approx(want, rel=1e-12)

    def test_rejects_column_too_small_for_a_finite_gradient(self):
        # dividing the unit column's gradient by a norm of 4.3e-310 overflows
        c_a = np.array([[1.0, 1.8e-307], [1.0, 6.1e-301]])
        c_b = np.array([[1.0, 4.3e-310], [1.0, 0.0]])
        with pytest.raises(DegenerateRowError, match="^cluster column 3 has norm 4.3e-310") as exc:
            init_cluster_loss(c_a, c_b, 1.0)
        assert exc.value.row == 3


class TestCountPositivePairs:
    def test_twin_only_is_one(self):
        rng = np.random.default_rng(18)
        s = similarity_matrix(random_embeddings(rng, 6, 5))
        assert count_positive_pairs(positive_mask(s, 1.0)) == 1.0

    def test_all_pairs_is_2n_minus_1(self):
        rng = np.random.default_rng(19)
        s = similarity_matrix(random_embeddings(rng, 6, 5))
        assert count_positive_pairs(positive_mask(s, -1.0)) == 11.0

    def test_tight_clusters_match_cooccurrence_profile(self):
        # 128 samples over 200 potential clusters: 110 singleton classes and
        # 9 doubled classes.  Tight one-hot class embeddings make every
        # same-class stacked pair positive, so the expected average is
        # sum(n_c * (n_c - 1)) / 2N = 328/256, close to the 2N/M = 1.28
        # batch-over-classes heuristic for this regime.
        labels = np.concatenate([np.arange(110), np.repeat(np.arange(110, 119), 2)])
        assert labels.size == 128
        e = np.eye(200)
        z = np.vstack([e[labels], e[labels]])
        mask = positive_mask(similarity_matrix(z), 0.6)
        counts = {c: 2 * int((labels == c).sum()) for c in np.unique(labels)}
        expected = sum(n * (n - 1) for n in counts.values()) / 256
        assert expected == pytest.approx(1.28, abs=0.01)
        assert count_positive_pairs(mask) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "mask", [np.ones((4, 3), dtype=bool), np.ones((4, 4))], ids=["non_square", "non_boolean"]
    )
    def test_malformed_mask_rejected(self, mask):
        with pytest.raises(ShapeError):
            count_positive_pairs(mask)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_weight_rows_always_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        gamma = float(rng.uniform(1e-3, 20))
        s = similarity_matrix(random_embeddings(rng, n, 4))
        w = compute_weights(s, gamma)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert (w >= 0).all()
        # row argmax sits at the entry minimizing |s| (lowest index on ties)
        off = np.abs(s) + np.where(np.eye(2 * n, dtype=bool), np.inf, 0.0)
        np.testing.assert_array_equal(np.argmax(w, axis=1), np.argmin(off, axis=1))


class TestStageObjectives:
    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("tau", TAUS)
    def test_instance_objective_bit_identical_to_per_matrix_functions(self, n2, tau, zeta):
        z, s = pairwise_inputs(n2)
        loss, d_s, pairs = instance_objective(z, tau, zeta)
        ref_loss, ref_d_s = init_instance_loss(s, tau)
        assert loss == ref_loss
        assert np.array_equal(d_s, ref_d_s)
        assert pairs == count_positive_pairs(positive_mask(s, zeta))

    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_c3_objective_bit_identical_to_per_matrix_functions(self, n2, gamma, zeta):
        z, s = pairwise_inputs(n2)
        loss, d_s, pairs = c3_objective(z, zeta, gamma)
        mask = positive_mask(s, zeta)
        ref_loss, ref_d_s = c3_loss(s, mask, compute_weights(s, gamma))
        assert loss == ref_loss
        assert np.array_equal(d_s, ref_d_s)
        assert pairs == count_positive_pairs(mask)

    @pytest.mark.parametrize(
        "objective, args",
        [(instance_objective, (0.5, 0.6)), (c3_objective, (0.6, 0.1))],
        ids=["instance", "c3"],
    )
    def test_peak_memory_is_one_pairwise_buffer(self, objective, args):
        # the gradient overwrites s, and masks and weights live one row block
        # at a time: the parent's per-matrix path held three to four buffers
        n2 = 1024
        z, _ = pairwise_inputs(n2)
        tracemalloc.start()
        try:
            _, d_s, _ = objective(z, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d_s.shape == (n2, n2)
        assert peak <= 1.25 * n2 * n2 * 8

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda z: instance_objective(z, 0.0, 0.6), "tau_I"),
            (lambda z: instance_objective(z, 0.5, 1.5), "zeta"),
            (lambda z: c3_objective(z, -1.5, 0.1), "zeta"),
            (lambda z: c3_objective(z, 0.6, 0.0), "gamma"),
            (lambda z: init_cluster_loss(np.full((4, 2), 0.5), np.full((4, 2), 0.5), 0.0), "tau_C"),
        ],
        ids=["tau", "instance-zeta", "c3-zeta", "gamma", "cluster-tau"],
    )
    def test_invalid_hyperparameters_rejected(self, call, field):
        z, _ = pairwise_inputs(4)
        with pytest.raises(ConfigError, match=field) as exc:
            call(z)
        assert exc.value.field == field

    @pytest.mark.parametrize("objective", [instance_objective, c3_objective])
    def test_non_unit_embeddings_rejected(self, objective):
        z, _ = pairwise_inputs(4)
        with pytest.raises(ContractViolationError, match="unit rows"):
            objective(2.0 * z, 0.5, 0.5)
