import numpy as np
import pytest

from crossclust.augment import AugmentConfig, augment_batch
from crossclust.errors import ConfigError, ContractViolationError

from oracles import augment_batch_rowwise

IDENTITY = AugmentConfig(gaussian_noise_sigma=0.0, mask_rate=0.0, scale_range=(1.0, 1.0))


class TestAugmentConfig:
    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigError, match="gaussian_noise_sigma"):
            AugmentConfig(gaussian_noise_sigma=-0.1)
        with pytest.raises(ConfigError, match="mask_rate"):
            AugmentConfig(mask_rate=1.0)
        with pytest.raises(ConfigError, match="scale_range"):
            AugmentConfig(scale_range=(0.0, 1.0))
        with pytest.raises(ConfigError, match="scale_range"):
            AugmentConfig(scale_range=(1.2, 0.8))


class TestMakePair:
    """The two views augment_batch makes of each row."""

    def test_identity_pool_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 12))
        a, b = augment_batch(IDENTITY, x, base_key=1)
        np.testing.assert_array_equal(a, x)
        np.testing.assert_array_equal(b, x)

    def test_fixed_seed_reproducible(self):
        x = np.linspace(-1, 1, 20)[None, :]
        cfg = AugmentConfig()
        a1, b1 = augment_batch(cfg, x, base_key=42)
        a2, b2 = augment_batch(cfg, x, base_key=42)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_views_are_independent_draws(self):
        x = np.ones((1, 50))
        a, b = augment_batch(AugmentConfig(), x, base_key=3)
        assert not np.array_equal(a, b)

    def test_mask_rate_monte_carlo(self):
        # 10k views of a 100-dim row: zeroed-coordinate count is binomial
        cfg = AugmentConfig(gaussian_noise_sigma=0.3, mask_rate=0.2, scale_range=(0.9, 1.1))
        x = np.full((5000, 100), 2.5)
        a, b = augment_batch(cfg, x, base_key=7)
        zeros = int((a == 0.0).sum()) + int((b == 0.0).sum())
        draws = a.size + b.size
        p = cfg.mask_rate
        expected = draws * p
        band = 3.0 * np.sqrt(draws * p * (1 - p))
        assert abs(zeros - expected) <= band
        # ~20 zeroed coordinates per 100-dim view
        assert zeros / (draws / 100) == pytest.approx(20.0, abs=1.0)


class TestAugmentBatch:
    def test_identity_pool_fixpoint(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        x_a, x_b = augment_batch(IDENTITY, x, base_key=11)
        np.testing.assert_array_equal(x_a, x)
        np.testing.assert_array_equal(x_b, x)

    def test_shapes_preserved(self):
        x = np.zeros((7, 3))
        x_a, x_b = augment_batch(AugmentConfig(), x, base_key=0)
        assert x_a.shape == x.shape and x_b.shape == x.shape

    def test_same_key_reproducible(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 8))
        first = augment_batch(AugmentConfig(), x, base_key=123)
        second = augment_batch(AugmentConfig(), x, base_key=123)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_row_keying_commutes_with_shuffling(self):
        # augmenting a permuted batch with permuted keys equals permuting the
        # augmented batch: each row's draws depend only on its own key
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 6))
        perm = rng.permutation(20)
        base = augment_batch(AugmentConfig(), x, base_key=9)
        shuffled = augment_batch(AugmentConfig(), x[perm], base_key=9, row_keys=perm)
        np.testing.assert_array_equal(shuffled[0], base[0][perm])
        np.testing.assert_array_equal(shuffled[1], base[1][perm])

    def test_row_generator_streams_are_distinct(self):
        x = np.zeros((1, 4))
        cfg = AugmentConfig(gaussian_noise_sigma=1.0, mask_rate=0.0)
        a = augment_batch(cfg, x, base_key=1, row_keys=[0])[0]
        b = augment_batch(cfg, x, base_key=1, row_keys=[1])[0]
        c = augment_batch(cfg, x, base_key=2, row_keys=[0])[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_outside_philox_range_rejected(self):
        with pytest.raises(ContractViolationError, match="row key"):
            augment_batch(AugmentConfig(), np.zeros((1, 3)), base_key=1 << 64)
        with pytest.raises(ContractViolationError, match="row key"):
            augment_batch(AugmentConfig(), np.zeros((1, 3)), base_key=0, row_keys=[-1])


class TestRowwiseOracle:
    """augment_batch reproduces the per-row generator loop bit for bit."""

    @pytest.mark.parametrize(
        "cfg",
        [
            AugmentConfig(),
            IDENTITY,
            AugmentConfig(mask_rate=0.5),
            # draws a term does not use are still consumed
            AugmentConfig(gaussian_noise_sigma=0.0, mask_rate=0.3, scale_range=(0.5, 2.0)),
            AugmentConfig(mask_rate=0.0),
        ],
        ids=["default", "identity", "mask_half", "no_noise", "no_mask"],
    )
    @pytest.mark.parametrize("n, d", [(16, 8), (1, 5), (6, 1), (1, 1)])
    def test_matches_rowwise_loop(self, cfg, n, d):
        rng = np.random.default_rng(n * 10 + d)
        x = rng.normal(size=(n, d))
        for base_key in (0, 123, (1 << 64) - 1):
            got = augment_batch(cfg, x, base_key)
            want = augment_batch_rowwise(cfg, x, base_key)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_matches_rowwise_loop_with_permuted_keys(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 7))
        keys = rng.permutation(1000)[:40]
        got = augment_batch(AugmentConfig(), x, 99, row_keys=keys)
        want = augment_batch_rowwise(AugmentConfig(), x, 99, row_keys=keys)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
