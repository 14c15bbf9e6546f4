"""Stochastic view generation for vector data.

The transformation pool is {additive Gaussian noise, random coordinate
masking, random uniform scaling}, applied in that order; each view of a pair
is an independent draw.  Batch augmentation keys a counter-based generator
by row so a row's views depend only on (row content, its key, config) and
never on batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError, ShapeError


@dataclass(frozen=True)
class AugmentConfig:
    gaussian_noise_sigma: float = 0.1
    mask_rate: float = 0.1
    scale_range: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        try:
            lo, hi = (float(v) for v in self.scale_range)
        except (TypeError, ValueError):
            raise ConfigError(
                "augment.scale_range", f"expected two numbers (lo, hi), got {self.scale_range!r}"
            ) from None
        object.__setattr__(self, "scale_range", (lo, hi))
        for name in ("gaussian_noise_sigma", "mask_rate"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, float(value))
            except (TypeError, ValueError):
                raise ConfigError(f"augment.{name}", f"must be a number, got {value!r}") from None
        if self.gaussian_noise_sigma < 0:
            raise ConfigError(
                "augment.gaussian_noise_sigma",
                f"must be >= 0, got {self.gaussian_noise_sigma}",
            )
        if not 0.0 <= self.mask_rate < 1.0:
            raise ConfigError("augment.mask_rate", f"must lie in [0, 1), got {self.mask_rate}")
        if not 0.0 < lo <= hi:
            raise ConfigError("augment.scale_range", f"need 0 < lo <= hi, got ({lo}, {hi})")


_WORD = (1 << 64) - 1


def augment_batch(
    cfg: AugmentConfig,
    x: np.ndarray,
    base_key: int,
    row_keys=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent transformed views of every row of a batch.

    Row r draws from Philox keyed by ``(base_key << 64) + row_keys[r]``:
    view a's d normals, d mask uniforms and one scale uniform, then view
    b's.  Draws are consumed whatever the config, so a row's views depend
    only on (row content, its key, config).  ``row_keys`` defaults to the
    row positions; passing stable per-sample keys makes augmentation
    independent of batch composition and ordering.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("augment_batch expects a 2-D batch")
    n, d = x.shape
    if row_keys is None:
        row_keys = np.arange(n)
    row_keys = np.asarray(row_keys, dtype=np.int64)
    if row_keys.shape != (n,):
        raise ShapeError(f"row_keys must have shape ({n},), got {row_keys.shape}")
    noise = np.empty((2, n, d))
    u = np.empty((2, n, d + 1))  # d mask draws, then the scale draw
    bit_gen = np.random.Philox(key=0)
    # Where Philox(key=k) begins: zero counter, empty buffer.  One state dict
    # of plain ints is reused; each row sets only its two key words.
    state = bit_gen.state
    key_words = state["state"]["key"].tolist()
    state["state"] = {"counter": state["state"]["counter"].tolist(), "key": key_words}
    state["buffer"] = state["buffer"].tolist()
    rng = np.random.Generator(bit_gen)
    base = int(base_key) << 64
    rows = zip(row_keys.tolist(), noise[0], u[0], noise[1], u[1])
    for row_key, noise_a, u_a, noise_b, u_b in rows:
        key = base + row_key
        if not 0 <= key < 1 << 128:
            raise ContractViolationError(f"row key {key} is outside the 128-bit Philox key range")
        key_words[0], key_words[1] = key & _WORD, key >> 64
        bit_gen.state = state
        rng.standard_normal(out=noise_a)
        rng.random(out=u_a)
        rng.standard_normal(out=noise_b)
        rng.random(out=u_b)
    lo, hi = cfg.scale_range
    sigma = cfg.gaussian_noise_sigma
    y = x + sigma * noise if sigma > 0 else np.broadcast_to(x, noise.shape).copy()
    if cfg.mask_rate > 0:
        y[u[:, :, :d] < cfg.mask_rate] = 0.0
    y *= (lo + (hi - lo) * u[:, :, d])[:, :, None]
    return y[0], y[1]
