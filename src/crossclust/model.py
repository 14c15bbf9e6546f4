"""The trainable network triple: encoder, instance head, cluster head.

The encoder is a ReLU MLP; the instance head ends in a row-normalized
embedding (z), the cluster head in row-softmaxed assignment probabilities
(c).  Gradients are analytic reverse-mode, checked against central finite
differences by :func:`grad_check`.  Parameters and optimizer state are plain
float64 arrays so that training is bitwise reproducible for a fixed seed.

All weights and biases live in one contiguous float64 vector,
``ModelParams.flat``.  Blocks follow checkpoint order: segments encoder,
instance head, cluster head; within a segment layer by layer, each layer's
``(fan_in, fan_out)`` weight (row-major) then its ``(fan_out,)`` bias.  The
per-layer arrays of ``ModelParams.encoder`` etc. are views into ``flat``, so
gradients, Adam moments and finite-difference perturbations are flat
vectors of the same layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import check_positive
from .errors import ConfigError, NonFiniteError, ShapeError
from .numerics import Matrix, as_matrix, row_l2_normalize, row_norms, row_softmax

CHECKPOINT_FORMAT_VERSION = 1
# Activation entries per row block in cluster_probabilities (4 MiB of float64):
# 4096 rows at a 128-wide layer.
_BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class ModelDims:
    """Layer widths for the three network segments."""

    input_dim: int
    encoder_hidden: tuple[int, ...] = (128, 64)
    z_dim: int = 32
    num_clusters: int = 2

    def __post_init__(self):
        object.__setattr__(self, "encoder_hidden", tuple(int(w) for w in self.encoder_hidden))
        if len(self.encoder_hidden) == 0:
            raise ConfigError("dims.hidden", "encoder needs at least one hidden layer")
        for name, value in [
            ("dims.input_dim", self.input_dim),
            ("dims.z_dim", self.z_dim),
            ("dims.num_clusters", self.num_clusters),
            *((f"dims.hidden[{k}]", w) for k, w in enumerate(self.encoder_hidden)),
        ]:
            if int(value) < 1:
                raise ConfigError(name, f"layer width must be positive, got {value}")

    def segments(self):
        """(name, layer widths) of each segment, in flat-vector order."""
        yield "encoder", [self.input_dim, *self.encoder_hidden]
        yield "instance_head", [self.encoder_hidden[-1], self.z_dim]
        yield "cluster_head", [self.encoder_hidden[-1], self.num_clusters]

    def num_parameters(self) -> int:
        return sum(
            (fan_in + 1) * fan_out
            for _, sizes in self.segments()
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        )


@dataclass
class LinearLayer:
    weight: Matrix  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)


@dataclass
class ModelParams:
    """Weights and biases of encoder f, instance head, and cluster head.

    ``flat`` holds every parameter; the layers are views into it, rebuilt on
    construction.  Copy with ``dataclasses.replace(params, flat=...)``.
    """

    dims: ModelDims
    flat: np.ndarray
    encoder: list[LinearLayer] = field(init=False, repr=False)
    instance_head: list[LinearLayer] = field(init=False, repr=False)
    cluster_head: list[LinearLayer] = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        expected = (self.dims.num_parameters(),)
        if self.flat.shape != expected:
            raise ShapeError(f"flat parameters have shape {self.flat.shape}, dims need {expected}")
        offset = 0
        for seg_name, sizes in self.dims.segments():
            layers = []
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
                end = offset + fan_in * fan_out
                weight = self.flat[offset:end].reshape(fan_in, fan_out)
                layers.append(LinearLayer(weight=weight, bias=self.flat[end : end + fan_out]))
                offset = end + fan_out
            setattr(self, seg_name, layers)

    def named_arrays(self):
        """Yield (name, array) pairs in flat-vector (checkpoint) order."""
        for seg_name, _ in self.dims.segments():
            for k, layer in enumerate(getattr(self, seg_name)):
                yield f"{seg_name}.{k}.weight", layer.weight
                yield f"{seg_name}.{k}.bias", layer.bias

    def num_parameters(self) -> int:
        return self.flat.size


def init_params(seed, dims: ModelDims) -> ModelParams:
    """Deterministic fan-in-scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = ModelParams(dims=dims, flat=np.zeros(dims.num_parameters()))
    for name, arr in params.named_arrays():
        if name.endswith(".weight"):
            arr[...] = rng.standard_normal(arr.shape) / np.sqrt(arr.shape[0])
    return params


@dataclass
class ForwardCache:
    """Pre-activations and outputs of one forward pass, kept for backward."""

    x: Matrix
    encoder_pre: list[Matrix]
    h: Matrix
    instance_pre: list[Matrix]
    z_norms: np.ndarray
    z: Matrix
    cluster_pre: list[Matrix]
    c: Matrix


def _chain_forward(layers, x, relu_last: bool):
    pres = []
    a = x
    last = len(layers) - 1
    for k, layer in enumerate(layers):
        pre = a @ layer.weight + layer.bias
        pres.append(pre)
        a = np.maximum(pre, 0.0) if (k < last or relu_last) else pre
    return pres, a


def _input_matrix(params: ModelParams, x) -> Matrix:
    x = as_matrix(x, "x")
    if x.shape[1] != params.dims.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, model expects {params.dims.input_dim}"
        )
    return x


def forward(params: ModelParams, x) -> ForwardCache:
    """h = f(x); z = normalize(instance_head(h)); c = softmax(cluster_head(h))."""
    x = _input_matrix(params, x)
    encoder_pre, h = _chain_forward(params.encoder, x, relu_last=True)
    instance_pre, y_z = _chain_forward(params.instance_head, h, relu_last=False)
    cluster_pre, y_c = _chain_forward(params.cluster_head, h, relu_last=False)
    z_norms = row_norms(y_z)
    z = row_l2_normalize(y_z, z_norms)
    return ForwardCache(
        x=x,
        encoder_pre=encoder_pre,
        h=h,
        instance_pre=instance_pre,
        z_norms=z_norms,
        z=z,
        cluster_pre=cluster_pre,
        c=row_softmax(y_c),
    )


def _row_blocks(n: int, width: int):
    """Row slices that tile ``range(n)`` so a block of a ``width``-column activation
    holds about ``_BLOCK_ENTRIES`` entries.  No block has one row unless n is 1:
    a one-row product takes BLAS's gemv path, which rounds differently from
    gemm, so a trailing one-row block joins the block before it."""
    step = max(2, _BLOCK_ENTRIES // width)
    bounds = [*range(0, n, step), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(r0, r1) for r0, r1 in zip(bounds[:-1], bounds[1:])]


def cluster_probabilities(params: ModelParams, x) -> Matrix:
    """c = softmax(cluster_head(f(x))) alone: the instance head is never evaluated.

    More rows than one block (see :func:`_row_blocks`) are evaluated block by
    block into one (n, M) output, so only one block's activations are alive
    at a time.  Up to one block of rows this equals ``forward(params, x).c``
    bit for bit; beyond it a block's products may round differently in the
    last bit, and the argmax labels are the same.  Takes rows whose instance
    embedding is zero (which ``forward`` cannot normalize).
    """
    x = _input_matrix(params, x)
    layers = [*params.encoder, *params.cluster_head]
    blocks = _row_blocks(x.shape[0], max(layer.bias.size for layer in layers))
    if len(blocks) < 2:
        return _cluster_pass(layers, x)
    out = np.empty((x.shape[0], params.dims.num_clusters))
    for rows in blocks:
        out[rows] = _cluster_pass(layers, x[rows])
    return out


def _cluster_pass(layers, a) -> Matrix:
    for k, layer in enumerate(layers):
        a = a @ layer.weight
        a += layer.bias
        if k < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
    return row_softmax(a)


def _chain_backward(layers, grads, pres, x, d_out, relu_last: bool = False):
    """Backprop a linear/ReLU chain into the layers ``grads``; returns the grad wrt chain input."""
    last = len(layers) - 1
    da = d_out
    for k in range(last, -1, -1):
        d_pre = da * (pres[k] > 0) if (k < last or relu_last) else da
        a_in = np.maximum(pres[k - 1], 0.0) if k > 0 else x
        np.matmul(a_in.T, d_pre, out=grads[k].weight)
        d_pre.sum(axis=0, out=grads[k].bias)
        da = d_pre @ layers[k].weight.T
    return da


def backward(params: ModelParams, cache: ForwardCache, grad_z, grad_c) -> ModelParams:
    """Parameter gradients for upstream gradients w.r.t. z and c.

    The z path includes the row-normalization Jacobian, the c path the softmax
    Jacobian.  ``grad_c=None`` means the loss does not depend on c: the cluster
    head is not backpropagated, its gradient blocks are exact zeros and the
    encoder receives the instance head's gradient alone.  Every block is
    written into one fresh flat vector.
    """
    grad_z = np.asarray(grad_z, dtype=np.float64)
    if grad_z.shape != cache.z.shape:
        raise ShapeError(f"grad_z shape {grad_z.shape} != z shape {cache.z.shape}")
    if grad_c is not None:
        grad_c = np.asarray(grad_c, dtype=np.float64)
        if grad_c.shape != cache.c.shape:
            raise ShapeError(f"grad_c shape {grad_c.shape} != c shape {cache.c.shape}")

    # z = y / ||y||  =>  dL/dy = (g - (g . z) z) / ||y||
    zdot = (grad_z * cache.z).sum(axis=1, keepdims=True)
    d_yz = (grad_z - zdot * cache.z) / cache.z_norms[:, None]
    grads = replace(params, flat=np.empty_like(params.flat))
    dh = _chain_backward(
        params.instance_head, grads.instance_head, cache.instance_pre, cache.h, d_yz
    )

    if grad_c is None:
        for layer in grads.cluster_head:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
    else:
        # c = softmax(y)  =>  dL/dy = c * (g - sum(g * c))
        cdot = (grad_c * cache.c).sum(axis=1, keepdims=True)
        d_yc = cache.c * (grad_c - cdot)
        dh = dh + _chain_backward(
            params.cluster_head, grads.cluster_head, cache.cluster_pre, cache.h, d_yc
        )

    _chain_backward(params.encoder, grads.encoder, cache.encoder_pre, cache.x, dh, relu_last=True)
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, flat vectors laid out like ``ModelParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), step=0)


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    check_positive("lr", lr)
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(name for name, a in grads.named_arrays() if not np.isfinite(a).all())
        raise NonFiniteError(f"non-finite gradient in block '{name}'")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    flat = params.flat - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return replace(params, flat=flat), AdamState(m=m, v=v, step=t)


def grad_check(
    params: ModelParams,
    loss_fn,
    eps: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
    floor: float = 1e-4,
) -> float:
    """Worst relative disagreement between analytic and central-difference grads.

    ``loss_fn(params) -> (loss, ModelParams-shaped grads)`` must be
    deterministic.  Coordinates are indices into ``params.flat``; with
    ``max_coords`` a seeded sample of them is checked.  The relative error of
    a coordinate is ``|a - n| / max(|a|, |n|, floor)``; the floor keeps
    finite-difference roundoff on near-zero coordinates from dominating.
    Reports only; never raises on disagreement.
    """
    _, analytic = loss_fn(params)
    coords = range(params.flat.size)
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        coords = rng.choice(len(coords), size=max_coords, replace=False)

    def loss_at(i, delta):
        flat = params.flat.copy()
        flat[i] += delta
        return loss_fn(replace(params, flat=flat))[0]

    worst = 0.0
    for i in coords:
        numeric = (loss_at(i, +eps) - loss_at(i, -eps)) / (2.0 * eps)
        a = float(analytic.flat[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
        worst = max(worst, err)
    return worst


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned JSON checkpoint that round-trips bit-exactly."""
    dims = params.dims
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": {
            "input_dim": dims.input_dim,
            "encoder_hidden": list(dims.encoder_hidden),
            "z_dim": dims.z_dim,
            "num_clusters": dims.num_clusters,
        },
        "blocks": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.named_arrays()
        },
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not a checkpoint (not UTF-8 JSON, a missing key or field,
    a block of the wrong shape) raises :class:`ConfigError` naming the path.
    """
    try:
        return _params_from_payload(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise ConfigError("checkpoint", f"{path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError("checkpoint", f"{path}: {exc}") from None


def _params_from_payload(payload) -> ModelParams:
    if not isinstance(payload, dict):
        raise ValueError("top level is not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    d = payload["dims"]
    dims = ModelDims(
        input_dim=int(d["input_dim"]),
        encoder_hidden=tuple(int(w) for w in d["encoder_hidden"]),
        z_dim=int(d["z_dim"]),
        num_clusters=int(d["num_clusters"]),
    )
    blocks = payload["blocks"]
    params = ModelParams(dims=dims, flat=np.zeros(dims.num_parameters()))
    for name, arr in params.named_arrays():
        if name not in blocks:
            raise ValueError(f"missing parameter block '{name}'")
        block = blocks[name]
        data = np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])
        if data.shape != arr.shape:
            raise ValueError(f"block '{name}' has shape {data.shape}, expected {arr.shape}")
        arr[...] = data
    return params
