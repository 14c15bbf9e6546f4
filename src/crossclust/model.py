"""The trainable network triple: encoder, instance head, cluster head.

The encoder is a ReLU MLP; the instance head ends in a row-normalized
embedding (z), the cluster head in row-softmaxed assignment probabilities
(c).  Gradients are analytic reverse-mode, checked against central finite
differences by :func:`grad_check`.  Parameters and optimizer state are plain
float64 arrays so that training is bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError
from .numerics import Matrix, as_matrix, row_l2_normalize, row_softmax

CHECKPOINT_FORMAT_VERSION = 1


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

    def encoder_sizes(self) -> list[int]:
        return [self.input_dim, *self.encoder_hidden]

    def instance_sizes(self) -> list[int]:
        return [self.encoder_hidden[-1], self.z_dim]

    def cluster_sizes(self) -> list[int]:
        return [self.encoder_hidden[-1], self.num_clusters]


@dataclass
class LinearLayer:
    weight: Matrix  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)


@dataclass
class ModelParams:
    """Weights and biases of encoder f, instance head, and cluster head."""

    dims: ModelDims
    encoder: list[LinearLayer]
    instance_head: list[LinearLayer]
    cluster_head: list[LinearLayer]

    def segments(self):
        yield "encoder", self.encoder
        yield "instance_head", self.instance_head
        yield "cluster_head", self.cluster_head

    def named_arrays(self):
        """Yield (name, array) pairs in a fixed traversal order."""
        for seg_name, layers in self.segments():
            for k, layer in enumerate(layers):
                yield f"{seg_name}.{k}.weight", layer.weight
                yield f"{seg_name}.{k}.bias", layer.bias

    def copy(self) -> "ModelParams":
        return map_params(lambda a: a.copy(), self)

    def num_parameters(self) -> int:
        return sum(a.size for _, a in self.named_arrays())


def map_params(fn, params: ModelParams, *others: ModelParams) -> ModelParams:
    """Apply ``fn`` blockwise over one or more parameter containers of equal shape."""

    def map_layers(layers, *other_layers):
        return [
            LinearLayer(
                weight=fn(l.weight, *(o.weight for o in rest)),
                bias=fn(l.bias, *(o.bias for o in rest)),
            )
            for l, *rest in zip(layers, *other_layers)
        ]

    return ModelParams(
        dims=params.dims,
        encoder=map_layers(params.encoder, *(o.encoder for o in others)),
        instance_head=map_layers(params.instance_head, *(o.instance_head for o in others)),
        cluster_head=map_layers(params.cluster_head, *(o.cluster_head for o in others)),
    )


def zeros_like_params(params: ModelParams) -> ModelParams:
    return map_params(np.zeros_like, params)


def init_params(seed, dims: ModelDims) -> ModelParams:
    """Deterministic fan-in-scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)

    def make_chain(sizes):
        layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
            layers.append(LinearLayer(weight=w, bias=np.zeros(fan_out)))
        return layers

    return ModelParams(
        dims=dims,
        encoder=make_chain(dims.encoder_sizes()),
        instance_head=make_chain(dims.instance_sizes()),
        cluster_head=make_chain(dims.cluster_sizes()),
    )


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


def forward(params: ModelParams, x) -> ForwardCache:
    """h = f(x); z = normalize(instance_head(h)); c = softmax(cluster_head(h))."""
    x = as_matrix(x, "x")
    if x.shape[1] != params.dims.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, model expects {params.dims.input_dim}"
        )
    encoder_pre, h = _chain_forward(params.encoder, x, relu_last=True)
    instance_pre, y_z = _chain_forward(params.instance_head, h, relu_last=False)
    cluster_pre, y_c = _chain_forward(params.cluster_head, h, relu_last=False)
    z = row_l2_normalize(y_z)
    return ForwardCache(
        x=x,
        encoder_pre=encoder_pre,
        h=h,
        instance_pre=instance_pre,
        z_norms=np.linalg.norm(y_z, axis=1),
        z=z,
        cluster_pre=cluster_pre,
        c=row_softmax(y_c),
    )


def _chain_backward(layers, pres, x, d_out, relu_last: bool):
    """Backprop a linear/ReLU chain; returns (layer grads, grad wrt chain input)."""
    grads = [None] * len(layers)
    last = len(layers) - 1
    da = d_out
    for k in range(last, -1, -1):
        d_pre = da * (pres[k] > 0) if (k < last or relu_last) else da
        a_in = np.maximum(pres[k - 1], 0.0) if k > 0 else x
        grads[k] = LinearLayer(weight=a_in.T @ d_pre, bias=d_pre.sum(axis=0))
        da = d_pre @ layers[k].weight.T
    return grads, da


def backward(params: ModelParams, cache: ForwardCache, grad_z, grad_c) -> ModelParams:
    """Parameter gradients for upstream gradients w.r.t. z and c.

    Either gradient may be zero (stage-dependent).  The z path includes the
    row-normalization Jacobian, the c path the softmax Jacobian.
    """
    grad_z = np.asarray(grad_z, dtype=np.float64)
    grad_c = np.asarray(grad_c, dtype=np.float64)
    if grad_z.shape != cache.z.shape:
        raise ShapeError(f"grad_z shape {grad_z.shape} != z shape {cache.z.shape}")
    if grad_c.shape != cache.c.shape:
        raise ShapeError(f"grad_c shape {grad_c.shape} != c shape {cache.c.shape}")

    # z = y / ||y||  =>  dL/dy = (g - (g . z) z) / ||y||
    zdot = (grad_z * cache.z).sum(axis=1, keepdims=True)
    d_yz = (grad_z - zdot * cache.z) / cache.z_norms[:, None]
    instance_grads, dh_i = _chain_backward(
        params.instance_head, cache.instance_pre, cache.h, d_yz, relu_last=False
    )

    # c = softmax(y)  =>  dL/dy = c * (g - sum(g * c))
    cdot = (grad_c * cache.c).sum(axis=1, keepdims=True)
    d_yc = cache.c * (grad_c - cdot)
    cluster_grads, dh_c = _chain_backward(
        params.cluster_head, cache.cluster_pre, cache.h, d_yc, relu_last=False
    )

    encoder_grads, _ = _chain_backward(
        params.encoder, cache.encoder_pre, cache.x, dh_i + dh_c, relu_last=True
    )
    return ModelParams(
        dims=params.dims,
        encoder=encoder_grads,
        instance_head=instance_grads,
        cluster_head=cluster_grads,
    )


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params), step=0)


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
    if lr <= 0:
        raise ConfigError("lr", f"learning rate must be positive, got {lr}")
    for name, g in grads.named_arrays():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient in block '{name}'")
    t = state.step + 1
    new_m = map_params(lambda m, g: beta1 * m + (1.0 - beta1) * g, state.m, grads)
    new_v = map_params(lambda v, g: beta2 * v + (1.0 - beta2) * g * g, state.v, grads)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_params = map_params(
        lambda p, m, v: p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps),
        params,
        new_m,
        new_v,
    )
    return new_params, AdamState(m=new_m, v=new_v, step=t)


def _perturbed(params: ModelParams, target_name: str, flat_index: int, delta: float) -> ModelParams:
    out = params.copy()
    for name, arr in out.named_arrays():
        if name == target_name:
            arr.flat[flat_index] += delta
            return out
    raise KeyError(target_name)


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
    deterministic.  The relative error of a coordinate is
    ``|a - n| / max(|a|, |n|, floor)``; the floor keeps finite-difference
    roundoff on near-zero coordinates from dominating.  Reports only; never
    raises on disagreement.
    """
    _, analytic = loss_fn(params)
    coords = []
    for name, arr in analytic.named_arrays():
        coords.extend((name, i) for i in range(arr.size))
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in picks]
    analytic_by_name = dict(analytic.named_arrays())
    worst = 0.0
    for name, i in coords:
        plus, _ = loss_fn(_perturbed(params, name, i, +eps))
        minus, _ = loss_fn(_perturbed(params, name, i, -eps))
        numeric = (plus - minus) / (2.0 * eps)
        a = float(analytic_by_name[name].flat[i])
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

    def read_block(name, expected_shape):
        if name not in blocks:
            raise ValueError(f"missing parameter block '{name}'")
        block = blocks[name]
        data = np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])
        if data.shape != tuple(expected_shape):
            raise ValueError(
                f"block '{name}' has shape {data.shape}, expected {tuple(expected_shape)}"
            )
        return data

    def read_chain(seg_name, sizes):
        layers = []
        for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(
                LinearLayer(
                    weight=read_block(f"{seg_name}.{k}.weight", (fan_in, fan_out)),
                    bias=read_block(f"{seg_name}.{k}.bias", (fan_out,)),
                )
            )
        return layers

    return ModelParams(
        dims=dims,
        encoder=read_chain("encoder", dims.encoder_sizes()),
        instance_head=read_chain("instance_head", dims.instance_sizes()),
        cluster_head=read_chain("cluster_head", dims.cluster_sizes()),
    )
