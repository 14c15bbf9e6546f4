"""The trainable network triple: encoder, instance head, cluster head.

The encoder is a ReLU MLP; the instance head ends in a row-normalized
embedding (z), the cluster head in row-softmaxed assignment probabilities
(c).  Gradients are analytic reverse-mode, checked against central finite
differences in the tests.  Parameters and optimizer state are plain
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
from .data import Standardization
from .errors import ConfigError, NonFiniteError, ShapeError
from .numerics import Matrix, as_matrix, row_l2_normalize, row_norms, row_softmax

# Format 2 stores the training set's Standardization; format 1 has none.
CHECKPOINT_FORMAT_VERSION = 2
# Activation entries per row block in cluster_labels (1 MiB of float64):
# 1024 rows at a 128-wide layer, which label faster than 4096 on one thread
# (README, "Memory").
_BLOCK_ENTRIES = 1 << 17


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
    """What backward reads of one forward pass: the input, each encoder
    layer's post-ReLU activation, and the outputs.  Each head is one affine
    layer on h (:meth:`ModelDims.segments`), so no head pre-output is kept."""

    x: Matrix
    acts: list[Matrix]
    z_norms: np.ndarray
    z: Matrix
    c: Matrix

    @property
    def h(self) -> Matrix:
        """The encoder's output, its last activation."""
        return self.acts[-1]


def _input_matrix(params: ModelParams, x) -> Matrix:
    x = as_matrix(x, "x")
    if x.shape[1] != params.dims.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, model expects {params.dims.input_dim}"
        )
    return x


def _encode(params: ModelParams, a) -> list[Matrix]:
    """The post-ReLU activation of every encoder layer, each computed in one buffer."""
    acts = []
    for layer in params.encoder:
        a = a @ layer.weight
        a += layer.bias
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def _affine(layer: LinearLayer, h) -> Matrix:
    y = h @ layer.weight
    y += layer.bias
    return y


def forward(params: ModelParams, x) -> ForwardCache:
    """h = f(x); z = normalize(instance_head(h)); c = softmax(cluster_head(h))."""
    x = _input_matrix(params, x)
    acts = _encode(params, x)
    y_z = _affine(params.instance_head[0], acts[-1])
    z_norms = row_norms(y_z)
    z = row_l2_normalize(y_z, z_norms)
    y_c = _affine(params.cluster_head[0], acts[-1])
    return ForwardCache(x=x, acts=acts, z_norms=z_norms, z=z, c=row_softmax(y_c, out=y_c))


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


def _cluster_blocks(dims: ModelDims, n: int):
    """The row blocks :func:`cluster_labels` walks."""
    return _row_blocks(n, max(*dims.encoder_hidden, dims.num_clusters))


def cluster_labels(params: ModelParams, x) -> np.ndarray:
    """Hard labels as int64: the argmax of each row of
    c = softmax(cluster_head(f(x))), ties to the lowest index.  The instance
    head is never evaluated, so rows whose instance embedding is zero (which
    ``forward`` cannot normalize) are labelled too.

    Computed block by block (see :func:`_row_blocks`), so only one block's
    activations are alive at a time and no (n, M) matrix is built.  A row's
    c has the same bits in every block of at least 2 rows it can sit in (the
    tests pin this), so any run of at least 2 rows is labelled as it is
    within a larger input.
    """
    x = _input_matrix(params, x)
    labels = np.empty(x.shape[0], dtype=np.int64)
    for rows in _cluster_blocks(params.dims, x.shape[0]):
        np.argmax(_cluster_pass(params, x[rows]), axis=1, out=labels[rows])
    return labels


def _cluster_pass(params: ModelParams, x) -> Matrix:
    y = _affine(params.cluster_head[0], _encode(params, x)[-1])
    return row_softmax(y, out=y)


def _head_backward(layer: LinearLayer, grad: LinearLayer, h, d_y) -> Matrix:
    """Fill a head's gradient blocks ``grad`` for the upstream gradient ``d_y``
    of its output; returns the gradient w.r.t. h."""
    np.matmul(h.T, d_y, out=grad.weight)
    d_y.sum(axis=0, out=grad.bias)
    return d_y @ layer.weight.T


def backward(params: ModelParams, cache: ForwardCache, grad_z, grad_c) -> ModelParams:
    """Parameter gradients for upstream gradients w.r.t. z and c.

    The z path includes the row-normalization Jacobian, the c path the softmax
    Jacobian.  ``grad_c=None`` means the loss does not depend on c: the cluster
    head is not backpropagated, its gradient blocks are exact zeros and the
    encoder receives the instance head's gradient alone.  ReLU masks and layer
    inputs come from the cached activations (``act > 0`` exactly where the
    pre-activation is), and no gradient w.r.t. x is formed.  Every block is
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
    da = _head_backward(params.instance_head[0], grads.instance_head[0], cache.h, d_yz)

    if grad_c is None:
        grads.cluster_head[0].weight[...] = 0.0
        grads.cluster_head[0].bias[...] = 0.0
    else:
        # c = softmax(y)  =>  dL/dy = c * (g - sum(g * c))
        cdot = (grad_c * cache.c).sum(axis=1, keepdims=True)
        d_yc = cache.c * (grad_c - cdot)
        da += _head_backward(params.cluster_head[0], grads.cluster_head[0], cache.h, d_yc)

    for k in range(len(params.encoder) - 1, -1, -1):
        da *= cache.acts[k] > 0  # da is now the gradient w.r.t. layer k's pre-activation
        a_in = cache.acts[k - 1] if k > 0 else cache.x
        np.matmul(a_in.T, da, out=grads.encoder[k].weight)
        da.sum(axis=0, out=grads.encoder[k].bias)
        if k > 0:
            da = da @ params.encoder[k].weight.T
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


def save_checkpoint(params: ModelParams, path, standardization: Standardization) -> None:
    """Write a versioned JSON checkpoint that round-trips bit-exactly.

    The file is ``json.dumps`` of ``{"format_version", "dims",
    "standardization", "blocks": {name: {"shape", "data"}}}``, byte for
    byte, but it is encoded and written one parameter block at a time, so no
    more than one block's list and text are alive at once.  The
    ``"standardization"`` entry holds the training set's ``feature_names``,
    ``mean`` and ``std``.  Only this format, 2, is written; format 1, which
    has no such entry, is still read.
    """
    dims = params.dims
    head = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": {
            "input_dim": dims.input_dim,
            "encoder_hidden": list(dims.encoder_hidden),
            "z_dim": dims.z_dim,
            "num_clusters": dims.num_clusters,
        },
        "standardization": {
            "feature_names": list(standardization.feature_names),
            "mean": standardization.mean.tolist(),
            "std": standardization.std.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(head)[:-1] + ', "blocks": {')
        for k, (name, arr) in enumerate(params.named_arrays()):
            block = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            out.write((", " if k else "") + json.dumps(name) + ": " + json.dumps(block))
        out.write("}}")


def load_checkpoint(path) -> ModelParams:
    """The parameters of a checkpoint written by :func:`save_checkpoint`
    (see :func:`_load_checkpoint`)."""
    return _load_checkpoint(path)[0]


def _load_checkpoint(path) -> tuple[ModelParams, Standardization | None]:
    """A checkpoint's parameters and its stored :class:`Standardization`,
    None for a format-1 file.

    A file that is not a checkpoint (not UTF-8 JSON, a missing key or field,
    a block of the wrong shape or with a non-finite value, statistics that
    do not fit the input width, or a mean or std that is not finite, or a
    std that is not positive) raises :class:`ConfigError` naming the path.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        params = _params_from_payload(payload)
        return params, _standardization_from_payload(payload, params.dims.input_dim)
    except KeyError as exc:
        raise ConfigError("checkpoint", f"{path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError("checkpoint", f"{path}: {exc}") from None


def _params_from_payload(payload) -> ModelParams:
    if not isinstance(payload, dict):
        raise ValueError("top level is not a JSON object")
    version = payload.get("format_version")
    if version not in (1, CHECKPOINT_FORMAT_VERSION):
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
        if not np.isfinite(data).all():
            raise ValueError(f"block '{name}' holds a non-finite value")
        arr[...] = data
    return params


def _standardization_from_payload(payload: dict, input_dim: int) -> Standardization | None:
    if payload["format_version"] == 1:
        return None
    entry = payload["standardization"]
    names = entry["feature_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError("standardization 'feature_names' is not a list of strings")
    if len(names) != input_dim:
        raise ValueError(f"standardization has {len(names)} feature names, expected {input_dim}")
    values = {key: np.asarray(entry[key], dtype=np.float64) for key in ("mean", "std")}
    for key, value in values.items():
        if value.shape != (input_dim,):
            raise ValueError(f"standardization '{key}' has shape {value.shape}, expected ({input_dim},)")
        if not np.isfinite(value).all():
            raise ValueError(f"standardization '{key}' holds a non-finite value")
    if not (values["std"] > 0.0).all():
        raise ValueError("standardization 'std' holds a value that is not positive")
    return Standardization(values["mean"], values["std"], tuple(names))
