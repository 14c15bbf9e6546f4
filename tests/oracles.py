"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (scalar loops, exhaustive search,
iterative optimization) and shares no code with the package internals it
checks.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from crossclust.errors import CsvFormatError, ShapeError


def dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def c3_loss_scalar(s, mask, w) -> float:
    """Double-loop weighted contrastive loss over all anchors."""
    n2 = len(s)
    total = 0.0
    for i in range(n2):
        num = 0.0
        den = 0.0
        for j in range(n2):
            if mask[i][j]:
                num += math.exp(s[i][j])
            if j != i and w[i][j] > 0.0:
                den += w[i][j] * math.exp(s[i][j])
        total += math.log(den) - math.log(num)
    return total / n2


def instance_loss_scalar(z, tau) -> float:
    """Twin-positive normalized-temperature cross-entropy, scalar loops."""
    n2 = len(z)
    half = n2 // 2
    total = 0.0
    for i in range(n2):
        t = (i + half) % n2
        den = 0.0
        for j in range(n2):
            if j != i:
                den += math.exp(dot(z[i], z[j]) / tau)
        num = math.exp(dot(z[i], z[t]) / tau)
        total += -math.log(num / den)
    return total / n2


def cluster_loss_scalar(c_a, c_b, tau) -> float:
    """Column-contrastive loss plus negative mean-assignment entropy, scalar loops."""
    n = len(c_a)
    m = len(c_a[0])
    cols = [[c_a[r][i] for r in range(n)] for i in range(m)]
    cols += [[c_b[r][i] for r in range(n)] for i in range(m)]

    def cos(u, v):
        return dot(u, v) / (math.sqrt(dot(u, u)) * math.sqrt(dot(v, v)))

    m2 = 2 * m
    total = 0.0
    for i in range(m2):
        t = (i + m) % m2
        den = 0.0
        for j in range(m2):
            if j != i:
                den += math.exp(cos(cols[i], cols[j]) / tau)
        total += -math.log(math.exp(cos(cols[i], cols[t]) / tau) / den)
    contrastive = total / m2

    balance = 0.0
    for view in (c_a, c_b):
        for i in range(m):
            p = sum(view[r][i] for r in range(n)) / n
            balance += p * math.log(p)
    return contrastive + balance


def minimize_weights_eg(sims_row, gamma, iters=400) -> np.ndarray:
    """Exponentiated-gradient descent of the weighting objective on the simplex.

    Objective over w in the simplex, for non-self similarities ``sims_row``:
        f(w) = sum_j -w_j (1 - |s_j|) + (1/gamma) * sum_j w_j log w_j
    Starts from uniform; step size gamma/2 contracts the log-space error by
    1/2 per iteration, so 400 iterations are far past float64 precision.
    """
    a = 1.0 - np.abs(np.asarray(sims_row, dtype=np.float64))
    k = a.size
    w = np.full(k, 1.0 / k)
    eta = gamma / 2.0
    for _ in range(iters):
        grad = -a + (np.log(w) + 1.0) / gamma
        w = w * np.exp(-eta * grad)
        w = w / w.sum()
    return w


def weighting_objective(w, sims_row, gamma) -> float:
    a = 1.0 - np.abs(np.asarray(sims_row, dtype=np.float64))
    w = np.asarray(w, dtype=np.float64)
    return float(-(w * a).sum() + (w * np.log(w)).sum() / gamma)


def hungarian_brute(cost) -> tuple[tuple[int, ...], float]:
    """Exhaustive assignment search; returns the lexicographically smallest optimum."""
    n = len(cost)
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i][perm[i]] for i in range(n))
        if c < best_cost:
            best_cost = c
            best_perm = perm
    return best_perm, best_cost


def assignment_brute(cost) -> float:
    """Exhaustive search of an n x m cost, n <= m: the least total over every
    way to give each row its own column."""
    n, m = len(cost), len(cost[0])
    return min(
        sum(cost[i][cols[i]] for i in range(n)) for cols in itertools.permutations(range(m), n)
    )


def accuracy_brute(pred_labels, truth_labels, m_pred, m_truth) -> float:
    """Max matched fraction over every bijection of padded cluster ids."""
    k = max(m_pred, m_truth)
    n = len(pred_labels)
    table = [[0] * k for _ in range(k)]
    for p, t in zip(pred_labels, truth_labels):
        table[p][t] += 1
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(table[i][perm[i]] for i in range(k)))
    return best / n


def adam_scalar_reference(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook scalar Adam; returns the trajectory of w."""
    w = float(w0)
    m = 0.0
    v = 0.0
    out = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(w)
    return out


def central_difference(f, x, eps=1e-5) -> np.ndarray:
    """Elementwise central differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def augment_batch_rowwise(cfg, x, base_key, row_keys=None):
    """Per-row reference for batch augmentation: a fresh Philox generator per row.

    Row r draws from ``Philox(key=(base_key << 64) + row_keys[r])``; each view
    takes d normals, d mask uniforms and one ``uniform(lo, hi)`` scale, view a
    first.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if row_keys is None:
        row_keys = np.arange(n)
    lo, hi = cfg.scale_range

    def one_view(rng, row):
        noise = rng.standard_normal(row.size)
        mask_draw = rng.random(row.size)
        scale = rng.uniform(lo, hi)
        y = row + cfg.gaussian_noise_sigma * noise if cfg.gaussian_noise_sigma > 0 else row.copy()
        if cfg.mask_rate > 0:
            y[mask_draw < cfg.mask_rate] = 0.0
        return y * scale

    x_a = np.empty_like(x)
    x_b = np.empty_like(x)
    for r in range(n):
        key = (int(base_key) << 64) + int(row_keys[r])
        rng = np.random.Generator(np.random.Philox(key=key))
        x_a[r] = one_view(rng, x[r])
        x_b[r] = one_view(rng, x[r])
    return x_a, x_b


def load_csv_rowwise(path, label_column=None):
    """Per-cell reference CSV loader: one Python ``float()`` per feature cell.

    Returns ``(x, label_ids, feature_names)``; ``label_ids`` are first-appearance
    ids, or None without a label column.  Rejections raise ``CsvFormatError``
    with 1-based (row, col), the header being row 1: the first ragged row or
    non-numeric cell, else the first non-finite cell in row-major order.
    Every record counts, so a blank line is a ragged row here.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        label_idx = header.index(label_column) if label_column is not None else None
        feature_idx = [j for j in range(len(header)) if j != label_idx]
        rows, labels = [], []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvFormatError("ragged row", row=line_no)
            values = []
            for j in feature_idx:
                try:
                    values.append(float(record[j]))
                except ValueError:
                    raise CsvFormatError("non-numeric cell", row=line_no, col=j + 1) from None
            rows.append(values)
            if label_idx is not None:
                labels.append(record[label_idx])
    for r, values in enumerate(rows):
        for c, value in enumerate(values):
            if not math.isfinite(value):
                raise CsvFormatError("non-finite cell", row=r + 2, col=feature_idx[c] + 1)
    x = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feature_idx))
    ids = None
    if label_idx is not None:
        seen = {}
        ids = np.asarray([seen.setdefault(tok, len(seen)) for tok in labels], dtype=np.int64)
    return x, ids, tuple(header[j] for j in feature_idx)


# Vectorized bodies of the pairwise functions as they stood before the 2N x 2N
# block was rewritten around gemm and in-place buffers.  Input validation is
# left out; the rewrites must reproduce these outputs bit for bit.


def similarity_matrix_reference(z):
    s = z @ z.T
    return 0.5 * (s + s.T)


def row_softmax_reference(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def compute_weights_reference(s, gamma):
    logits = gamma * (1.0 - np.abs(s))
    np.fill_diagonal(logits, -np.inf)
    return row_softmax_reference(logits)


def init_instance_loss_reference(s, tau):
    n2 = s.shape[0]
    twins = (np.arange(n2) + n2 // 2) % n2
    logits = s / tau
    masked = np.where(~np.eye(n2, dtype=bool), logits, -np.inf)
    m = masked.max(axis=1)
    masked -= m[:, None]
    log_den = m + np.log(np.exp(masked, out=masked).sum(axis=1))
    anchors = np.arange(n2)
    loss = float((log_den - logits[anchors, twins]).mean())
    p = logits - log_den[:, None]
    with np.errstate(over="ignore"):  # a small tau overflows the diagonal, zeroed next
        np.exp(p, out=p)
    np.fill_diagonal(p, 0.0)
    p[anchors, twins] -= 1.0
    p /= n2 * tau
    return loss, p


def c3_loss_reference(s, mask, weights):
    n2 = s.shape[0]
    p_num = np.exp(s)
    p_den = weights * p_num
    np.fill_diagonal(p_den, 0.0)
    p_num *= mask
    num = p_num.sum(axis=1)
    den = p_den.sum(axis=1)
    loss = float((np.log(den) - np.log(num)).mean())
    p_den /= n2 * den[:, None]
    p_den -= p_num / (n2 * num[:, None])
    return loss, p_den


def cluster_probabilities_reference(params, x):
    """:func:`cluster_probabilities` as one pass over all rows, before it
    was split into row blocks."""
    a = x
    layers = [*params.encoder, *params.cluster_head]
    for k, layer in enumerate(layers):
        a = a @ layer.weight
        a += layer.bias
        if k < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
    return row_softmax_reference(a)


def cluster_probabilities(params, x):
    """c = softmax(cluster_head(f(x))) walked in ``cluster_labels``' row blocks
    into one (n, M) output: the probabilities whose row argmax
    ``model.cluster_labels`` returns.  Up to one block of rows this equals
    ``forward(params, x).c`` bit for bit.  Takes rows whose instance embedding
    is zero (which ``forward`` cannot normalize)."""
    from crossclust import model

    x = model._input_matrix(params, x)
    blocks = model._cluster_blocks(params.dims, x.shape[0])
    if len(blocks) < 2:
        return model._cluster_pass(params, x)
    out = np.empty((x.shape[0], params.dims.num_clusters))
    for rows in blocks:
        out[rows] = model._cluster_pass(params, x[rows])
    return out


def _chain_forward_reference(layers, x, relu_last):
    pres = []
    a = x
    last = len(layers) - 1
    for k, layer in enumerate(layers):
        pre = a @ layer.weight + layer.bias
        pres.append(pre)
        a = np.maximum(pre, 0.0) if (k < last or relu_last) else pre
    return pres, a


def forward_reference(params, x):
    """``model.forward`` as a chain of layers per segment that keeps every
    pre-activation, before its cache was cut to what backward reads.  Rows
    must have a nonzero instance embedding."""
    encoder_pre, h = _chain_forward_reference(params.encoder, x, relu_last=True)
    instance_pre, y_z = _chain_forward_reference(params.instance_head, h, relu_last=False)
    cluster_pre, y_c = _chain_forward_reference(params.cluster_head, h, relu_last=False)
    z_norms = np.linalg.norm(y_z, axis=1)
    return SimpleNamespace(
        x=x,
        encoder_pre=encoder_pre,
        h=h,
        instance_pre=instance_pre,
        z_norms=z_norms,
        z=y_z / z_norms[:, None],
        cluster_pre=cluster_pre,
        c=row_softmax_reference(y_c),
    )


def _chain_backward_reference(layers, grads, pres, x, d_out, relu_last=False):
    last = len(layers) - 1
    da = d_out
    for k in range(last, -1, -1):
        d_pre = da * (pres[k] > 0) if (k < last or relu_last) else da
        a_in = np.maximum(pres[k - 1], 0.0) if k > 0 else x
        np.matmul(a_in.T, d_pre, out=grads[k].weight)
        d_pre.sum(axis=0, out=grads[k].bias)
        da = d_pre @ layers[k].weight.T
    return da


def backward_reference(params, ref, grad_z, grad_c):
    """``model.backward`` on a :func:`forward_reference` pass, chain by chain,
    down to the gradient w.r.t. the input, which it drops."""
    zdot = (grad_z * ref.z).sum(axis=1, keepdims=True)
    d_yz = (grad_z - zdot * ref.z) / ref.z_norms[:, None]
    grads = replace(params, flat=np.empty_like(params.flat))
    dh = _chain_backward_reference(
        params.instance_head, grads.instance_head, ref.instance_pre, ref.h, d_yz
    )
    if grad_c is None:
        for layer in grads.cluster_head:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
    else:
        cdot = (grad_c * ref.c).sum(axis=1, keepdims=True)
        d_yc = ref.c * (grad_c - cdot)
        dh = dh + _chain_backward_reference(
            params.cluster_head, grads.cluster_head, ref.cluster_pre, ref.h, d_yc
        )
    _chain_backward_reference(
        params.encoder, grads.encoder, ref.encoder_pre, ref.x, dh, relu_last=True
    )
    return grads


def grad_check(
    params,
    loss_fn,
    eps: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
    floor: float = 1e-4,
) -> float:
    """Worst relative disagreement between analytic and central-difference
    grads of a ``ModelParams``.

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


def count_positive_pairs(mask) -> float:
    """Mean number of positives per anchor row of a square boolean mask;
    at least 1 for a ``positive_mask``, whose twins are forced."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ShapeError(f"mask must be a square boolean matrix, got {mask.dtype} {mask.shape}")
    return float(mask.sum(axis=1).mean())
