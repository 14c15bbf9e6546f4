"""Training objectives for both stages.

Conventions shared by every function here: a batch of N samples yields two
augmented views whose embeddings are stacked as 2N rows (view a first), so
row i and row (i + N) mod 2N are the two views of the same sample ("twins").
Similarity matrices are 2N x 2N inner products of unit-norm rows.

The refinement-stage loss treats every pair at least as similar as the
threshold ``zeta`` as positive, and divides by a weighted sum over all
non-self pairs.  The weights concentrate on pairs that are neither close
together nor far apart (the ones likely to sit near cluster boundaries) and
come from a closed-form entropy-regularized optimization over the simplex;
they are constants with respect to network gradients.  Its sums run on
``exp(s)`` unshifted, as cosines are bounded.  The initialization-stage
cluster term is the instance loss on the cosines of the 2M assignment columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolationError, DegenerateRowError, ShapeError
from .numerics import Matrix, row_log_sum_exp, row_softmax

__all__ = [
    "twin_indices",
    "positive_mask",
    "compute_weights",
    "c3_loss",
    "chain_to_embeddings",
    "init_instance_loss",
    "init_cluster_loss",
    "count_positive_pairs",
]


def twin_indices(n2: int) -> np.ndarray:
    """Index of the other view of each stacked row: i <-> (i + N) mod 2N."""
    if n2 < 2 or n2 % 2 != 0:
        raise ShapeError(f"stacked batch size must be even and >= 2, got {n2}")
    half = n2 // 2
    return (np.arange(n2) + half) % n2


def _check_square(s, name="similarity matrix", dtype=np.float64) -> Matrix:
    s = np.asarray(s, dtype=dtype)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"{name} must be square, got {s.shape}")
    return s


def positive_mask(s: Matrix, zeta: float) -> np.ndarray:
    """Boolean matrix of positives: s[i, j] >= zeta, self excluded, twin forced."""
    if not -1.0 <= zeta <= 1.0:
        raise ConfigError("zeta", f"threshold must lie in [-1, 1], got {zeta}")
    s = _check_square(s)
    n2 = s.shape[0]
    twins = twin_indices(n2)
    mask = s >= zeta
    np.fill_diagonal(mask, False)
    mask[np.arange(n2), twins] = True
    return mask


def compute_weights(s: Matrix, gamma: float) -> Matrix:
    """Closed-form pair weights: per row, softmax of gamma * (1 - |s|) over non-self entries.

    Rows mix both views (2N - 1 entries each) and sum to 1.  Weights are
    computed from frozen similarities: callers must treat them as constants
    when differentiating.
    """
    if not gamma > 0:
        raise ConfigError("gamma", f"weight concentration must be positive, got {gamma}")
    s = _check_square(s)
    logits = gamma * (1.0 - np.abs(s))
    np.fill_diagonal(logits, -np.inf)
    return row_softmax(logits)


def c3_loss(s: Matrix, mask: np.ndarray, weights: Matrix) -> tuple[float, Matrix]:
    """Weighted cross-instance contrastive loss and its gradient w.r.t. s.

    Per anchor row i of the cosines ``s`` (|s| <= 1, so exp needs no max shift):
        loss_i = -log( sum_{j in mask_i} exp(s_ij) / sum_{j != i} w_ij exp(s_ij) )
    and the total is the mean over all 2N anchors.  ``weights`` is held
    constant: the returned gradient is exact for frozen weights (and the
    indicator mask has zero gradient almost everywhere).
    """
    s = _check_square(s)
    n2 = s.shape[0]
    mask = np.asarray(mask, dtype=bool)
    weights = np.asarray(weights, dtype=np.float64)
    if mask.shape != s.shape or weights.shape != s.shape:
        raise ShapeError("mask and weights must match the similarity matrix shape")
    if (weights < 0).any():
        raise ContractViolationError("weights must be nonnegative")
    p_num = np.exp(s)
    p_den = weights * p_num
    np.fill_diagonal(p_den, 0.0)
    p_num *= mask
    num = p_num.sum(axis=1)
    den = p_den.sum(axis=1)
    if (num == 0).any():
        raise ContractViolationError(
            f"positive-mask row {int(np.argmin(num))} is empty; "
            "twin inclusion should make this unreachable"
        )
    if (den == 0).any():
        raise ContractViolationError(
            f"weight row {int(np.argmin(den))} has no positive off-self entry"
        )
    loss = float((np.log(den) - np.log(num)).mean())

    p_den /= n2 * den[:, None]
    p_den -= p_num / (n2 * num[:, None])
    return loss, p_den


def chain_to_embeddings(d_s: Matrix, z_stacked: Matrix) -> Matrix:
    """Pull a gradient on s = z z^T back to the stacked embeddings: (dS + dS^T) z."""
    d_s = np.asarray(d_s, dtype=np.float64)
    z_stacked = np.asarray(z_stacked, dtype=np.float64)
    if d_s.ndim != 2 or d_s.shape[0] != d_s.shape[1] or d_s.shape[0] != z_stacked.shape[0]:
        raise ShapeError(
            f"gradient shape {d_s.shape} incompatible with embeddings {z_stacked.shape}"
        )
    return (d_s + d_s.T) @ z_stacked


def init_instance_loss(s: Matrix, tau_i: float) -> tuple[float, Matrix]:
    """Normalized-temperature cross-entropy where each row's sole positive is its twin.

    ``s`` holds the similarities of the stacked embeddings.  Returns the mean
    loss over 2N anchors and its analytic gradient w.r.t. ``s``; pull it back
    to the embeddings with :func:`chain_to_embeddings`.
    """
    if not tau_i > 0:
        raise ConfigError("tau_I", f"temperature must be positive, got {tau_i}")
    s = _check_square(s)
    n2 = s.shape[0]
    twins = twin_indices(n2)
    logits = s / tau_i
    off_diag = ~np.eye(n2, dtype=bool)
    log_den = row_log_sum_exp(logits, off_diag)
    anchors = np.arange(n2)
    per_anchor = log_den - logits[anchors, twins]
    loss = float(per_anchor.mean())

    p = logits - log_den[:, None]  # updated in place: one 2N x 2N temporary, not three
    np.exp(p, out=p)
    np.fill_diagonal(p, 0.0)
    p[anchors, twins] -= 1.0
    p /= n2 * tau_i
    return loss, p


def init_cluster_loss(c_a: Matrix, c_b: Matrix, tau_c: float) -> tuple[float, Matrix, Matrix]:
    """Column-contrastive loss over the 2M cluster-assignment columns plus a
    balance term (negative entropy of the mean assignment probabilities).

    Columns of c_a and c_b play the role the rows play in the instance loss:
    column i of one view is the sole positive of column i of the other, and
    similarities are cosines of the (nonnegative) column profiles.
    """
    if not tau_c > 0:
        raise ConfigError("tau_C", f"temperature must be positive, got {tau_c}")
    c_a = np.asarray(c_a, dtype=np.float64)
    c_b = np.asarray(c_b, dtype=np.float64)
    if c_a.shape != c_b.shape or c_a.ndim != 2:
        raise ShapeError(f"views must share an (N, M) shape, got {c_a.shape} and {c_b.shape}")
    for name, c in (("c_a", c_a), ("c_b", c_b)):
        if not np.isfinite(c).all() or c.min() < -1e-6:
            raise ContractViolationError(f"{name} rows must be probability vectors")
        worst = np.abs(c.sum(axis=1) - 1.0).max()
        if worst > 1e-3:
            raise ContractViolationError(f"{name} row sums deviate from 1 by {worst:.2e}")
    n, m = c_a.shape

    cols = np.vstack([c_a.T, c_b.T])  # 2M rows, one per cluster column
    norms = np.linalg.norm(cols, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateRowError(int(zero[0]), f"cluster column {int(zero[0])} is all-zero")
    unit = cols / norms[:, None]

    contrastive, d_s = init_instance_loss(unit @ unit.T, tau_c)
    d_unit = chain_to_embeddings(d_s, unit)
    # cosine normalization Jacobian, rowwise over the stacked columns
    udot = (d_unit * unit).sum(axis=1, keepdims=True)
    d_cols = (d_unit - udot * unit) / norms[:, None]

    # balance term: negative entropy of the per-view mean assignment
    p_a = c_a.mean(axis=0)
    p_b = c_b.mean(axis=0)
    if p_a.min() <= 0 or p_b.min() <= 0:
        raise ContractViolationError("mean cluster assignment has a nonpositive entry")
    balance = float((p_a * np.log(p_a)).sum() + (p_b * np.log(p_b)).sum())

    loss = contrastive + balance
    d_ca = d_cols[:m].T + (np.log(p_a) + 1.0)[None, :] / n
    d_cb = d_cols[m:].T + (np.log(p_b) + 1.0)[None, :] / n
    return loss, d_ca, d_cb


def count_positive_pairs(mask: np.ndarray) -> float:
    """Mean number of positives per anchor row; at least 1 because twins are forced."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ShapeError("mask must be boolean")
    _check_square(mask, "positive mask", bool)
    return float(mask.sum(axis=1).mean())
