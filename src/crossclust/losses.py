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

Training calls the stage objectives, ``instance_objective`` and
``c3_objective``: each computes s from the embeddings and overwrites it, row
block by row block, with its gradient, so a step holds one 2N x 2N buffer and
never a full mask or weight matrix.  The per-matrix functions
(``positive_mask``, ``compute_weights``, ``c3_loss``, ``init_instance_loss``)
run the same row-block kernels into fresh outputs, with the same bits; they
serve tests, oracles and the frozen-weight gradient checks.
"""

from __future__ import annotations

import numpy as np

from .config import check_positive, check_zeta
from .errors import ContractViolationError, DegenerateRowError, ShapeError
from .numerics import Matrix, row_softmax, similarity_matrix

__all__ = [
    "twin_indices",
    "positive_mask",
    "compute_weights",
    "c3_loss",
    "c3_objective",
    "chain_to_embeddings",
    "init_instance_loss",
    "instance_objective",
    "init_cluster_loss",
    "count_positive_pairs",
]

# The losses and objectives walk the 2N x 2N matrix in row blocks of about
# this many entries (512 KiB of float64), so each elementwise pass finds its
# block still in cache.  Every step is row-local, so the results are the same
# bits for any block size.
_BLOCK_ENTRIES = 1 << 16


def twin_indices(n2: int) -> np.ndarray:
    """Index of the other view of each stacked row: i <-> (i + N) mod 2N."""
    if n2 < 2 or n2 % 2 != 0:
        raise ShapeError(f"stacked batch size must be even and >= 2, got {n2}")
    half = n2 // 2
    return (np.arange(n2) + half) % n2


def _row_blocks(n2: int):
    """Yield ``(rows, diag)`` over consecutive row blocks of a 2N x 2N matrix:
    the row slice and the (block row, column) indices of its self pairs."""
    step = max(1, _BLOCK_ENTRIES // max(n2, 1))
    for r0 in range(0, n2, step):
        r1 = min(r0 + step, n2)
        yield slice(r0, r1), (np.arange(r1 - r0), np.arange(r0, r1))


def _check_square(s, name="similarity matrix", dtype=np.float64) -> Matrix:
    s = np.asarray(s, dtype=dtype)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"{name} must be square, got {s.shape}")
    return s


# Row-block kernels.  Each takes the rows ``s_rows`` of a similarity matrix,
# the (block row, column) indices ``diag`` of their self pairs and, where
# needed, the column ``twin_cols`` of each row's twin.  The gradient kernels
# write into ``out``, which may be ``s_rows`` itself: every read of s_rows
# comes before the first write.


def _positive_block(s_rows: Matrix, diag, twin_cols, zeta: float) -> np.ndarray:
    mask = s_rows >= zeta
    mask[diag] = False
    mask[diag[0], twin_cols] = True
    return mask


def _weights_block(s_rows: Matrix, diag, gamma: float) -> Matrix:
    logits = np.abs(s_rows)
    np.subtract(1.0, logits, out=logits)
    logits *= gamma
    logits[diag] = -np.inf
    return row_softmax(logits)


def _c3_block(s_rows: Matrix, mask_rows, w_rows, diag, out: Matrix):
    """Per-row numerator and denominator sums; ``out`` gets the gradient rows."""
    n2 = s_rows.shape[1]
    p_num = np.exp(s_rows)
    p_den = np.multiply(w_rows, p_num, out=out)
    p_den[diag] = 0.0
    p_num *= mask_rows
    num = p_num.sum(axis=1)
    den = p_den.sum(axis=1)
    if num.all() and den.all():  # an empty row raises in _c3_total
        p_den /= n2 * den[:, None]
        p_num /= n2 * num[:, None]
        p_den -= p_num
    return num, den


def _c3_total(num: np.ndarray, den: np.ndarray) -> float:
    if (num == 0).any():
        raise ContractViolationError(
            f"positive-mask row {int(np.argmin(num))} is empty; "
            "twin inclusion should make this unreachable"
        )
    if (den == 0).any():
        raise ContractViolationError(
            f"weight row {int(np.argmin(den))} has no positive off-self entry"
        )
    return float((np.log(den) - np.log(num)).mean())


def _instance_block(s_rows: Matrix, diag, twin_cols, tau_i: float, out: Matrix) -> np.ndarray:
    """Per-row losses; ``out`` gets the gradient rows."""
    n2 = s_rows.shape[1]
    logits = np.divide(s_rows, tau_i, out=out)
    logits[diag] = -np.inf  # self pairs leave the denominator
    top = logits.max(axis=1)
    shifted = logits - top[:, None]
    log_den = top + np.log(np.exp(shifted, out=shifted).sum(axis=1))
    twin_logit = logits[diag[0], twin_cols]
    # the gradient overwrites the logits; exp(-inf) zeroes the self pairs
    logits -= log_den[:, None]
    np.exp(logits, out=logits)
    logits[diag[0], twin_cols] -= 1.0
    logits /= n2 * tau_i
    return log_den - twin_logit


def positive_mask(s: Matrix, zeta: float) -> np.ndarray:
    """Boolean matrix of positives: s[i, j] >= zeta, self excluded, twin forced."""
    check_zeta(zeta)
    s = _check_square(s)
    n2 = s.shape[0]
    return _positive_block(s, (np.arange(n2), np.arange(n2)), twin_indices(n2), zeta)


def compute_weights(s: Matrix, gamma: float) -> Matrix:
    """Closed-form pair weights: per row, softmax of gamma * (1 - |s|) over non-self entries.

    Rows mix both views (2N - 1 entries each) and sum to 1.  Weights are
    computed from frozen similarities: callers must treat them as constants
    when differentiating.
    """
    check_positive("gamma", gamma)
    s = _check_square(s)
    weights = np.empty(s.shape)
    for rows, diag in _row_blocks(s.shape[0]):
        weights[rows] = _weights_block(s[rows], diag, gamma)
    return weights


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
    d_s = np.empty(s.shape)
    num = np.empty(n2)
    den = np.empty(n2)
    for rows, diag in _row_blocks(n2):
        num[rows], den[rows] = _c3_block(s[rows], mask[rows], weights[rows], diag, out=d_s[rows])
    return _c3_total(num, den), d_s


def c3_objective(z: Matrix, zeta: float, gamma: float) -> tuple[float, Matrix, float]:
    """One c3 step on the stacked unit embeddings ``z``: the loss, its
    gradient w.r.t. s = z z^T and the mean number of zeta-positives per anchor.

    The same bits as ``c3_loss(s, positive_mask(s, zeta), compute_weights(s,
    gamma))`` and ``count_positive_pairs`` of that mask, but the mask and the
    weights exist one row block at a time and the gradient overwrites s in
    place: the returned gradient is s's own buffer.  As in ``c3_loss``, the
    weights are constants for the gradient.
    """
    check_zeta(zeta)
    check_positive("gamma", gamma)
    s = similarity_matrix(z)
    n2 = s.shape[0]
    twins = twin_indices(n2)
    positives = np.empty(n2, dtype=np.int_)
    num = np.empty(n2)
    den = np.empty(n2)
    for rows, diag in _row_blocks(n2):
        block = s[rows]
        mask = _positive_block(block, diag, twins[rows], zeta)
        positives[rows] = mask.sum(axis=1)
        weights = _weights_block(block, diag, gamma)
        num[rows], den[rows] = _c3_block(block, mask, weights, diag, out=block)
    return _c3_total(num, den), s, float(positives.mean())


def chain_to_embeddings(d_s: Matrix, z_stacked: Matrix) -> Matrix:
    """Pull a gradient on s = z z^T back to the stacked embeddings: (dS + dS^T) z.

    Computed as dS z + dS^T z: BLAS reads dS^T through its transpose flag, so
    no strided 2N x 2N sum is formed.  Entries round differently from the sum
    form, by about 1e-17 for unit rows and c3-scale gradients.
    """
    d_s = np.asarray(d_s, dtype=np.float64)
    z_stacked = np.asarray(z_stacked, dtype=np.float64)
    if d_s.ndim != 2 or d_s.shape[0] != d_s.shape[1] or d_s.shape[0] != z_stacked.shape[0]:
        raise ShapeError(
            f"gradient shape {d_s.shape} incompatible with embeddings {z_stacked.shape}"
        )
    return d_s @ z_stacked + d_s.T @ z_stacked


def init_instance_loss(s: Matrix, tau_i: float) -> tuple[float, Matrix]:
    """Normalized-temperature cross-entropy where each row's sole positive is its twin.

    ``s`` holds the similarities of the stacked embeddings.  Returns the mean
    loss over 2N anchors and its analytic gradient w.r.t. ``s``; pull it back
    to the embeddings with :func:`chain_to_embeddings`.
    """
    check_positive("tau_I", tau_i)
    s = _check_square(s)
    n2 = s.shape[0]
    twins = twin_indices(n2)
    d_s = np.empty(s.shape)
    row_loss = np.empty(n2)
    for rows, diag in _row_blocks(n2):
        row_loss[rows] = _instance_block(s[rows], diag, twins[rows], tau_i, out=d_s[rows])
    return float(row_loss.mean()), d_s


def instance_objective(z: Matrix, tau_i: float, zeta: float) -> tuple[float, Matrix, float]:
    """One init step's instance term on the stacked unit embeddings ``z``: the
    loss, its gradient w.r.t. s = z z^T and the mean number of zeta-positives
    per anchor.

    The same bits as ``init_instance_loss(s, tau_i)`` and
    ``count_positive_pairs(positive_mask(s, zeta))``, but the mask exists one
    row block at a time and the gradient overwrites s in place: the returned
    gradient is s's own buffer.
    """
    check_positive("tau_I", tau_i)
    check_zeta(zeta)
    s = similarity_matrix(z)
    n2 = s.shape[0]
    twins = twin_indices(n2)
    positives = np.empty(n2, dtype=np.int_)
    row_loss = np.empty(n2)
    for rows, diag in _row_blocks(n2):
        block = s[rows]
        positives[rows] = _positive_block(block, diag, twins[rows], zeta).sum(axis=1)
        row_loss[rows] = _instance_block(block, diag, twins[rows], tau_i, out=block)
    return float(row_loss.mean()), s, float(positives.mean())


def init_cluster_loss(c_a: Matrix, c_b: Matrix, tau_c: float) -> tuple[float, Matrix, Matrix]:
    """Column-contrastive loss over the 2M cluster-assignment columns plus a
    balance term (negative entropy of the mean assignment probabilities).

    Columns of c_a and c_b play the role the rows play in the instance loss:
    column i of one view is the sole positive of column i of the other, and
    similarities are cosines of the (nonnegative) column profiles.
    """
    check_positive("tau_C", tau_c)
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
    if zero.size:  # entries below about 1e-154 square to 0, so the column may be nonzero
        k = int(zero[0])
        message = f"cluster column {k} has zero norm (largest entry {cols[k].max():.3g})"
        raise DegenerateRowError(k, message)
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
