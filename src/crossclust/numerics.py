"""Dense float64 primitives: row normalization, cosine similarity, stable reductions.

All public functions are pure, operate on 2-D ``numpy.float64`` arrays
("matrices") or 1-D vectors, and return freshly allocated outputs.  Batch
sizes are desk scale (a few thousand rows at most), so everything favors
precision and determinism over throughput.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ShapeError

# Universal carrier for batches, embeddings, similarities, and weights.
Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce ``values`` to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return m


def row_l2_normalize(m: Matrix) -> Matrix:
    """Scale every row to unit Euclidean norm.

    Raises :class:`DegenerateRowError` naming the first row whose norm is zero.
    """
    m = as_matrix(m)
    norms = np.linalg.norm(m, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateRowError(int(zero[0]))
    return m / norms[:, None]


def similarity_matrix(z: Matrix) -> Matrix:
    """Pairwise inner products of unit-norm rows (cosine similarities).

    Input rows must already be unit-norm (within 1e-6); the output is an
    exactly symmetric square matrix with diagonal 1 up to roundoff.
    """
    z = as_matrix(z, "z")
    norms = np.linalg.norm(z, axis=1)
    off = np.abs(norms - 1.0)
    if off.size and off.max() > 1e-6:
        bad = int(np.argmax(off))
        raise ContractViolationError(
            f"row {bad} has norm {norms[bad]!r}; similarity_matrix requires unit rows"
        )
    s = z @ z.T
    return 0.5 * (s + s.T)


def row_log_sum_exp(x: Matrix, include: Matrix) -> np.ndarray:
    """Rowwise log-sum-exp over the entries selected by the boolean ``include``.

    Rows with no included entries are an error; callers guarantee coverage.
    """
    if x.shape != include.shape:
        raise ShapeError("mask shape must match matrix shape")
    counts = include.sum(axis=1)
    if (counts == 0).any():
        raise ShapeError(f"row {int(np.argmin(counts))} selects no entries")
    masked = np.where(include, x, -np.inf)
    m = masked.max(axis=1)
    masked -= m[:, None]
    return m + np.log(np.exp(masked, out=masked).sum(axis=1))


def entropy(p) -> float:
    """Shannon entropy -sum(p log p) in nats, with 0*log(0) := 0.

    ``p`` must be a probability vector: nonnegative entries summing to 1
    within 1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ShapeError("entropy expects a non-empty 1-D vector")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ContractViolationError("entropy requires nonnegative finite entries")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractViolationError(f"probabilities sum to {total!r}, expected 1")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def row_softmax(x: Matrix) -> Matrix:
    """Stable rowwise softmax; every output row is a probability vector."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
