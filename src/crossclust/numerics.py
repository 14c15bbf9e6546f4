"""Dense float64 primitives: row normalization, cosine similarity, stable reductions.

All public functions are pure: they operate on 2-D ``numpy.float64`` arrays
("matrices") or 1-D vectors and never modify their inputs.  Results are
bit-stable: the same inputs give the same bits on every run.  The 2N x 2N
work avoids full-size temporaries: ``similarity_matrix`` is one BLAS product
and ``row_softmax`` works in its single output buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ShapeError

# Universal carrier for batches, embeddings, similarities, and weights.
Matrix = np.ndarray

_RESCALE_BELOW = 1e-150  # a smaller plain row norm may have lost bits to subnormal squares


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce ``values`` to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return m


def row_norms(m: Matrix) -> np.ndarray:
    """Euclidean norm of every row.

    ``np.linalg.norm`` squares the entries, and squares below about 1e-308
    are subnormal or 0, so a row of entries below about 1e-154 gets a norm
    that is off, or 0.  Rows whose plain norm is below 1e-150 are divided
    by their largest magnitude before the norm; every other row keeps the
    plain norm's bits.  Only an all-zero row has norm 0; a row whose norm
    is itself subnormal (below about 2.2e-308) gets a subnormal's precision.
    """
    norms = np.linalg.norm(m, axis=1)
    tiny = np.flatnonzero(norms < _RESCALE_BELOW)
    if tiny.size:
        rows = m[tiny]
        peak = np.abs(rows).max(axis=1)
        peak[peak == 0.0] = 1.0  # an all-zero row keeps norm 0
        norms[tiny] = peak * np.linalg.norm(rows / peak[:, None], axis=1)
    return norms


def row_l2_normalize(m: Matrix, norms: np.ndarray | None = None) -> Matrix:
    """Scale every row to unit Euclidean norm.

    ``norms`` are the :func:`row_norms` of ``m`` when the caller already has
    them.  Raises :class:`DegenerateRowError` naming the first all-zero row.
    """
    m = as_matrix(m)
    if norms is None:
        norms = row_norms(m)
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
    # numpy evaluates z @ z.T as one BLAS syrk triangle copied into the other
    # (and its non-BLAS loop sums s[i, j] and s[j, i] in the same order), so s
    # is exactly symmetric as it stands.  A gemm on a copy of z.T is faster
    # but rounds its edge tiles differently from syrk.
    return z @ z.T


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
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e
