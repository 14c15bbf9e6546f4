"""Dense float64 primitives: row normalization, cosine similarity, stable reductions.

All public functions but :func:`openblas` are pure: they operate on 2-D
``numpy.float64`` arrays ("matrices") or 1-D vectors and modify no input but
one passed as ``out``.  Results are bit-stable: the same inputs give the same
bits on every run.  The 2N x 2N work avoids full-size temporaries:
``similarity_matrix`` is one BLAS product and ``row_softmax`` works in its
single output buffer.

:func:`openblas` binds the OpenBLAS library numpy loaded, for its thread
count and for ``similarity_matrix``'s direct ``dsyrk`` call.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ShapeError

# Universal carrier for batches, embeddings, similarities, and weights.
Matrix = np.ndarray

_RESCALE_BELOW = 1e-150  # a smaller plain row norm may have lost bits to subnormal squares

# (get thread count, set thread count, cblas_dsyrk) of each OpenBLAS symbol
# flavor.  dsyrk is bound only where the flavor fixes its integers at 64 bits;
# a plain-named build may use 32-bit ones.
_OPENBLAS_SYMBOLS = (
    # numpy 2 wheels
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "scipy_cblas_dsyrk64_"),
    # numpy 1.x wheels
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "cblas_dsyrk64_"),
    # a system OpenBLAS
    ("openblas_get_num_threads", "openblas_set_num_threads", None),
)
_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS = 101, 121, 111
_SYRK_MIN_ROWS = 384  # below this many rows numpy's z @ z.T is as fast
_TILE = 128  # rows per band of the triangle copy
_STRICT_LOWER = np.tri(_TILE, k=-1, dtype=bool)


class OpenBLAS(NamedTuple):
    """Functions of the OpenBLAS library numpy loaded."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    dsyrk: Callable | None  # cblas_dsyrk with 64-bit integers, or None


@functools.cache
def openblas() -> OpenBLAS | None:
    """Bind the OpenBLAS numpy loaded, or None; looked up once per process
    (``openblas.__wrapped__()`` looks again).

    The library is found among the files this process has mapped (Linux
    only), preferring one in numpy's package or its ``numpy.libs`` wheel
    directory; None when there is none or it exports no known thread-count
    symbols.  The thread count can change result bits: OpenBLAS rounds some
    shapes differently on one thread and on several.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            paths = {fields[5] for fields in map(str.split, maps) if len(fields) == 6}
    except OSError:  # no /proc mounted
        return None
    numpy_dir = os.path.dirname(np.__file__)
    numpy_dirs = (numpy_dir + os.sep, numpy_dir + ".libs" + os.sep)
    found = [p for p in paths if "openblas" in os.path.basename(p).lower()]
    for path in sorted(found, key=lambda p: (not p.startswith(numpy_dirs), p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # the copy already loaded, or none
        except OSError:
            continue
        for get_name, set_name, syrk_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                syrk = getattr(lib, syrk_name, None) if syrk_name else None
                if syrk is not None:
                    num, real, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
                    enum = ctypes.c_int
                    syrk.argtypes = [enum, enum, enum, num, num, real, ptr, num, real, ptr, num]
                    syrk.restype = None
                return OpenBLAS(get, set_, syrk)
    return None


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
    # but rounds its edge tiles differently from syrk.  numpy copies the
    # triangle one strided element at a time, which at 1024 rows took about
    # 3.7 ms of its 4.7 on a 2-CPU Xeon: from 384 rows up this makes numpy's
    # own syrk call on the same library (row-major, upper, no transpose,
    # alpha 1, beta 0), with the same bits, and copies the triangle in bands
    # of _TILE rows.
    n2, d = z.shape
    blas = openblas() if n2 >= _SYRK_MIN_ROWS and d >= 2 else None
    if blas is None or blas.dsyrk is None or not (z.flags.c_contiguous and z.flags.aligned):
        return z @ z.T  # numpy's d = 1 case runs no syrk
    s = np.empty((n2, n2))
    blas.dsyrk(
        _CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS, n2, d, 1.0, z.ctypes.data, d, 0.0,
        s.ctypes.data, n2,
    )
    for r0 in range(0, n2, _TILE):
        r1 = min(r0 + _TILE, n2)
        tile = s[r0:r1, r0:r1]
        np.copyto(tile, tile.T.copy(), where=_STRICT_LOWER[: r1 - r0, : r1 - r0])
        s[r1:, r0:r1] = s[r0:r1, r1:].T
    return s


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


def row_softmax(x: Matrix, out: Matrix | None = None) -> Matrix:
    """Stable rowwise softmax; every output row is a probability vector.
    ``out``, which may be ``x`` itself, receives it in place of a new array."""
    x = np.asarray(x, dtype=np.float64)
    e = np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e
