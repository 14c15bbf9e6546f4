"""Synthetic dataset generation and CSV I/O.

Truth labels ride along in :class:`Dataset` for evaluation only; training
code paths receive the feature matrix alone.  CSV round trips are bit-exact:
floats are written with shortest round-trip decimal formatting.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, CsvFormatError
from .metrics import Partition

_CENTER_ATTEMPTS = 1000
_CENTER_MARGIN = 1.05  # typical center spacing sits just above the contracted floor
_MAX_CELL_CHARS = 2**31 - 1  # csv's cell limit in fault re-reads; fits a 32-bit C long
_QUOTED_CHARS = 32  # a cell longer than this is cut in error messages


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    truth: Partition | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.float64)
        if x.ndim != 2:
            raise CsvFormatError("feature matrix must be 2-D")
        object.__setattr__(self, "X", x)
        if self.truth is not None and len(self.truth) != x.shape[0]:
            raise CsvFormatError(
                f"label count {len(self.truth)} does not match {x.shape[0]} rows"
            )
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != x.shape[1]:
                raise CsvFormatError("feature_names length does not match column count")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def without_labels(self) -> "Dataset":
        return replace(self, truth=None)


def standardize(dataset: Dataset) -> Dataset:
    """Shift/scale each feature to zero mean and unit variance.

    Constant features are left centered but unscaled.  The result is
    ``(X - mean) / std`` bit for bit, computed in its one output buffer;
    ``dataset.X`` is not modified.
    """
    x = dataset.X
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    out = np.subtract(x, mean)
    out /= std
    return replace(dataset, X=out)


def generate_blobs(
    seed: int,
    n: int,
    d: int,
    clusters: int,
    separation: float,
    sigma: float,
) -> Dataset:
    """Isotropic Gaussian clusters with centers at pairwise distance >= separation * sigma.

    Cluster sizes are balanced within one sample; rows are grouped by
    cluster; features are standardized.  Deterministic given the seed.
    """
    if clusters < 2:
        raise ConfigError("clusters", f"need at least 2 clusters, got {clusters}")
    if n < clusters:
        raise ConfigError("n", f"need n >= clusters, got n={n}, clusters={clusters}")
    if d < 2:
        raise ConfigError("d", f"need at least 2 features, got {d}")
    if separation <= 0 or sigma <= 0:
        raise ConfigError("separation", "separation and sigma must be positive")
    rng = np.random.default_rng(seed)
    min_dist = separation * sigma
    # Center scale targets typical pairwise distances only modestly above the
    # contracted floor (Gaussian pairs sit near scale * sqrt(2d)), escalating
    # when rejection sampling cannot pack all clusters at that spread.
    centers = None
    scale = _CENTER_MARGIN * min_dist / np.sqrt(2.0 * d)
    for _ in range(8):
        placed = np.empty((clusters, d))
        count = 0
        for _ in range(_CENTER_ATTEMPTS):
            candidate = rng.normal(0.0, scale, size=d)
            if count == 0 or np.linalg.norm(placed[:count] - candidate, axis=1).min() >= min_dist:
                placed[count] = candidate
                count += 1
                if count == clusters:
                    break
        if count == clusters:
            centers = placed
            break
        scale *= 1.5
    if centers is None:
        raise ConfigError(
            "separation",
            f"could not place {clusters} centers at distance >= {min_dist} "
            f"within {_CENTER_ATTEMPTS} attempts per scale",
        )
    base, extra = divmod(n, clusters)
    sizes = [base + 1 if k < extra else base for k in range(clusters)]
    labels = np.repeat(np.arange(clusters), sizes)
    x = centers[labels] + rng.normal(0.0, sigma, size=(n, d))
    names = tuple(f"f{j}" for j in range(d))
    dataset = Dataset(X=x, truth=Partition(labels, clusters), feature_names=names)
    return standardize(dataset)


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write features (and labels, if present) as UTF-8 CSV with a header row."""
    names = dataset.feature_names or tuple(f"f{j}" for j in range(dataset.d))
    header = list(names)
    if dataset.truth is not None:
        header.append(label_column)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            if dataset.truth is not None:
                row.append(str(int(dataset.truth.labels[i])))
            writer.writerow(row)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a headered numeric CSV; map the label column (if named) to a 0-based partition.

    A feature cell is one number: an optional sign, then decimal or exponent
    form (``-1.5``, ``2e-3``), optionally surrounded by whitespace and double
    quotes.  ``_`` digit separators and non-ASCII digits are not numbers; a
    cell that is not a number, or is ``nan`` or ``inf``, raises
    :class:`CsvFormatError` with its 1-based row and column (the header is
    row 1).  A row with the wrong cell count raises with its row.  Blank
    lines are skipped but still counted in row numbers.  A file that is not
    UTF-8, or a header cell longer than ``csv.field_size_limit()``, raises
    :class:`CsvFormatError` naming the path; data cells have no length limit.

    Label values become cluster ids in order of first appearance.  Features
    are returned exactly as stored (no standardization), so a save/load round
    trip reproduces the matrix bit-exactly.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise CsvFormatError(f"{path} is empty") from None
            except csv.Error as exc:
                raise CsvFormatError(f"{path}: {exc}", row=1) from None
            label_idx = None
            if label_column is not None:
                if label_column not in header:
                    raise CsvFormatError(f"label column '{label_column}' not in header {header}")
                label_idx = header.index(label_column)
            seen: dict[str, int] = {}  # label token -> cluster id, in order of first appearance
            converters = {}
            if label_idx is not None:
                converters[label_idx] = lambda tok: seen.setdefault(tok, len(seen))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected below
                    table = np.loadtxt(
                        fh,
                        dtype=np.float64,
                        delimiter=",",
                        quotechar='"',
                        comments=None,
                        ndmin=2,
                        converters=converters,
                        encoding="utf-8",  # numpy < 2 defaults to passing converters Latin-1 bytes
                    )
            except ValueError:
                # A ragged row or a bad cell; a decode error re-raises from the re-read.
                raise _first_fault(path, len(header), label_idx) from None
        if table.shape[0] == 0:
            raise CsvFormatError(f"{path} has a header but no data rows")
        if table.shape[1] != len(header):  # loadtxt takes its width from the first data row
            raise _first_fault(path, len(header), label_idx)
        feature_idx = [j for j in range(len(header)) if j != label_idx]
        x = table if label_idx is None else table.take(feature_idx, axis=1)
        finite = np.isfinite(x)
        if not finite.all():
            record, k = divmod(int(np.argmin(finite)), x.shape[1])
            raise _non_finite_fault(path, record, feature_idx[k])
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None
    truth = None
    if label_idx is not None:
        truth = Partition(table[:, label_idx].astype(np.int64), len(seen))
    names = tuple(header[j] for j in feature_idx)
    return Dataset(X=x, truth=truth, feature_names=names)


def _records(path: Path):
    """Yield ``(row, cells)`` for every record after the header (the header is row 1).

    Blank lines yield empty records, so rows count them.  A record csv cannot
    split raises :class:`CsvFormatError` with its row.  Its callers run under
    :func:`_wide_cells`, since ``np.loadtxt`` has no cell length limit.
    """
    row = 1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)
            for row, record in enumerate(reader, start=2):
                yield row, record
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: {exc}", row=row + 1) from None


@contextlib.contextmanager
def _wide_cells():
    """Lift ``csv.field_size_limit()`` during a re-read (a ``with`` block or a
    decorated function), restoring it on exit."""
    limit = csv.field_size_limit(_MAX_CELL_CHARS)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def _quote(cell: str) -> str:
    """``repr`` of a cell for an error message, cut to a short prefix."""
    if len(cell) <= _QUOTED_CHARS:
        return repr(cell)
    return f"{cell[:_QUOTED_CHARS]!r}... ({len(cell)} chars)"


@_wide_cells()
def _non_finite_fault(path: Path, record: int, col: int) -> CsvFormatError:
    """Position a non-finite cell: column ``col`` (0-based, in file order) of
    the ``record``-th data row ``np.loadtxt`` returned (0-based, blank lines
    not counted).  Only the records up to it are re-read; no cell is parsed.
    """
    data_rows = ((row, cells) for row, cells in _records(path) if cells)
    row, cells = next(itertools.islice(data_rows, record, None))
    return CsvFormatError(f"non-finite cell {_quote(cells[col])}", row=row, col=col + 1)


@_wide_cells()
def _first_fault(path: Path, width: int, label_idx: int | None) -> CsvFormatError:
    """Re-read a CSV that ``np.loadtxt`` rejected, row by row, and position its first fault.

    Ragged rows and cells that are not numbers are reported where they first
    occur.  Cells follow the grammar of ``np.loadtxt``: stripped, ASCII, no
    ``_``, then ``float``.
    """
    for line_no, record in _records(path):
        if not record:
            continue
        if len(record) != width:
            return CsvFormatError(f"expected {width} cells, found {len(record)}", row=line_no)
        for j, cell in enumerate(record):
            if j == label_idx:
                continue
            text = cell.strip()
            try:
                if not text.isascii() or "_" in text:
                    raise ValueError(text)
                float(text)
            except ValueError:
                return CsvFormatError(f"non-numeric cell {_quote(cell)}", row=line_no, col=j + 1)
    return CsvFormatError(f"{path} could not be parsed as CSV")
