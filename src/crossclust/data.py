"""Synthetic dataset generation and CSV I/O.

Truth labels ride along in :class:`Dataset` for evaluation only; training
code paths receive the feature matrix alone.  CSV round trips are bit-exact:
floats are written with shortest round-trip decimal formatting.
:class:`Standardization` holds a training set's feature statistics, which a
checkpoint stores so that evaluation shifts and scales rows as training did.

:func:`load_csv` parses in one process.  :func:`label_csv` labels a large
CSV on one BLAS thread, in parts parsed by processes forked through
:mod:`crossclust.parallel`, each part's rows where it is parsed.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import itertools
import os
import pickle
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import ConfigError, CsvFormatError
from .metrics import Partition

_CENTER_ATTEMPTS = 1000
_CENTER_MARGIN = 1.05  # typical center spacing sits just above the contracted floor
_MAX_CELL_CHARS = 2**31 - 1  # csv's cell limit in fault re-reads; fits a 32-bit C long
_QUOTED_CHARS = 32  # a cell longer than this is cut in error messages
_PARALLEL_PART_BYTES = 2 << 20  # the smallest part of a CSV worth a forked parser
_PART_BUFFER_BYTES = 64 << 10  # a part's read buffer; 8 KiB ones cost 5-7 ms more per 50k-row part


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


class Standardization(NamedTuple):
    """The per-feature shift and scale of :func:`standardize`: a training set's
    mean and std, with 1 as the std of a constant feature, and the names of
    the features they belong to."""

    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...]

    @classmethod
    def of(cls, dataset: Dataset) -> "Standardization":
        """The statistics of ``dataset``'s own features; unnamed features are
        named as :func:`save_csv` names them."""
        x = dataset.X
        mean, std = x.mean(axis=0), x.std(axis=0)
        names = dataset.feature_names or tuple(f"f{j}" for j in range(dataset.d))
        return cls(mean, np.where(std == 0.0, 1.0, std), names)

    def apply(self, x, out=None) -> np.ndarray:
        """``(x - mean) / std`` bit for bit, computed in ``out``: a fresh array
        by default, or ``x`` itself."""
        out = np.subtract(x, self.mean, out=out)
        out /= self.std
        return out


class LabelledRows(NamedTuple):
    """A CSV's rows as evaluation reads them: each row's int64 cluster label,
    computed where the row was parsed (:func:`label_csv`) or after a whole
    load, and the truth partition of the label column, if one was named."""

    labels: np.ndarray
    truth: Partition | None = None


def standardize(dataset: Dataset, stats: Standardization | None = None) -> Dataset:
    """Shift/scale each feature with ``stats``, by default the dataset's own
    (:meth:`Standardization.of`), which give zero mean and unit variance.

    Constant features are left centered but unscaled.  The result is
    ``(X - mean) / std`` bit for bit, computed in its one output buffer;
    ``dataset.X`` is not modified.
    """
    stats = Standardization.of(dataset) if stats is None else stats
    return replace(dataset, X=stats.apply(dataset.X))


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
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
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


@contextlib.contextmanager
def atomic_write(path):
    """A UTF-8 text file, written under a temporary name in ``path``'s
    directory, that replaces ``path`` (``os.replace``) when the block ends;
    if the block raises, it is removed and ``path`` is left as it was."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_csv(
    path, label_column: str | None = None, feature_names: tuple[str, ...] | None = None
) -> Dataset:
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
    With ``feature_names``, the header's feature columns must be those names
    in that order: the first column that differs raises, before any data row
    is read.

    Label values become cluster ids in order of first appearance.  Features
    are returned exactly as stored (no standardization), so a save/load round
    trip reproduces the matrix bit-exactly.  The file is parsed in one
    process.
    """
    names, x, ids, clusters = _parse(path, label_column, feature_names)
    truth = None if ids is None else Partition(ids, clusters)
    return Dataset(X=x, truth=truth, feature_names=names)


def label_csv(
    path, label_rows, standardization: Standardization, label_column: str | None = None
) -> LabelledRows:
    """Load a CSV as :func:`load_csv` does, with ``standardization``'s
    feature names, and reduce its feature rows, standardized with it
    (:meth:`Standardization.apply` bit for bit), to labels:
    ``label_rows(x)`` gets rows as a fresh (rows, d) float64 array of finite
    values, which it may overwrite, and returns their int64 labels.  The
    rows are standardized as they are taken from the parsed table, so no
    unstandardized copy of them is made.

    A file of two or more ``_PARALLEL_PART_BYTES`` parts is labelled on one
    OpenBLAS thread (:func:`parallel.one_blas_thread`) where that count can
    be set, and only then, on Linux with 2 or more usable CPUs, parsed in
    parts by forked processes (:func:`_parse_parallel`), each labelled where
    it is parsed, at least 2 rows at a time; only labels, label ids and label
    tokens leave a part.  Otherwise, and when any part fails, the file is
    parsed in one process and labelled in one call, a smaller file on the
    caller's thread count.  Every error is that of :func:`load_csv`.
    """
    names, parts = standardization.feature_names, _whole_parts(path)
    with parallel.one_blas_thread() if parts >= 2 else contextlib.nullcontext(False) as pinned:
        parsed = _parse(path, label_column, names, label_rows, standardization, parts if pinned else 0)
    _, labels, ids, clusters = parsed
    return LabelledRows(labels, None if ids is None else Partition(ids, clusters))


def _parse(path, label_column, feature_names, label_rows=None, stats=None, parts=0):
    """The body of :func:`load_csv` and, with ``label_rows``, ``stats`` and
    (under its pin) the ``parts`` it may fork, of :func:`label_csv`: ``(feature
    names, rows or their labels, label ids or None, cluster count)``."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header, label_idx = _read_header(fh, path, label_column, feature_names)
            parsed = None
            if parts:
                parsed = _parse_parallel(path, parts, len(header), label_idx, label_rows, stats)
            if parsed is None:
                table, ids, clusters = _parse_serial(fh, path, len(header), label_idx)
                x = _feature_rows(table, label_idx, stats)
                del table
                parsed = (x if label_rows is None else label_rows(x)), ids, clusters
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None
    names = tuple(header[j] for j in range(len(header)) if j != label_idx)
    return (names, *parsed)


def _read_header(fh, path: Path, label_column: str | None, feature_names) -> tuple[list, int | None]:
    """Read the header line of ``fh``; returns its cells and the label column's index."""
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
    columns = [j for j in range(len(header)) if j != label_idx]
    names = [header[j] for j in columns]
    if feature_names is not None and names != list(feature_names):
        pairs = enumerate(itertools.zip_longest(names, feature_names))
        k, (got, want) = next((k, pair) for k, pair in pairs if pair[0] != pair[1])
        where = f"header has no feature {k + 1}" if got is None else f"header feature {k + 1} is {got!r}"
        what = f"the checkpoint has {k} features" if want is None else f"the checkpoint's is {want!r}"
        raise CsvFormatError(f"{where}; {what}", row=1, col=None if got is None else columns[k] + 1)
    return header, label_idx


def _read_table(fh, label_idx: int | None) -> tuple[np.ndarray, dict]:
    """``np.loadtxt`` of the data rows left in ``fh``, a text file or a binary
    one whose byte lines loadtxt decodes as UTF-8, as one float64 table.

    The label column's tokens become cluster ids in order of first
    appearance; returns the table and those ids (token -> id).
    """
    seen = collections.defaultdict(itertools.count().__next__)  # a new token takes the next id
    converters = {} if label_idx is None else {label_idx: seen.__getitem__}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected by the caller
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
    return table, seen


def _parse_serial(fh, path: Path, width: int, label_idx: int | None):
    """Parse the data rows after the header in one process.

    Returns ``(table, label ids or None, cluster count)``, the table holding
    the label column as ids; raises the :class:`CsvFormatError` of the
    file's first fault.
    """
    try:
        table, seen = _read_table(fh, label_idx)
    except ValueError:
        # A ragged row or a bad cell; a decode error re-raises from the re-read.
        raise _first_fault(path, width, label_idx) from None
    if table.shape[0] == 0:
        raise CsvFormatError(f"{path} has a header but no data rows")
    if table.shape[1] != width:  # loadtxt takes its width from the first data row
        raise _first_fault(path, width, label_idx)
    finite = np.isfinite(table)  # label ids are finite
    if not finite.all():
        record, col = divmod(int(np.argmin(finite)), width)
        raise _non_finite_fault(path, record, col)
    ids = None if label_idx is None else table[:, label_idx].astype(np.int64)
    return table, ids, len(seen)


def _feature_rows(table: np.ndarray, label_idx: int | None, stats: Standardization | None = None):
    """A parsed table's feature columns as a fresh C-ordered array, with
    ``stats`` standardized (:meth:`Standardization.apply` bit for bit) as
    they are taken.  A table without a label column is its own feature
    array, standardized in place."""
    if label_idx is None:
        return table if stats is None else stats.apply(table, out=table)
    if stats is None:
        return table.take([j for j in range(table.shape[1]) if j != label_idx], axis=1)
    x = np.empty((len(table), table.shape[1] - 1))
    np.subtract(table[:, :label_idx], stats.mean[:label_idx], out=x[:, :label_idx])
    np.subtract(table[:, label_idx + 1 :], stats.mean[label_idx:], out=x[:, label_idx:])
    x /= stats.std
    return x


def _whole_parts(path) -> int:
    """How many parts of ``_PARALLEL_PART_BYTES`` ``path`` holds, whatever
    the CPU count; 0 for a file that cannot be read, which the one-process
    parse reports."""
    try:
        return os.stat(path).st_size // _PARALLEL_PART_BYTES
    except OSError:
        return 0


def _part_bounds(path: Path, parts: int) -> list[int]:
    """Byte offsets that split the data rows at line starts into at most
    ``parts`` non-empty parts of about equal size: part k is
    ``[bounds[k], bounds[k + 1])``.

    Returns ``[]`` when the header line holds a double quote or a carriage
    return before its end, since the data rows then need not start after its
    first newline.
    """
    with open(path, "rb") as fb:
        header = fb.readline()
        line = header[:-2] if header.endswith(b"\r\n") else header[:-1]
        if not header.endswith(b"\n") or b'"' in line or b"\r" in line:
            return []
        start = fb.tell()
        size = fb.seek(0, os.SEEK_END)
        bounds = [start]
        for k in range(1, parts):
            fb.seek(start + (size - start) * k // parts - 1)
            fb.readline()  # the next line start at or after the even split
            if bounds[-1] < fb.tell() < size:
                bounds.append(fb.tell())
        bounds.append(size)
    return bounds


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, end)`` of an open file, read with ``os.pread``; ``quoted``
    records whether a double quote was among them."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self._fd, self._pos, self._end = fd, start, end
        self.quoted = False

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._end - self._pos), self._pos)
        self._pos += len(data)
        self.quoted = self.quoted or b'"' in data
        buf[: len(data)] = data
        return len(data)


def _label_part(path: Path, bounds, width: int, label_idx: int | None, label_rows, stats):
    """``_read_table`` of the data rows in bytes ``bounds`` (``[start, end)``)
    of ``path``, labelled as :func:`label_csv` labels them.

    Returns ``(labels, ids, tokens)``: the ``label_rows`` labels of the
    part's feature rows standardized with ``stats``, the part's label ids
    (None without a label column) and its label tokens in order of first
    appearance.  Returns None when the part holds a double quote (a quoted
    record may span a part boundary), a table of the wrong width, a
    non-finite cell, or fewer than 2 rows (a one-row product rounds
    differently).  Raises what ``np.loadtxt`` and ``label_rows`` raise.

    ``np.loadtxt`` reads the part's byte lines, which end at line feeds
    only.  A lone carriage return before a line's end, which the
    one-process parse's text file reads as a line end, is a loadtxt error
    here.
    """
    start, end = bounds
    with open(path, "rb", buffering=0) as raw_file:
        raw = _ByteRange(raw_file.fileno(), start, end)
        with io.BufferedReader(raw, _PART_BUFFER_BYTES) as lines:
            table, seen = _read_table(lines, label_idx)
    # the label column holds ids, which are finite
    if raw.quoted or table.shape[1] != width or len(table) < 2 or not np.isfinite(table).all():
        return None
    labels = np.asarray(label_rows(_feature_rows(table, label_idx, stats)), dtype=np.int64)
    # made once the standardized rows are freed, so not held at the part's peak
    ids = None if label_idx is None else table[:, label_idx].astype(np.int64)
    return labels, ids, list(seen)


def _send_part(fd: int, path: Path, bounds, width: int, label_idx: int | None, label_rows, stats) -> int:
    """Child side of :func:`_parse_parallel`: pickle one part's
    :func:`_label_part` tuple to ``fd``.  Returns the exit status: 0 once it
    is written, 1 if the part is not one the parent can use."""
    part = _label_part(path, bounds, width, label_idx, label_rows, stats)
    if part is None:
        return 1
    with open(fd, "wb") as out:
        pickle.dump(part, out)
    return 0


def _parse_parallel(path: Path, parts: int, width: int, label_idx: int | None, label_rows, stats):
    """Label the data rows in parts, one per usable CPU up to ``parts``, as
    :func:`label_csv`'s one-process parse would: ``(labels, label ids or
    None, cluster count)``.

    The parent forks one process per part after the first and labels the
    first part itself (:func:`_label_part`) while the children label theirs
    and pickle them to their pipes (:func:`_send_part`).  Label ids are
    merged in part order, so first-appearance numbering is that of the
    whole file.

    Returns None, and the caller parses the file in one process, when
    fewer than 2 CPUs are usable, or when any part fails: a loadtxt error
    (a bad cell, a ragged row, a decode error), a table of the wrong width,
    a double quote in the data rows, a non-finite cell, a part of fewer
    than 2 rows, a ``label_rows`` error, or a child that died, sent part of
    its message or could not be started.
    Every child is reaped before this returns or raises.
    """
    bounds = _part_bounds(path, min(parallel.usable_cpus(), parts))
    if len(bounds) < 3:
        return None

    children = []  # (pid, read end of its pipe)
    try:
        try:
            for part in zip(bounds[1:-1], bounds[2:]):
                children.append(
                    parallel.fork_writer(_send_part, path, part, width, label_idx, label_rows, stats)
                )
        except OSError:  # no process or pipe to spare, or a second thread is alive
            return None
        try:
            own = _label_part(path, bounds[:2], width, label_idx, label_rows, stats)
        except (ValueError, ArithmeticError):  # the one-process parse raises it, after any CSV error
            return None
        if own is None:
            return None
        labelled = [own]
        try:
            for _, fd in children:
                with open(fd, "rb", closefd=False) as pipe:
                    labelled.append(pickle.load(pipe))
        except (EOFError, pickle.UnpicklingError):  # a child failed, or died mid-message
            return None
    finally:
        parallel.reap(children)
    labels = np.concatenate([part_labels for part_labels, _, _ in labelled])
    if label_idx is None:
        return labels, None, 0
    seen: dict[str, int] = {}
    ids = [
        np.array([seen.setdefault(tok, len(seen)) for tok in tokens], dtype=np.int64)[part_ids]
        for _, part_ids, tokens in labelled
    ]
    return labels, np.concatenate(ids), len(seen)


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
