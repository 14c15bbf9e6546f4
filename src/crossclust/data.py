"""Synthetic dataset generation and CSV I/O.

Truth labels ride along in :class:`Dataset` for evaluation only; training
code paths receive the feature matrix alone.  CSV round trips are bit-exact:
floats are written with shortest round-trip decimal formatting.
:class:`Standardization` holds a training set's feature statistics, which a
checkpoint stores so that evaluation shifts and scales rows as training did.

The helpers that fork a process writing into a pipe (:func:`_fork_writer`,
:func:`_read_exact`, :func:`_reap`) serve the parallel CSV parse (which can
also label each part's rows, :func:`label_csv`), the trainer's augmentation
producer and its inference workers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import pickle
import signal
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, CsvFormatError
from .metrics import Partition

_CENTER_ATTEMPTS = 1000
_CENTER_MARGIN = 1.05  # typical center spacing sits just above the contracted floor
_MAX_CELL_CHARS = 2**31 - 1  # csv's cell limit in fault re-reads; fits a 32-bit C long
_QUOTED_CHARS = 32  # a cell longer than this is cut in error messages
_PARALLEL_PART_BYTES = 2 << 20  # the smallest part of a CSV worth a forked parser


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
    trip reproduces the matrix bit-exactly.

    On Linux, a file large enough to give every usable CPU a part of at
    least ``_PARALLEL_PART_BYTES`` is parsed in parts by forked processes
    (see :func:`_parse_parallel`); the result and every error are those of
    the one-process parse.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header, label_idx = _read_header(fh, path, label_column, feature_names)
            parsed = _parse_parallel(path, len(header), label_idx)
            if parsed is None:
                parsed = _parse_serial(fh, path, len(header), label_idx)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None
    x, ids, clusters = parsed
    truth = None if ids is None else Partition(ids, clusters)
    names = tuple(header[j] for j in range(len(header)) if j != label_idx)
    return Dataset(X=x, truth=truth, feature_names=names)


def label_csv(
    path, label_rows, label_column: str | None = None, feature_names: tuple[str, ...] | None = None
) -> LabelledRows | None:
    """Parse a CSV in parts as :func:`load_csv` does, and reduce each part to
    labels where it is parsed: ``label_rows(x)`` gets the part's feature rows
    as a fresh (rows, d) float64 array of at least 2 finite rows, which it
    may overwrite, and returns their int64 labels.  Only labels, label ids
    and label tokens leave a part.

    Returns None, and the caller loads the file with :func:`load_csv`, which
    raises the file's error if it has one, unless :func:`load_csv` would
    parse it in parts and every part succeeded.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header, label_idx = _read_header(fh, path, label_column, feature_names)
    except (CsvFormatError, UnicodeDecodeError):
        return None
    parsed = _parse_parallel(path, len(header), label_idx, label_rows)
    if parsed is None:
        return None
    labels, ids, clusters = parsed
    return LabelledRows(labels, None if ids is None else Partition(ids, clusters))


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


def _read_table(fh, label_idx: int | None, seen: dict) -> np.ndarray:
    """``np.loadtxt`` of the data rows left in ``fh`` as one float64 table.

    The label column's tokens become cluster ids in order of first
    appearance, recorded in ``seen`` (token -> id).
    """
    converters = {}
    if label_idx is not None:
        converters[label_idx] = lambda tok: seen.setdefault(tok, len(seen))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected by the caller
        return np.loadtxt(
            fh,
            dtype=np.float64,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
            converters=converters,
            encoding="utf-8",  # numpy < 2 defaults to passing converters Latin-1 bytes
        )


def _parse_serial(fh, path: Path, width: int, label_idx: int | None):
    """Parse the data rows after the header in one process.

    Returns ``(X, label ids or None, cluster count)``; raises the
    :class:`CsvFormatError` of the file's first fault.
    """
    seen: dict[str, int] = {}
    try:
        table = _read_table(fh, label_idx, seen)
    except ValueError:
        # A ragged row or a bad cell; a decode error re-raises from the re-read.
        raise _first_fault(path, width, label_idx) from None
    if table.shape[0] == 0:
        raise CsvFormatError(f"{path} has a header but no data rows")
    if table.shape[1] != width:  # loadtxt takes its width from the first data row
        raise _first_fault(path, width, label_idx)
    feature_idx = [j for j in range(width) if j != label_idx]
    x = table if label_idx is None else table.take(feature_idx, axis=1)
    finite = np.isfinite(x)
    if not finite.all():
        record, k = divmod(int(np.argmin(finite)), x.shape[1])
        raise _non_finite_fault(path, record, feature_idx[k])
    ids = None if label_idx is None else table[:, label_idx].astype(np.int64)
    return x, ids, len(seen)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where no writer process is forked."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _part_count(path) -> int:
    """How many parts :func:`_parse_parallel` splits ``path`` into: one per
    usable CPU, each of at least ``_PARALLEL_PART_BYTES``; under 2, none.
    0 for a file that cannot be read, which the one-process parse reports."""
    try:
        return min(_usable_cpus(), os.stat(path).st_size // _PARALLEL_PART_BYTES)
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


def _parse_part(path: Path, start: int, end: int, width: int, label_idx: int | None):
    """``_read_table`` of the data rows in bytes ``[start, end)`` of ``path``.

    Returns ``(table, label tokens in order of first appearance)``, or None
    when the part holds a double quote (a quoted record may span a part
    boundary) or a table of the wrong width.  Raises what ``np.loadtxt``
    raises.
    """
    seen: dict[str, int] = {}
    with open(path, "rb", buffering=0) as raw_file:
        raw = _ByteRange(raw_file.fileno(), start, end)
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="") as text:
            table = _read_table(text, label_idx, seen)
    if raw.quoted or table.shape[1] != width:
        return None
    return table, list(seen)


def _read_exact(fd: int, buf) -> None:
    """Fill the writable buffer ``buf`` from ``fd``; EOFError if the writer quits first."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            raise EOFError("writer process ended early")
        view = view[got:]


def _finish_part(table: np.ndarray, width: int, label_idx: int | None, label_rows):
    """What a parsed part sends besides its label tokens and ids: its feature
    rows, or their ``label_rows`` labels (:func:`label_csv`).  None when a
    feature is not finite, or when a part to label has fewer than 2 rows."""
    x = table if label_idx is None else table.take([j for j in range(width) if j != label_idx], axis=1)
    if not np.isfinite(x).all() or (label_rows is not None and len(x) < 2):
        return None
    return x if label_rows is None else np.asarray(label_rows(x), dtype=np.int64)


def _send_part(fd: int, path: Path, bounds, width: int, label_idx: int | None, label_rows=None) -> int:
    """Child side of :func:`_parse_parallel`: parse one part and write it to ``fd``.

    The message is the row count and the token blob's length (two int64),
    the pickled label tokens, the part's :func:`_finish_part` output (feature
    rows as C-ordered float64, or int64 labels), then the part's label ids
    as int64.  Returns the exit status: 0 once the whole message is written,
    1 if the part is not one the parent can use.
    """
    part = _parse_part(path, *bounds, width, label_idx)
    if part is None:
        return 1
    table, tokens = part
    done = _finish_part(table, width, label_idx, label_rows)
    if done is None:
        return 1
    blob = pickle.dumps(tokens)
    with open(fd, "wb") as out:
        out.write(struct.pack("<qq", len(done), len(blob)))
        out.write(blob)
        out.write(memoryview(done).cast("B"))
        if label_idx is not None:
            out.write(memoryview(table[:, label_idx].astype(np.int64)).cast("B"))
    return 0


def _fork_writer(write, *args) -> tuple[int, int]:
    """Fork a process that runs ``write(fd, *args)`` on the write end of a pipe.

    Returns its pid and the pipe's read end; release both with :func:`_reap`.
    The child leaves by ``os._exit`` with ``write``'s return value as its
    status (1 if it raises), so it runs none of the parent's cleanup.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads (OpenBLAS's)
            # forks.  The training CSV parsers and the augmentation producer
            # run only numpy parsing, random draws and elementwise work and
            # call no BLAS; the parsers that label eval rows
            # (trainer.load_eval_rows) do, but only after their parent set
            # OpenBLAS to one thread, so each BLAS call in the child runs on
            # its one thread.  No lock a writer takes can be held by another
            # thread, because forks happen only while this process runs no
            # Python thread but the main one: the trainer starts a stage's
            # helper thread after the stage's fork and joins it before the
            # stage ends, and load_eval_rows forks only while no other
            # thread is alive.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                status = write(write_fd, *args)
            finally:
                os._exit(status)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return pid, read_fd


def _reap(children: list) -> None:
    """Close the pipe of each ``(pid, read end)`` in ``children``, SIGKILL the
    process and wait for it; ``children`` is left empty.  A writer that sent
    its whole message has exited or is about to; any other is not needed."""
    while children:
        pid, fd = children.pop()
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _receive_head(fd: int) -> tuple[int, list]:
    """A part's row count and label tokens, the start of :func:`_send_part`'s message."""
    head = bytearray(16)
    _read_exact(fd, head)
    rows, blob_len = struct.unpack("<qq", head)
    blob = bytearray(blob_len)
    _read_exact(fd, blob)
    return rows, pickle.loads(blob)


def _parse_parallel(path: Path, width: int, label_idx: int | None, label_rows=None):
    """Parse the data rows in parts, one per usable CPU, as :func:`_parse_serial` would.

    The parent forks one process per part after the first and parses the
    first part itself.  Every part's feature rows land in one preallocated
    matrix, the others' read from their pipes straight into it.  With
    ``label_rows``, every part, the parent's too, is reduced to its labels
    where it was parsed (:func:`label_csv`), and the labels land in one
    int64 vector instead.  Label ids are merged in part order, so
    first-appearance numbering is that of the whole file.

    Returns None, and the caller parses the file in one process, when the
    file is too small for two parts of ``_PARALLEL_PART_BYTES``, or when
    any part fails: a loadtxt error (a bad cell, a ragged row, a decode
    error), a table of the wrong width, a double quote in the data rows, a
    non-finite cell, no data rows, a part of fewer than 2 rows to label, a
    ``label_rows`` error, or a child that died or could not be started.
    Every child is reaped before this returns or raises.
    """
    parts = _part_count(path)
    if parts < 2:
        return None
    bounds = _part_bounds(path, parts)
    if len(bounds) < 3:
        return None

    children = []  # (pid, read end of its pipe)
    try:
        try:
            for part in zip(bounds[1:-1], bounds[2:]):
                children.append(
                    _fork_writer(_send_part, path, part, width, label_idx, label_rows)
                )
        except OSError:  # no process or pipe to spare
            return None
        try:
            own = _parse_part(path, bounds[0], bounds[1], width, label_idx)
            if own is None:
                return None
            table, tokens = own
            heads = [(len(table), tokens)]
        except ValueError:  # the one-process parse raises the file's own error
            return None
        if label_rows is not None:
            # labelled before the children's messages are awaited, while they label theirs
            try:
                done = _finish_part(table, width, label_idx, label_rows)
            except (ValueError, ArithmeticError):  # the one-process path raises it, after any CSV error
                done = None
            if done is None:
                return None
        try:
            heads += [_receive_head(fd) for _, fd in children]
        except EOFError:
            return None
        offsets = np.cumsum([0] + [rows for rows, _ in heads]).tolist()
        if offsets[-1] == 0:
            return None
        if label_rows is None:
            feature_idx = [j for j in range(width) if j != label_idx]
            out = np.empty((offsets[-1], len(feature_idx)))
            np.take(table, feature_idx, axis=1, out=out[: offsets[1]], mode="clip")  # "raise" would buffer
            if not np.isfinite(out[: offsets[1]]).all():
                return None
        else:
            out = np.empty(offsets[-1], dtype=np.int64)
            out[: offsets[1]] = done
        ids = None
        if label_idx is not None:
            ids = np.empty(offsets[-1], dtype=np.int64)
            ids[: offsets[1]] = table[:, label_idx]
        del table
        try:
            for k, (_, fd) in enumerate(children, start=1):
                _read_exact(fd, out[offsets[k] : offsets[k + 1]])
                if ids is not None:
                    _read_exact(fd, ids[offsets[k] : offsets[k + 1]])
        except EOFError:
            return None
        if ids is None:
            return out, None, 0
        seen: dict[str, int] = {}
        for (_, tokens), start, stop in zip(heads, offsets, offsets[1:]):
            remap = np.array([seen.setdefault(tok, len(seen)) for tok in tokens], dtype=np.int64)
            ids[start:stop] = remap[ids[start:stop]]
        return out, ids, len(seen)
    finally:
        _reap(children)


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
