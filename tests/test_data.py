import csv
import dataclasses
import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossclust import data as data_module
from crossclust.augment import AugmentConfig
from crossclust import parallel
from crossclust.cli import main
from crossclust.config import DimsSpec, TrainConfig, config_from_dict, load_config
from crossclust.data import (
    Dataset,
    LabelledRows,
    Standardization,
    generate_blobs,
    label_csv,
    load_csv,
    save_csv,
    standardize,
)
from crossclust.errors import ConfigError, CsvFormatError
from crossclust.metrics import Partition, accuracy
from oracles import load_csv_rowwise


class TestGenerateBlobs:
    def test_shape_and_balanced_sizes(self):
        ds = generate_blobs(seed=0, n=100, d=8, clusters=4, separation=6.0, sigma=1.0)
        assert ds.X.shape == (100, 8)
        np.testing.assert_array_equal(np.bincount(ds.truth.labels), [25, 25, 25, 25])

    def test_near_balanced_when_not_divisible(self):
        ds = generate_blobs(seed=0, n=103, d=4, clusters=4, separation=6.0, sigma=1.0)
        sizes = np.bincount(ds.truth.labels)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 103

    def test_same_seed_identical(self):
        a = generate_blobs(seed=3, n=60, d=5, clusters=3, separation=5.0, sigma=1.0)
        b = generate_blobs(seed=3, n=60, d=5, clusters=3, separation=5.0, sigma=1.0)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.truth.labels, b.truth.labels)

    def test_features_standardized(self):
        ds = generate_blobs(seed=1, n=500, d=6, clusters=3, separation=6.0, sigma=1.0)
        np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-12)

    def test_kmeans_oracle_recovers_clusters_at_high_separation(self):
        cluster_mod = pytest.importorskip("sklearn.cluster")
        ds = generate_blobs(seed=2, n=1000, d=16, clusters=4, separation=8.0, sigma=1.0)
        km = cluster_mod.KMeans(n_clusters=4, n_init=10, random_state=0).fit(ds.X)
        assert accuracy(Partition(km.labels_, 4), ds.truth) >= 0.95

    def test_contract_violations(self):
        with pytest.raises(ConfigError):
            generate_blobs(seed=0, n=10, d=4, clusters=1, separation=6.0, sigma=1.0)
        with pytest.raises(ConfigError):
            generate_blobs(seed=0, n=3, d=4, clusters=4, separation=6.0, sigma=1.0)
        with pytest.raises(ConfigError):
            generate_blobs(seed=0, n=10, d=1, clusters=2, separation=6.0, sigma=1.0)
        with pytest.raises(ConfigError):
            generate_blobs(seed=0, n=10, d=4, clusters=2, separation=-1.0, sigma=1.0)
        with pytest.raises(ConfigError, match="'seed': must be >= 0, got -1"):
            generate_blobs(seed=-1, n=10, d=4, clusters=2, separation=6.0, sigma=1.0)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.normal(3.0, 5.0, size=(200, 4)))
        out = standardize(ds)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_left_finite(self):
        ds = Dataset(X=np.column_stack([np.ones(10), np.arange(10.0)]))
        out = standardize(ds)
        assert np.isfinite(out.X).all()
        np.testing.assert_array_equal(out.X[:, 0], 0.0)

    def test_equals_shift_then_scale_and_leaves_input(self):
        rng = np.random.default_rng(1)
        x = rng.normal(-2.0, 7.0, size=(300, 5))
        x[:, 2] = 4.25  # constant: std 0 is replaced by 1
        before = x.copy()
        mean, std = x.mean(axis=0), x.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        out = standardize(Dataset(X=x))
        np.testing.assert_array_equal(out.X, (x - mean) / std)
        np.testing.assert_array_equal(x, before)

    def test_holds_one_full_size_buffer(self):
        x = np.random.default_rng(2).normal(size=(20_000, 32))
        ds = Dataset(X=x)
        tracemalloc.start()
        try:
            out = standardize(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.X.shape == x.shape
        assert peak < 1.5 * x.nbytes


    def test_statistics_are_the_datasets_own_and_apply_to_other_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(1.0, 3.0, size=(50, 4))
        x[:, 1] = -2.0
        stats = Standardization.of(Dataset(X=x, feature_names=("a", "b", "c", "d")))
        np.testing.assert_array_equal(stats.mean, x.mean(axis=0))
        np.testing.assert_array_equal(stats.std, np.where(x.std(axis=0) == 0, 1.0, x.std(axis=0)))
        assert stats.feature_names == ("a", "b", "c", "d")
        assert Standardization.of(Dataset(X=x)).feature_names == ("f0", "f1", "f2", "f3")
        other = rng.normal(size=(7, 4))
        want = (other - stats.mean) / stats.std
        np.testing.assert_array_equal(standardize(Dataset(X=other), stats).X, want)
        assert stats.apply(other, out=other) is other
        np.testing.assert_array_equal(other, want)


class TestCsvRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = generate_blobs(seed=4, n=50, d=7, clusters=3, separation=6.0, sigma=1.0)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path, label_column="label")
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.truth.labels, ds.truth.labels)
        assert loaded.truth.num_clusters == ds.truth.num_clusters
        assert loaded.feature_names == ds.feature_names

    def test_unlabeled_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(X=rng.normal(size=(9, 3)) * 1e-7)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.X, ds.X)
        assert loaded.truth is None

    def test_file_line_count(self, tmp_path):
        ds = generate_blobs(seed=6, n=20, d=3, clusters=2, separation=6.0, sigma=1.0)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert len(path.read_text().splitlines()) == 21

    def test_string_labels_first_appearance_order(self, tmp_path):
        path = tmp_path / "pets.csv"
        path.write_text("x,kind\n1.0,cat\n2.0,dog\n3.0,cat\n")
        ds = load_csv(path, label_column="kind")
        np.testing.assert_array_equal(ds.truth.labels, [0, 1, 0])
        assert ds.truth.num_clusters == 2

    def test_non_latin1_labels(self, tmp_path):
        path = tmp_path / "greek.csv"
        path.write_text("x,kind\n1.0,α\n2.0,猫\n3.0,é\n4.0,α\n", encoding="utf-8")
        ds = load_csv(path, label_column="kind")
        np.testing.assert_array_equal(ds.X, [[1.0], [2.0], [3.0], [4.0]])
        np.testing.assert_array_equal(ds.truth.labels, [0, 1, 2, 0])
        assert ds.truth.num_clusters == 3

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_ragged_row_position_reported(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_position_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvFormatError, match=r"row 3, col 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_cell_position_reported(self, tmp_path, cell):
        # the label column sits first, so the column is counted in file order
        path = tmp_path / "bad.csv"
        path.write_text(f"label,a,b\n0,1.0,2.0\n1,3.0,4.0\n1,5.0,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"non-finite.*row 4, col 3") as exc:
            load_csv(path, label_column="label")
        assert (exc.value.row, exc.value.col) == (4, 3)

    def test_non_utf8_file_is_one_line_cli_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n1.0,2.0\n3.0,4\xff\n")
        code = main(["train", "--data", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err and str(path) in err and "UTF-8" in err
        assert "Traceback" not in err
        with pytest.raises(CsvFormatError, match="not UTF-8"):
            load_csv(path)

    def test_oversized_header_cell_is_csv_format_error(self, tmp_path, capsys):
        # csv's default field_size_limit is 131072 characters
        path = tmp_path / "wide.csv"
        path.write_text("a," + "h" * 200_000 + "\n1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="field larger than field limit") as exc:
            load_csv(path)
        assert exc.value.row == 1 and str(path) in str(exc.value)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "tail, message, row, col",
        [("", "non-finite cell '1111", 3, 1), ("3.0\n", "expected 2 cells, found 1", 4, None)],
        ids=["overflows_to_inf", "then_ragged"],
    )
    def test_oversized_data_cell_is_csv_format_error(self, tmp_path, tail, message, row, col):
        # np.loadtxt reads the 140 000-digit cell as inf (or fails on the ragged
        # row after it); the re-read that positions the fault gets past the
        # cell although it is longer than csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1.0,2.0\n" + "1" * 140_000 + ",2.0\n" + tail)
        limit = csv.field_size_limit()
        with pytest.raises(CsvFormatError, match=message) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (row, col)
        assert len(str(exc.value)) < 100  # the long cell is quoted by a short prefix
        assert csv.field_size_limit() == limit

    def test_non_finite_cell_after_oversized_finite_cell_is_positioned(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n0." + "0" * 139_997 + "1,2.0\nnan,1.0\n")
        limit = csv.field_size_limit()
        with pytest.raises(CsvFormatError, match="non-finite cell 'nan'") as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (3, 1)
        assert csv.field_size_limit() == limit

    def test_non_finite_row_counts_multiline_quoted_records(self, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_text('label,a\n"x\ny",1.0\n\nz,nan\n')
        with pytest.raises(CsvFormatError, match="non-finite") as exc:
            load_csv(path, label_column="label")
        assert (exc.value.row, exc.value.col) == (4, 2)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(path, label_column="label")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "1.0\u0661"])
    def test_cells_float_accepts_but_loader_rejects_are_positioned(self, tmp_path, cell):
        # Python's float() reads "1_0" as 10.0 and Arabic-Indic digits as 12.0
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="non-numeric") as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (3, 2)

    @pytest.mark.parametrize(
        "body",
        ["a,b\n1.0,nan\ninf,oops\n", "a,b\n1.0,NaN\n-inf,2.0\n", "a,b\nnan,1.0\n3.0\n"],
        ids=["non_numeric_after_nan", "row_major_non_finite", "ragged_after_nan"],
    )
    def test_fault_order_matches_rowwise_oracle(self, tmp_path, body):
        path = tmp_path / "faults.csv"
        path.write_text(body)
        with pytest.raises(CsvFormatError) as want:
            load_csv_rowwise(path)
        with pytest.raises(CsvFormatError) as got:
            load_csv(path)
        assert (got.value.row, got.value.col) == (want.value.row, want.value.col)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\r\n\r\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("a,b\n1.0,2.0\n\n3.0,nan\n")
        with pytest.raises(CsvFormatError, match="non-finite") as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (4, 2)

    def test_only_blank_lines_after_header_rejected_without_warning(self, tmp_path):
        path = tmp_path / "blank.csv"
        for body in ("a,b\n", "a,b\n\n\r\n"):
            path.write_text(body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CsvFormatError, match="no data rows"):
                    load_csv(path)

    def test_quoted_and_padded_cells(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('a,kind,b\n" 1.5 ","x,y", -2e-3\n+3,"say ""hi""",4.\n')
        ds = load_csv(path, label_column="kind")
        np.testing.assert_array_equal(ds.X, [[1.5, -2e-3], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.truth.labels, [0, 1])


_FAULTS = ("ragged", "oops", "nan", "-Infinity")


@st.composite
def csv_tables(draw, max_rows=6, quoted_labels=True):
    """A small CSV table as text, its label column (or None) and at most one injected fault.

    Without ``quoted_labels``, labels hold no comma or double quote and are
    never quoted."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_rows))
    label_pos = draw(st.one_of(st.none(), st.integers(0, d)))
    width = d + (label_pos is not None)
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 included
    values = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n))
    alphabet = 'ab ,"' if quoted_labels else "abé "
    labels = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=3), min_size=n, max_size=n))
    quote = draw(st.lists(st.booleans() if quoted_labels else st.just(False), min_size=n, max_size=n))
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    fault_row = draw(st.integers(0, n - 1))
    fault_col = draw(st.integers(0, d - 1))
    drop_cell = draw(st.booleans()) and width > 1
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = [f"f{j}" for j in range(d)]
    if label_pos is not None:
        header.insert(label_pos, "label")
    lines = [",".join(header)]
    for r in range(n):
        cells = [repr(v) for v in values[r]]
        if fault in ("oops", "nan", "-Infinity") and r == fault_row:
            cells[fault_col] = fault
        if label_pos is not None:
            label = labels[r]
            if quote[r] or "," in label or '"' in label:
                label = '"' + label.replace('"', '""') + '"'
            cells.insert(label_pos, label)
        if fault == "ragged" and r == fault_row:
            cells = cells[:-1] if drop_cell else cells + ["0.5"]
        lines.append(",".join(cells))
    trailing = draw(st.booleans())
    text = newline.join(lines) + (newline if trailing else "")
    return text, ("label" if label_pos is not None else None)


def assert_matches_rowwise_oracle(tmp_path, table):
    text, label_column = table
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = load_csv_rowwise(path, label_column)
    except CsvFormatError as expected:
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path, label_column)
        assert (exc.value.row, exc.value.col) == (expected.row, expected.col)
        return
    x, ids, names = want
    got = load_csv(path, label_column)
    assert got.X.tobytes() == x.tobytes() and got.X.shape == x.shape
    assert got.X.flags.c_contiguous
    assert got.feature_names == names
    if ids is None:
        assert got.truth is None
    else:
        np.testing.assert_array_equal(got.truth.labels, ids)
        assert got.truth.num_clusters == int(ids.max()) + 1


_ORACLE_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestLoadCsvMatchesRowwiseOracle:
    @given(csv_tables())
    @_ORACLE_SETTINGS
    def test_same_matrix_labels_or_error_position(self, tmp_path, table):
        assert_matches_rowwise_oracle(tmp_path, table)


def force_parts(monkeypatch) -> list:
    """Label every CSV that ``label_csv`` reads in up to 3 parts, whatever its
    size and the CPU count.

    Returns the list that collects what each ``_parse_parallel`` call
    returned (None where the file fell back to the one-process parse).
    """
    monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    results = []
    parse = data_module._parse_parallel

    def spy(*args):
        results.append(parse(*args))
        return results[-1]

    monkeypatch.setattr(data_module, "_parse_parallel", spy)
    return results


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise AssertionError("forked")


def parts_csv(labeled: bool = True) -> str:
    """12 data rows for three parts.  Labels are first seen in each part; CRLF
    and a blank line in the first part, a trailing blank line in the last."""
    labels = ["p", "q", "p", "q", "r", "p", "s", "r", "t", "s", "q", "u"]
    rows = [f"{i * 0.1!r},{label + ',' if labeled else ''}{-i}e-3" for i, label in enumerate(labels)]
    header = "a,label,b" if labeled else "a,b"
    return header + "\r\n" + "\r\n".join(rows[:4]) + "\r\n\r\n" + "\n".join(rows[4:]) + "\n\n"


class TestLoadCsvInOneProcess:
    @pytest.mark.parametrize(
        "label_column, later_tokens",
        [("label", {}), (None, {}), ("label", {",t,": ",ť,", ",u,": ",ü€,"})],
        ids=["label", "None", "non_ascii_label"],
    )
    def test_file_of_many_parts_is_parsed_without_a_fork(
        self, tmp_path, monkeypatch, label_column, later_tokens
    ):
        # later_tokens: labels first seen in the last part, renamed
        text = parts_csv(label_column is not None)
        for old, new in later_tokens.items():
            text = text.replace(old, new)
        path = tmp_path / "parts.csv"
        path.write_text(text, newline="", encoding="utf-8")
        want = load_csv(path, label_column)
        results = force_parts(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        got = load_csv(path, label_column)
        assert results == []
        assert got.X.tobytes() == want.X.tobytes() and got.X.flags.c_contiguous
        np.testing.assert_array_equal(got.X, [[i * 0.1, float(f"{-i}e-3")] for i in range(12)])
        assert got.feature_names == want.feature_names == ("a", "b")
        if label_column is None:
            assert got.truth is None
        else:
            np.testing.assert_array_equal(got.truth.labels, want.truth.labels)
            np.testing.assert_array_equal(got.truth.labels, [0, 1, 0, 1, 2, 0, 3, 2, 4, 3, 1, 5])
            assert got.truth.num_clusters == want.truth.num_clusters == 6


def first_feature_sign(x):
    """A ``label_csv`` hook: 1 where a row's first feature is positive."""
    return (x[:, 0] > 0).astype(np.int64)


def row_bits(x):
    """A ``label_csv`` hook: each row's float64 bits folded into one int64."""
    return (x.view(np.int64) * (2 * np.arange(x.shape[1]) + 1)).sum(axis=1)  # wraps


def unscaled(names) -> Standardization:
    """Statistics that shift by 0 and scale by 1, which keeps every finite value's bits."""
    return Standardization(np.zeros(len(names)), np.ones(len(names)), tuple(names))


UNSCALED = unscaled(("a", "b"))


def labelled(path, label_column, stats):
    """``label_csv``'s :func:`row_bits` labels and truth, or its error's text and position."""
    try:
        got = label_csv(path, row_bits, stats, label_column)
    except CsvFormatError as exc:
        return str(exc), exc.row, exc.col
    truth = None if got.truth is None else (got.truth.labels.tolist(), got.truth.num_clusters)
    return got.labels.tolist(), truth


class TestLabelCsvInPartsMatchesOneProcess:
    # up to 12 rows, and unquoted labels too: a part of fewer than 2 rows, or
    # of a quoted label, is not labelled
    @given(st.one_of(csv_tables(12), csv_tables(12, quoted_labels=False)), st.integers(2, 3))
    @_ORACLE_SETTINGS
    def test_same_labels_ids_or_error(self, tmp_path, monkeypatch, table, cpus):
        text, label_column = table
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        stats = unscaled([name for name in text.splitlines()[0].split(",") if name != "label"])
        want = labelled(path, label_column, stats)
        with monkeypatch.context() as patch:
            force_parts(patch)
            patch.setattr(parallel, "usable_cpus", lambda: cpus)
            assert labelled(path, label_column, stats) == want
        assert_no_child_process()


class TestFeatureNames:
    @pytest.mark.parametrize(
        "names, message, col",
        [
            (("a", "x", "b"), "header feature 2 is 'b'; the checkpoint's is 'x'", 3),
            (("b", "a"), "header feature 1 is 'a'; the checkpoint's is 'b'", 1),
            (("a",), "header feature 2 is 'b'; the checkpoint has 1 features", 3),
            (("a", "b", "c"), "header has no feature 3; the checkpoint's is 'c'", None),
        ],
        ids=["renamed", "reordered", "extra_column", "missing_column"],
    )
    def test_first_differing_column_is_named_before_any_row_is_read(
        self, tmp_path, monkeypatch, names, message, col
    ):
        path = tmp_path / "named.csv"
        path.write_text("a,label,b\n1.0,p,2.0\n3.0,q,oops\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(path, "label", names)
        assert str(info.value).startswith(message)
        assert (info.value.row, info.value.col) == (1, col)

    def test_matching_names_load_as_without_them(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,label,b\n1.0,p,2.0\n3.0,q,4.0\n")
        got = load_csv(path, "label", ("a", "b"))
        assert got.X.tobytes() == load_csv(path, "label").X.tobytes()


class TestLabelCsv:
    @pytest.mark.parametrize(
        "label_column, later_tokens",
        [("label", {}), (None, {}), ("label", {",t,": ",ť,", ",u,": ",ü€,"})],
        ids=["label", "None", "non_ascii_label"],
    )
    def test_labels_and_truth_are_those_of_the_whole_file(
        self, tmp_path, monkeypatch, label_column, later_tokens
    ):
        # later_tokens: labels first seen in the last part, renamed
        path = tmp_path / "parts.csv"
        text = parts_csv(label_column is not None).replace("0.0,", "-0.5,", 1)  # one row labelled 0
        for old, new in later_tokens.items():
            text = text.replace(old, new)
        path.write_text(text, newline="", encoding="utf-8")
        want = load_csv(path, label_column)
        results = force_parts(monkeypatch)
        got = label_csv(path, first_feature_sign, UNSCALED, label_column)
        assert results[0] is not None
        np.testing.assert_array_equal(got.labels, first_feature_sign(want.X))
        assert got.labels.dtype == np.int64 and len(set(got.labels.tolist())) == 2
        if label_column is None:
            assert got.truth is None
        else:
            np.testing.assert_array_equal(got.truth.labels, want.truth.labels)
            np.testing.assert_array_equal(got.truth.labels, [0, 1, 0, 1, 2, 0, 3, 2, 4, 3, 1, 5])
            assert got.truth.num_clusters == want.truth.num_clusters == 6
        assert_no_child_process()

    @pytest.mark.parametrize("label_column", ["label", None])
    def test_standardized_rows_have_the_bits_of_apply(self, tmp_path, monkeypatch, label_column):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(label_column is not None), newline="")
        stats = Standardization(np.array([0.3, -0.1]), np.array([0.7, 3.0]), ("a", "b"))
        want = stats.apply(load_csv(path, label_column).X).view(np.int64)
        for forced in (False, True):
            results = force_parts(monkeypatch) if forced else []
            for k in range(2):  # the hook's labels are the bits of standardized column k

                def column_bits(x):
                    return x[:, k].view(np.int64).copy()

                got = label_csv(path, column_bits, stats, label_column)
                np.testing.assert_array_equal(got.labels, want[:, k])
            assert all(result is not None for result in results)
        assert len(results) == 2
        assert_no_child_process()

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"1e-3\n", b"oops\n"),
            (b"1e-3\n", b"1e-3,5\n"),
            (b"1e-3\n", b"nan\n"),
            (b",t,", b',"t",'),
            (b"a,label", b'"a",label'),
            (b"a,label", b"x,label"),
            (b"a,label,b", b"a,label"),
            (b"0e-3\n", b"0e-3\r"),
            (b",t,", b",\xff,"),
        ],
        ids=[
            "non_numeric", "ragged", "non_finite", "quoted_label", "quoted_header", "other_header",
            "every_row_too_wide", "lone_cr", "not_utf8",
        ],
    )
    def test_failing_part_or_header_gives_the_one_process_labels_or_error(
        self, tmp_path, monkeypatch, old, new
    ):
        header, rows = parts_csv().encode().split(b"\r\n", 1)
        # 10 kB of rows first, so a decode error is past what the header read decodes
        text = header + b"\r\n" + b"0.5,p,1\n" * 1250 + rows
        path = tmp_path / "parts.csv"
        path.write_bytes(text[::-1].replace(old[::-1], new[::-1], 1)[::-1])  # the last match
        # the header's one feature, so that every row is too wide for it
        stats = unscaled(("a",)) if new == b"a,label" else UNSCALED

        def outcome(parse):
            try:
                got = parse()
            except CsvFormatError as exc:
                return str(exc), exc.row, exc.col
            return got.labels.tolist(), got.truth.labels.tolist()

        def one_process():
            data = load_csv(path, "label", stats.feature_names)
            return LabelledRows(first_feature_sign(data.X), data.truth)

        want = outcome(one_process)
        results = force_parts(monkeypatch)
        assert outcome(lambda: label_csv(path, first_feature_sign, stats, "label")) == want
        assert results == ([] if new.startswith(b"x,") else [None])
        assert_no_child_process()

    @pytest.mark.parametrize("part", [0, 1], ids=["parent", "middle"])
    @pytest.mark.parametrize(
        "fault",
        [b"oops,p,1\n", b"0.5,p,1,5\n", b"nan,p,1\n", b'0.5,"p",1\n', b"0.5,p,1\r", b"0.5,\xff,1\n"],
        ids=["non_numeric", "ragged", "non_finite", "quoted_label", "lone_cr", "not_utf8"],
    )
    def test_failing_row_in_the_parents_or_a_middle_part_gives_the_one_process_labels_or_error(
        self, tmp_path, monkeypatch, fault, part
    ):
        # the parent's part fails while its children label theirs; a middle
        # part fails while the last child's message waits unread
        header = b"a,label,b\n"
        rows = [b"0.5,p,1\n"] * 6000  # 48 kB: a fault in row 1500 or 3000 is past the header read
        row = 1500 * (part + 1)
        rows[row] = fault
        path = tmp_path / "parts.csv"
        path.write_bytes(header + b"".join(rows))
        bounds = data_module._part_bounds(path, 3)
        assert bounds[part] <= len(header) + len(b"".join(rows[:row])) < bounds[part + 1]

        def outcome(parse):
            try:
                got = parse()
            except CsvFormatError as exc:
                return str(exc), exc.row, exc.col
            return got.labels.tolist(), got.truth.labels.tolist()

        def one_process():
            data = load_csv(path, "label")
            return LabelledRows(first_feature_sign(data.X), data.truth)

        want = outcome(one_process)
        results = force_parts(monkeypatch)
        assert outcome(lambda: label_csv(path, first_feature_sign, UNSCALED, "label")) == want
        assert results == [None]
        assert_no_child_process()

    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_hook_error_in_a_part_gives_the_one_process_result(self, tmp_path, monkeypatch, where):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(), newline="")
        want = first_feature_sign(load_csv(path, "label").X)
        results = force_parts(monkeypatch)
        parent = os.getpid()

        def fails(x):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError("labelling failed")
            return first_feature_sign(x)

        if where == "parent":  # the parent's hook fails again on the whole file
            with pytest.raises(ValueError, match="labelling failed"):
                label_csv(path, fails, UNSCALED, "label")
        else:
            np.testing.assert_array_equal(label_csv(path, fails, UNSCALED, "label").labels, want)
        assert results == [None]
        assert_no_child_process()

    @pytest.mark.parametrize("ending", ["dead", "truncated"])
    def test_child_that_dies_before_or_during_its_message_gives_the_one_process_labels(
        self, tmp_path, monkeypatch, ending
    ):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(), newline="")
        want = labelled(path, "label", UNSCALED)
        results = force_parts(monkeypatch)
        label_part = data_module._label_part

        def truncated(fd, *args):  # killed after writing half of its message
            message = pickle.dumps(label_part(*args))
            os.write(fd, message[: len(message) // 2])
            os._exit(0)

        def dead(*args):
            os._exit(3)

        monkeypatch.setattr(data_module, "_send_part", dead if ending == "dead" else truncated)
        assert labelled(path, "label", UNSCALED) == want
        assert results == [None]
        assert_no_child_process()

    def test_failed_fork_gives_the_one_process_labels(self, tmp_path, monkeypatch):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(), newline="")
        want = labelled(path, "label", UNSCALED)
        results = force_parts(monkeypatch)
        forks, fork = [], os.fork

        def second_fork_fails():  # the first child is started, the second is not
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert labelled(path, "label", UNSCALED) == want
        assert results == [None] and len(forks) == 2
        assert_no_child_process()

    def test_interrupt_while_awaiting_the_children_reaps_every_child(self, tmp_path, monkeypatch):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(), newline="")
        force_parts(monkeypatch)
        awaited = []

        def interrupted(pipe):
            awaited.append(pipe)
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "load", interrupted)
        with pytest.raises(KeyboardInterrupt):
            label_csv(path, first_feature_sign, UNSCALED, "label")
        assert len(awaited) == 1
        assert_no_child_process()

    def test_part_of_one_row_labels_the_whole_file_in_one_call(self, tmp_path, monkeypatch):
        # the first of two parts holds one long row
        path = tmp_path / "parts.csv"
        path.write_text("a,b\n1.0" + " " * 1000 + ",2.0\n3.0,4.0\n5.0,6.0\n")
        results = force_parts(monkeypatch)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        assert data_module._part_bounds(path, 2)[1] == len("a,b\n1.0" + " " * 1000 + ",2.0\n")
        seen = []
        got = label_csv(path, lambda x: seen.append(len(x)) or first_feature_sign(x), UNSCALED)
        assert results == [None]
        assert seen == [3]  # a one-row product rounds differently: no part is labelled alone
        np.testing.assert_array_equal(got.labels, [1, 1, 1])
        assert_no_child_process()

    @pytest.mark.parametrize("case", ["small_file", "one_cpu", "not_linux"])
    def test_file_too_small_on_one_cpu_or_off_linux_is_labelled_without_a_fork(
        self, tmp_path, monkeypatch, case
    ):
        path = tmp_path / "parts.csv"
        path.write_text(parts_csv(), newline="")
        want = first_feature_sign(load_csv(path, "label").X)
        if case != "small_file":
            monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        if case == "one_cpu":
            monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        if case == "not_linux":
            monkeypatch.setattr(parallel.sys, "platform", "darwin")
        monkeypatch.setattr(os, "fork", no_fork)
        np.testing.assert_array_equal(label_csv(path, first_feature_sign, UNSCALED, "label").labels, want)


class TestTrainConfig:
    def test_empty_config_gives_all_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == TrainConfig()
        assert cfg.zeta == 0.6
        assert cfg.gamma == 0.1
        assert cfg.c3_lr == 1e-5
        assert cfg.batch_size == 128
        assert cfg.c3_epochs == 20
        assert cfg.init_epochs == 100
        assert cfg.tau_I == 0.5
        assert cfg.tau_C == 1.0

    def test_partial_config_overrides_only_stated_fields(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("zeta: 0.4\nM: 5\ndims:\n  z_dim: 16\n")
        cfg = load_config(path)
        assert cfg.zeta == 0.4
        assert cfg.M == 5
        assert cfg.dims.z_dim == 16
        assert cfg.dims.hidden == (128, 64)  # untouched default
        assert cfg.gamma == 0.1

    def test_out_of_range_zeta_names_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("zeta: 1.5\n")
        with pytest.raises(ConfigError, match="zeta"):
            load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="zeta_typo"):
            config_from_dict({"zeta_typo": 0.5})

    def test_nested_sections_parse(self, tmp_path):
        path = tmp_path / "full.yaml"
        path.write_text(
            "augment:\n  gaussian_noise_sigma: 0.2\n  scale_range: [0.8, 1.2]\n"
            "dims:\n  hidden: [32, 16]\n"
        )
        cfg = load_config(path)
        assert cfg.augment.gaussian_noise_sigma == 0.2
        assert cfg.augment.scale_range == (0.8, 1.2)
        assert cfg.dims.hidden == (32, 16)

    def test_invariant_violations_named(self):
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"gamma": 0.0})
        with pytest.raises(ConfigError, match="batch_size"):
            config_from_dict({"batch_size": 1})
        with pytest.raises(ConfigError, match="M"):
            config_from_dict({"M": 1})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": "abc"})

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(M=5, zeta=0.3, dims=DimsSpec(hidden=(10, 4), z_dim=2))
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"M": "8"}, "M"),
            ({"batch_size": 16.0}, "batch_size"),
            ({"init_epochs": 1.5}, "init_epochs"),
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            ({"dims": {"hidden": [8]}}, "dims"),
            ({"augment": {"mask_rate": 0.5}}, "augment"),
            ({"zeta": "abc"}, "zeta"),
        ],
        ids=lambda v: repr(v) if isinstance(v, dict) else v,
    )
    def test_malformed_field_raises_at_construction(self, kwargs, field):
        with pytest.raises(ConfigError, match=f"'{field}'") as exc:
            TrainConfig(**kwargs)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"hidden": ()}, "dims.hidden"),
            ({"hidden": (8, 0)}, "dims.hidden"),
            ({"z_dim": 0}, "dims.z_dim"),
            ({"input_dim": 0}, "dims.input_dim"),
        ],
        ids=lambda v: repr(v) if isinstance(v, dict) else v,
    )
    def test_dims_ranges_checked_at_construction(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            DimsSpec(**kwargs)
        assert exc.value.field == field

    def test_unknown_keys_of_mixed_types_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict({1: 2, "a": 3})

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError, match="batch_size"):
            dataclasses.replace(TrainConfig(), batch_size=1)

    def test_to_dict_writes_sequences_as_json_lists(self):
        import json

        cfg = TrainConfig(dims=DimsSpec(hidden=[10, 4]), augment=AugmentConfig(scale_range=[0.8, 1.2]))
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        assert '"hidden": [10, 4]' in text and '"scale_range": [0.8, 1.2]' in text
