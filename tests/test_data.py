import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossclust.cli import main
from crossclust.config import DimsSpec, TrainConfig, config_from_dict, load_config
from crossclust.data import Dataset, generate_blobs, load_csv, save_csv, standardize
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
def csv_tables(draw):
    """A small CSV table as text, its label column (or None) and at most one injected fault."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    label_pos = draw(st.one_of(st.none(), st.integers(0, d)))
    width = d + (label_pos is not None)
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 included
    values = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.lists(st.text(alphabet='ab ,"', min_size=1, max_size=3), min_size=n, max_size=n))
    quote = draw(st.lists(st.booleans(), min_size=n, max_size=n))
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


class TestLoadCsvMatchesRowwiseOracle:
    @given(csv_tables())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_same_matrix_labels_or_error_position(self, tmp_path, table):
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
