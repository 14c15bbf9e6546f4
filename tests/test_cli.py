import contextlib
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crossclust
from crossclust.cli import main
from crossclust.data import Dataset, Standardization, load_csv, save_csv, standardize
from crossclust.metrics import Partition
from crossclust.model import _load_checkpoint, load_checkpoint
from crossclust.trainer import evaluate, predict, read_history

BLOBS_ARGS = ["--n", "60", "--d", "5", "--clusters", "3", "--sep", "6", "--sigma", "1", "--seed", "7"]
FAST_SWEEP = [
    "--init-epochs", "2",
    "--c3-epochs", "1",
    "--batch-size", "16",
    "--clusters", "3",
]
FAST_TRAIN = [*FAST_SWEEP, "--seed", "0"]


def cli_env() -> dict:
    """The environment for a fresh interpreter that imports this crossclust."""
    src = str(Path(crossclust.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture()
def blobs_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    assert main(["generate", *BLOBS_ARGS, "--out", str(path)]) == 0
    return path


@pytest.fixture()
def trained_dir(tmp_path, blobs_csv):
    out = tmp_path / "run"
    code = main(
        ["train", "--data", str(blobs_csv), "--label-column", "label", "--out", str(out), *FAST_TRAIN]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_n_plus_one_lines(self, blobs_csv):
        assert len(blobs_csv.read_text().splitlines()) == 61

    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["generate", *BLOBS_ARGS, "--out", str(a)]) == 0
        assert main(["generate", *BLOBS_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_cluster_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--clusters", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_usage_error_prints_the_generate_usage_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--clusters", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crossclust generate ")
        assert err.splitlines()[-1] == "crossclust generate: error: --clusters must be >= 2"

    @pytest.mark.parametrize(
        "flag, value", [("--sep", "inf"), ("--sep", "nan"), ("--sigma", "nan"), ("--sigma", "inf")]
    )
    def test_non_finite_scale_is_a_usage_error_naming_its_flag(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", flag, value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"crossclust generate: error: {flag} must be positive and finite, got {value}"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSCLUST_OUT", str(tmp_path / "root"))
        assert main(["generate", *BLOBS_ARGS]) == 0
        assert (tmp_path / "root" / "blobs.csv").exists()


class TestTrain:
    def test_writes_expected_artifacts(self, trained_dir):
        assert (trained_dir / "checkpoint.json").exists()
        assert (trained_dir / "history.jsonl").exists()
        summary = json.loads((trained_dir / "summary.json").read_text())
        assert summary["final"]["acc"] is not None
        assert summary["config"]["M"] == 3
        assert summary["wall_time_s"] >= 0

    def test_history_line_count_is_all_epochs_plus_pretrain(self, trained_dir):
        lines = (trained_dir / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2 + 1 + 1  # init epochs + c3 epochs + epoch-0 record

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path, blobs_csv):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "train",
                        "--data", str(blobs_csv),
                        "--label-column", "label",
                        "--out", str(out),
                        *FAST_TRAIN,
                    ]
                )
                == 0
            )
            outs.append(out)
        h1 = (outs[0] / "history.jsonl").read_bytes()
        h2 = (outs[1] / "history.jsonl").read_bytes()
        assert h1 == h2
        c1 = (outs[0] / "checkpoint.json").read_bytes()
        c2 = (outs[1] / "checkpoint.json").read_bytes()
        assert c1 == c2

    def test_flags_override_config_file(self, tmp_path, blobs_csv):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("zeta: 0.2\nM: 3\ninit_epochs: 1\nc3_epochs: 1\nbatch_size: 16\n")
        out = tmp_path / "run"
        assert (
            main(
                [
                    "train",
                    "--config", str(cfg),
                    "--data", str(blobs_csv),
                    "--label-column", "label",
                    "--out", str(out),
                    "--zeta", "0.9",
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["zeta"] == 0.9  # flag wins over file

    @pytest.mark.parametrize(
        "body, field",
        [
            ("zeta: 2.0\n", "zeta"),
            ("dims: {hidden: 5}\n", "dims.hidden"),
            ("augment: {scale_range: 1.0}\n", "augment.scale_range"),
            ("dims: {hidden: [x]}\n", "dims.hidden"),
            ("augment: {scale_range: [a, 1]}\n", "augment.scale_range"),
            ("dims: {z_dim: abc}\n", "dims.z_dim"),
            ("dims: {input_dim: abc}\n", "dims.input_dim"),
            ("dims: {z_dim: 2.5}\n", "dims.z_dim"),
            ("augment: {gaussian_noise_sigma: abc}\n", "augment.gaussian_noise_sigma"),
            ("augment: {mask_rate: abc}\n", "augment.mask_rate"),
        ],
        ids=[
            "zeta_range",
            "hidden_scalar",
            "scale_range_scalar",
            "hidden_word",
            "scale_range_word",
            "z_dim_word",
            "input_dim_word",
            "z_dim_fraction",
            "noise_sigma_word",
            "mask_rate_word",
        ],
    )
    def test_bad_config_exits_nonzero(self, tmp_path, blobs_csv, capsys, body, field):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(body)
        code = main(["train", "--config", str(cfg), "--data", str(blobs_csv), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config field '{field}'" in err
        assert "Traceback" not in err

    def test_non_utf8_config_is_one_line_error(self, tmp_path, blobs_csv, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(b"zeta: \xff\n")
        code = main(["train", "--config", str(cfg), "--data", str(blobs_csv), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config field 'config': {cfg} is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_negative_seed_is_one_line_error(self, tmp_path, blobs_csv, capsys, command):
        args = ["--data", str(blobs_csv)] if command == "train" else []
        capsys.readouterr()
        code = main([command, *args, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: config field 'seed': must be >= 0, got -1\n"

    def test_zero_norm_embedding_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "d2.csv"
        blobs = ["--n", "200", "--d", "2", "--clusters", "3", "--sep", "6", "--sigma", "1"]
        assert main(["generate", *blobs, "--seed", "0", "--out", str(data)]) == 0
        cfg = tmp_path / "mask.yaml"
        cfg.write_text("augment: {mask_rate: 0.5}\nM: 3\ninit_epochs: 1\nbatch_size: 16\n")
        capsys.readouterr()
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(r"stage 'init' at epoch 1, batch \d+: view [ab] of dataset row \d+$", err)

    @pytest.mark.parametrize(
        "flag, field", [("--init-lr", "init_lr"), ("--c3-lr", "c3_lr"), ("--gamma", "gamma")]
    )
    def test_infinite_rate_or_gamma_fails_where_the_config_is_built(
        self, tmp_path, blobs_csv, capsys, monkeypatch, flag, field
    ):
        import crossclust.cli as cli_mod

        monkeypatch.setattr(cli_mod, "train", lambda *args: pytest.fail("training started"))
        capsys.readouterr()
        code = main(["train", "--data", str(blobs_csv), flag, "inf", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: config field '{field}': must be positive and finite, got inf\n"

    def test_parameters_that_overflow_stop_at_a_located_batch(self, tmp_path, capsys):
        data = tmp_path / "d32.csv"
        assert main(["generate", "--n", "300", "--d", "32", "--clusters", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        args = ["--init-epochs", "2", "--c3-epochs", "1", "--clusters", "3", "--c3-lr", "1e300"]
        code = main(["train", "--data", str(data), *args, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Warning" not in err
        assert re.fullmatch(r"error: non-finite forward pass in stage 'c3' at epoch 1, batch \d+: .*\n", err)

    def test_missing_data_exits_nonzero(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_input_file_not_mutated(self, tmp_path, blobs_csv):
        before = blobs_csv.read_bytes()
        out = tmp_path / "runx"
        main(["train", "--data", str(blobs_csv), "--label-column", "label", "--out", str(out), *FAST_TRAIN])
        assert blobs_csv.read_bytes() == before


class TestEval:
    def test_metrics_json_on_stdout(self, trained_dir, blobs_csv, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(trained_dir / "checkpoint.json"),
                "--data", str(blobs_csv),
                "--label-column", "label",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"acc", "nmi", "ari", "cluster_sizes"}

    def test_non_finite_checkpoint_is_refused(self, trained_dir, blobs_csv, tmp_path, capsys):
        checkpoint = trained_dir / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["blocks"]["encoder.0.weight"]["data"][0] = float("nan")
        payload["blocks"]["cluster_head.0.bias"]["data"][0] = float("inf")
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        args = ["eval", "--checkpoint", str(edited), "--data", str(blobs_csv)]
        assert main([*args, "--label-column", "label"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{edited}: block 'encoder.0.weight' holds a non-finite value" in captured.err

    def test_unlabeled_report_notes_missing_metrics(self, trained_dir, blobs_csv, tmp_path, capsys):
        from crossclust.data import save_csv

        unlabeled = tmp_path / "features_only.csv"
        save_csv(replace(load_csv(blobs_csv, label_column="label"), truth=None), unlabeled)
        code = main(
            ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(unlabeled)]
        )
        assert code == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert "acc" not in out
        assert "assignment_entropy" in out
        assert "no truth labels" in captured.err

    def test_large_file_parsed_in_parts_prints_one_process_json(
        self, trained_dir, tmp_path, capsys, monkeypatch
    ):
        from crossclust import data, parallel

        large = tmp_path / "large.csv"
        blobs = ["--n", "50000", "--d", "5", "--clusters", "3", "--sep", "6", "--sigma", "1"]
        assert main(["generate", *blobs, "--seed", "8", "--out", str(large)]) == 0
        assert large.stat().st_size >= 2 * data._PARALLEL_PART_BYTES
        parse, parsed = data._parse_parallel, []

        def spy(*args):
            parsed.append(parse(*args))
            return parsed[-1]

        monkeypatch.setattr(data, "_parse_parallel", spy)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            args = ["--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(large)]
            assert main(["eval", *args, "--label-column", "label"]) == 0
            outputs.append(capsys.readouterr().out)
        assert parsed[0] is None and parsed[1] is not None
        assert outputs[1] == outputs[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the statistics are stored: a part's labels need no other part, and a
        # part that fails gives the one-process JSON too
        monkeypatch.setattr(data, "_send_part", lambda *args: os._exit(3))
        assert main(["eval", *args, "--label-column", "label"]) == 0
        assert capsys.readouterr().out == outputs[0]
        assert parsed[2:] == [None]  # then the one-process parse, not a second parse in parts
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_row_standardized_to_zero_is_labeled(self, tmp_path, capsys):
        # untrained params have zero biases, so a row at the stored training
        # means has y_z = 0
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("a,b\n0.0,1.0\n1.0,0.0\n2.0,3.0\n3.0,2.0\n")
        out = tmp_path / "run"
        flags = ["--init-epochs", "0", "--c3-epochs", "0", "--batch-size", "2", "--clusters", "2"]
        assert main(["train", "--data", str(train_csv), "--out", str(out), *flags]) == 0
        _, stats = _load_checkpoint(out / "checkpoint.json")
        np.testing.assert_array_equal(stats.mean, [1.5, 1.5])
        eval_csv = tmp_path / "eval.csv"
        eval_csv.write_text("a,b\n1.5,1.5\n2.5,0.5\n0.5,2.5\n")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(eval_csv)])
        assert code == 0, capsys.readouterr().err
        assert sum(json.loads(capsys.readouterr().out)["cluster_sizes"]) == 3

    def test_a_rows_label_does_not_depend_on_the_other_rows_in_the_file(self, tmp_path, capsys):
        # On its 400-row training file this model scores ACC 0.985.  Standardized
        # with their own statistics, the 267 rows of clusters 0 and 1 alone
        # scored 0.891, with 29 of them in the absent third cluster.
        full = tmp_path / "full.csv"
        blobs = ["--n", "400", "--d", "8", "--clusters", "3", "--seed", "1"]
        assert main(["generate", *blobs, "--out", str(full)]) == 0
        run = tmp_path / "run"
        flags = ["--seed", "1", "--clusters", "3", "--init-epochs", "20", "--c3-epochs", "3"]
        assert main(["train", "--data", str(full), "--label-column", "label", "--out", str(run), *flags]) == 0
        checkpoint = run / "checkpoint.json"
        data = load_csv(full, label_column="label")
        labels = predict(load_checkpoint(checkpoint), standardize(data).X).labels
        keep = data.truth.labels < 2
        subset = tmp_path / "clusters_0_1.csv"  # labelled with each row's label in the whole file
        save_csv(replace(data, X=data.X[keep], truth=Partition(labels[keep], 3)), subset)
        capsys.readouterr()
        args = ["eval", "--checkpoint", str(checkpoint), "--data", str(subset), "--label-column", "label"]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cluster_sizes"] == np.bincount(labels[keep], minlength=3).tolist()
        assert out["acc"] == 1.0

    def test_format_1_checkpoint_standardizes_each_file_with_a_note(self, tmp_path, capsys):
        checkpoint = Path(__file__).parent / "data" / "checkpoint_v1.json"
        params = load_checkpoint(checkpoint)
        x = 3.0 + 2.0 * np.random.default_rng(0).normal(size=(40, params.dims.input_dim))
        path = tmp_path / "rows.csv"
        save_csv(Dataset(X=x), path)
        want = evaluate(params, standardize(load_csv(path)))
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == want
        notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
        assert len(notes) == 1 and "format-1 checkpoint without the training statistics" in notes[0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("checkpoint_format", [1, 2])
    def test_data_from_a_fifo_prints_the_json_of_the_regular_file(
        self, tmp_path, capsys, request, checkpoint_format
    ):
        # eval reads --data once: a second open of a FIFO waits for a writer
        # that never comes, so the FIFO's eval runs in a process with a timeout
        if checkpoint_format == 1:
            checkpoint = Path(__file__).parent / "data" / "checkpoint_v1.json"
            d = load_checkpoint(checkpoint).dims.input_dim
            x = 3.0 + 2.0 * np.random.default_rng(0).normal(size=(40, d))
            data = tmp_path / "rows.csv"
            save_csv(Dataset(X=x, truth=Partition(np.arange(40) % 3, 3)), data)
        else:
            checkpoint = request.getfixturevalue("trained_dir") / "checkpoint.json"
            data = request.getfixturevalue("blobs_csv")
        args = ["eval", "--checkpoint", str(checkpoint), "--label-column", "label", "--data"]
        assert main([*args, str(data)]) == 0
        want = capsys.readouterr().out
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as out:
                out.write(data.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        command = [sys.executable, "-m", "crossclust.cli", *args, str(fifo)]
        try:
            got = subprocess.run(command, env=cli_env(), capture_output=True, text=True, timeout=60)
        finally:
            if writer.is_alive():  # eval never opened the FIFO: let the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert got.returncode == 0, got.stderr
        assert got.stdout == want
        assert json.loads(want)["cluster_sizes"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("mean", float("nan"), "standardization 'mean' holds a non-finite value"),
            ("std", float("inf"), "standardization 'std' holds a non-finite value"),
            ("std", 0.0, "standardization 'std' holds a value that is not positive"),
        ],
    )
    def test_unusable_stored_statistics_are_refused(
        self, trained_dir, blobs_csv, tmp_path, capsys, key, value, message
    ):
        payload = json.loads((trained_dir / "checkpoint.json").read_text())
        payload["standardization"][key][1] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        assert main(["eval", "--checkpoint", str(edited), "--data", str(blobs_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"{edited}: {message}" in captured.err

    @pytest.mark.parametrize(
        "edit, label_column, message",
        [
            (lambda h: h.replace("f2", "x2"), "label", "header feature 3 is 'x2'; the checkpoint's is 'f2' (row 1, col 3)"),
            (lambda h: h, None, "header feature 6 is 'label'; the checkpoint has 5 features (row 1, col 6)"),
            (lambda h: h.replace("f0,f1", "f1,f0"), "label", "header feature 1 is 'f1'; the checkpoint's is 'f0' (row 1, col 1)"),
        ],
        ids=["renamed", "label_column_not_named", "swapped"],
    )
    def test_header_that_differs_from_the_training_features_is_refused(
        self, trained_dir, blobs_csv, tmp_path, capsys, edit, label_column, message
    ):
        header, rows = blobs_csv.read_text().split("\n", 1)
        edited = tmp_path / "edited.csv"
        edited.write_text(edit(header) + "\n" + rows)
        args = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(edited)]
        assert main(args + (["--label-column", label_column] if label_column else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_missing_checkpoint_exits_nonzero(self, blobs_csv, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"), "--data", str(blobs_csv)])
        assert code == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dims"}),
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "blocks"}),
            lambda text: text.replace('"z_dim"', '"zdim"'),
            lambda text: text.replace('"data"', '"values"', 1),
            lambda text: "[1, 2]",
            lambda text: "\xff" + text,  # written as latin-1: not UTF-8
        ],
        ids=[
            "bad_json",
            "no_dims",
            "no_blocks",
            "no_dims_field",
            "no_block_field",
            "not_object",
            "not_utf8",
        ],
    )
    def test_malformed_checkpoint_is_one_line_error(self, blobs_csv, tmp_path, capsys, damage):
        from crossclust.model import ModelDims, init_params, save_checkpoint

        path = tmp_path / "damaged.json"
        stats = Standardization.of(load_csv(blobs_csv, label_column="label"))
        save_checkpoint(init_params(0, ModelDims(input_dim=5, num_clusters=3)), path, stats)
        path.write_text(damage(path.read_text()), encoding="latin-1")
        code = main(["eval", "--checkpoint", str(path), "--data", str(blobs_csv)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err and str(path) in err
        assert "Traceback" not in err


class TestReport:
    def test_single_run_rows_match_history(self, trained_dir, capsys):
        code = main(["report", "--history", str(trained_dir / "history.jsonl")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = read_history(trained_dir / "history.jsonl")
        assert lines[0] == "stage,epoch,loss,pos_pairs,acc,nmi,ari"
        assert len(lines) == len(records) + 1

    def test_multi_run_adds_run_id(self, trained_dir, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            [
                "report",
                "--history", str(trained_dir / "history.jsonl"), str(trained_dir / "history.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("run_id,")

    def test_idempotent_bytes(self, trained_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert (
                main(["report", "--history", str(trained_dir / "history.jsonl"), "--out", str(target)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_history_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "history.jsonl"
        bad.write_text('{"stage": "init", "epoch": 1, "mean_loss": 1.0, "avg_positive_pairs": 1.0}\nnot json\n')
        code = main(["report", "--history", str(bad)])
        assert code == 1
        assert "row 2" in capsys.readouterr().err


    def test_non_utf8_history_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "history.jsonl"
        bad.write_bytes(b'{"stage": "init\xff"}\n')
        code = main(["report", "--history", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad} is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_history_line_that_is_not_an_object_says_so(self, tmp_path, capsys):
        bad = tmp_path / "history.jsonl"
        bad.write_text("5\n")
        code = main(["report", "--history", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: malformed history line: expected a JSON object, got int (row 1)\n"


class TestSweep:
    def test_grid_runs_and_aggregate(self, tmp_path, blobs_csv):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--param", "zeta",
                "--values", "0.4,0.8",
                "--seeds", "0,1",
                "--data", str(blobs_csv),
                "--label-column", "label",
                "--out", str(out),
                *FAST_SWEEP,
            ]
        )
        assert code == 0
        run_dirs = sorted(p for p in out.glob("zeta=*/seed=*") if p.is_dir())
        assert len(run_dirs) == 4
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 5  # header + 4 rows
        curves = (out / "curves.csv").read_text().splitlines()
        records_per_run = 2 + 1 + 1
        assert len(curves) == 1 + 4 * records_per_run

    def test_resume_skips_completed_runs(self, tmp_path, blobs_csv):
        out = tmp_path / "sweep"
        args = [
            "sweep",
            "--param", "zeta",
            "--values", "0.5",
            "--seeds", "0,1",
            "--data", str(blobs_csv),
            "--label-column", "label",
            "--out", str(out),
            *FAST_SWEEP,
        ]
        assert main(args) == 0
        marker = out / "zeta=0.5" / "seed=0" / "checkpoint.json"
        stamp = marker.stat().st_mtime_ns
        assert main([*args, "--resume"]) == 0
        assert marker.stat().st_mtime_ns == stamp  # run not repeated
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 3

    def test_epoch0_pairs_non_increasing_in_zeta(self, tmp_path, blobs_csv):
        # the init model is zeta-independent, so the epoch-0 pair counts in the
        # aggregate must fall as the threshold rises
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--param", "zeta",
                "--values=-1,0,0.6,1",
                "--seeds", "3",
                "--data", str(blobs_csv),
                "--label-column", "label",
                "--out", str(out),
                *FAST_SWEEP,
            ]
        )
        assert code == 0
        import csv as csv_mod

        with open(out / "aggregate.csv") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [-1.0, 0.0, 0.6, 1.0]
        pairs = [float(r["epoch0_avg_positive_pairs"]) for r in rows]
        assert all(a >= b for a, b in zip(pairs, pairs[1:])), pairs
        assert pairs[0] == 2 * 16 - 1  # everything positive at zeta=-1
        assert pairs[-1] == 1.0  # twins only at zeta=1

    def test_pool_has_no_more_workers_than_runs(self, tmp_path, blobs_csv, monkeypatch):
        # with the fork start method a pool starts all its workers at the
        # first submit; this stub starts none and runs the jobs here
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = [
            "sweep",
            "--param", "gamma",
            "--values", "0.1,1.0",
            "--seeds", "0",
            "--data", str(blobs_csv),
            "--label-column", "label",
            *FAST_SWEEP,
        ]  # fmt: skip
        for jobs in ("2", "64"):
            assert main([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert sizes == [2, 2]

    def test_parallel_jobs_match_sequential(self, tmp_path, blobs_csv):
        import csv as csv_mod

        outputs = {}
        for jobs, name in (("1", "seq"), ("2", "par")):
            out = tmp_path / name
            code = main(
                [
                    "sweep",
                    "--param", "gamma",
                    "--values", "0.1,1.0",
                    "--seeds", "0",
                    "--jobs", jobs,
                    "--data", str(blobs_csv),
                    "--label-column", "label",
                    "--out", str(out),
                    *FAST_SWEEP,
                ]
            )
            assert code == 0
            with open(out / "aggregate.csv") as fh:
                rows = list(csv_mod.DictReader(fh))
            for row in rows:
                row.pop("run_dir")
            outputs[name] = rows
        assert outputs["seq"] == outputs["par"]

    @pytest.mark.parametrize(
        "param, values",
        [("zeta", ["--values", "1.5"]), ("gamma", ["--values", "0"]), ("gamma", ["--values=-1"])],
    )
    def test_out_of_range_values_are_usage_errors(self, tmp_path, blobs_csv, param, values):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--param", param,
                    *values,
                    "--seeds", "0",
                    "--data", str(blobs_csv),
                    "--out", str(tmp_path / "s"),
                ]
            )
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("seeds", ["-3", "0,-3"])
    def test_negative_seed_is_usage_error(self, tmp_path, blobs_csv, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--param", "zeta",
                    "--values", "0.5",
                    "--seeds", seeds,
                    "--data", str(blobs_csv),
                    "--out", str(tmp_path / "s"),
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: crossclust sweep ")
        assert err.splitlines()[-1] == (
            "crossclust sweep: error: --seeds: config field 'seed': must be >= 0, got -3"
        )
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "values, seeds, named",
        [
            ("0.6000001,0.6000002", "0", "--values: runs would share a directory: "
             "0.6000001, 0.6000002 -> zeta=0.6"),
            ("0.5", "0,0", "--seeds: runs would share a directory: 0, 0 -> seed=0"),
        ],
    )
    def test_runs_sharing_a_directory_are_usage_errors(
        self, tmp_path, blobs_csv, capsys, values, seeds, named
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--param", "zeta",
                    "--values", values,
                    "--seeds", seeds,
                    "--data", str(blobs_csv),
                    "--label-column", "label",
                    "--out", str(tmp_path / "s"),
                    *FAST_SWEEP,
                ]
            )
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_aggregate_and_curves_columns_are_pinned(self, tmp_path, blobs_csv, monkeypatch):
        import crossclust.cli as cli_mod
        from crossclust.trainer import EpochRecord, write_history

        def fixed_history(config, data_path, label_column, out_dir):
            out_dir.mkdir(parents=True)
            records = [
                EpochRecord("init", 1, 2.5, 1.0, acc=0.5, nmi=0.25, ari=0.125),
                EpochRecord("c3", 0, -1.5, 3.0, acc=0.6, nmi=0.3, ari=0.2),
                EpochRecord("c3", 1, -2.5, 4.5, acc=0.7, nmi=0.4, ari=0.35),
            ]
            write_history(records, out_dir / "history.jsonl")

        monkeypatch.setattr(cli_mod, "_run_training", fixed_history)
        out = tmp_path / "sweep"
        args = ["--param", "gamma", "--values", "0.5", "--seeds", "3", "--data", str(blobs_csv)]
        assert main(["sweep", *args, "--out", str(out)]) == 0
        header, row = (out / "aggregate.csv").read_text().splitlines()
        assert header == (
            "param,value,seed,status,epoch0_acc,epoch0_nmi,epoch0_ari,epoch0_avg_positive_pairs,"
            "final_acc,final_nmi,final_ari,final_avg_positive_pairs,final_loss,run_dir"
        )
        run_dir = out / "gamma=0.5" / "seed=3"
        assert row == f"gamma,0.5,3,ok,0.6,0.3,0.2,3.0,0.7,0.4,0.35,4.5,-2.5,{run_dir}"
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "param,value,seed,stage,epoch,loss,pos_pairs,acc,nmi,ari"
        assert curves[1:] == [
            "gamma,0.5,3,init,1,2.5,1.0,0.5,0.25,0.125",
            "gamma,0.5,3,c3,0,-1.5,3.0,0.6,0.3,0.2",
            "gamma,0.5,3,c3,1,-2.5,4.5,0.7,0.4,0.35",
        ]

    def test_values_obey_the_ranges_of_train(self, tmp_path, blobs_csv):
        # any positive gamma trains, as with `train --gamma`
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--param", "gamma",
                "--values", "1e-13",
                "--seeds", "0",
                "--data", str(blobs_csv),
                "--label-column", "label",
                "--out", str(out),
                *FAST_SWEEP,
            ]
        )
        assert code == 0
        assert (out / "gamma=1e-13" / "seed=0" / "summary.json").exists()

    def test_failed_run_recorded_but_aggregate_emitted(self, tmp_path, blobs_csv, monkeypatch):
        import crossclust.cli as cli_mod

        real = cli_mod._run_training

        def sabotaged(config, data_path, label_column, out_dir):
            if config.gamma > 1.0:
                raise RuntimeError("injected failure")
            return real(config, data_path, label_column, out_dir)

        monkeypatch.setattr(cli_mod, "_run_training", sabotaged)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--param", "gamma",
                "--values", "5.0,0.1",
                "--seeds", "0",
                "--data", str(blobs_csv),
                "--label-column", "label",
                "--out", str(out),
                *FAST_SWEEP,
            ]
        )
        assert code == 1
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert len(rows) == 3
        statuses = {line.split(",")[3] for line in rows[1:]}
        assert statuses == {"ok", "failed"}
        assert (out / "gamma=5" / "seed=0" / "error.txt").read_text().startswith("RuntimeError")


class TestFlags:
    def test_train_and_sweep_option_strings_are_pinned(self):
        import argparse

        from crossclust.cli import build_parser

        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        shared = {"-h", "--help", "--config", "--data", "--label-column", "--out", "--clusters",
                  "--init-epochs", "--c3-epochs", "--batch-size"}
        options = {
            name: {o for action in commands[name]._actions for o in action.option_strings}
            for name in ("train", "sweep")
        }
        assert options["train"] == shared | {"--seed", "--zeta", "--gamma", "--init-lr", "--c3-lr"}
        assert options["sweep"] == shared | {"--param", "--values", "--seeds", "--jobs", "--resume"}


class TestImportCost:
    def test_cli_import_skips_modules_of_other_commands(self):
        # PyYAML is loaded by --config only and multiprocessing by sweep --jobs;
        # every command starts a fresh interpreter, so eager imports cost each one
        probe = (
            "import sys, crossclust.cli; "
            "print(sorted(m for m in ('yaml', 'concurrent.futures') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=cli_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
