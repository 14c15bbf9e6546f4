import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crossclust
from crossclust.cli import main
from crossclust.data import load_csv
from crossclust.trainer import read_history

BLOBS_ARGS = ["--n", "60", "--d", "5", "--clusters", "3", "--sep", "6", "--sigma", "1", "--seed", "7"]
FAST_SWEEP = [
    "--init-epochs", "2",
    "--c3-epochs", "1",
    "--batch-size", "16",
    "--clusters", "3",
]
FAST_TRAIN = [*FAST_SWEEP, "--seed", "0"]


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
        from crossclust import data

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
            monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
            args = ["--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(large)]
            assert main(["eval", *args, "--label-column", "label"]) == 0
            outputs.append(capsys.readouterr().out)
        assert parsed[0] is None and parsed[1] is not None
        assert outputs[1] == outputs[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_row_standardized_to_zero_is_labeled(self, tmp_path, capsys):
        # untrained params have zero biases, so a row at the column means has y_z = 0
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("a,b\n0.0,1.0\n1.0,0.0\n2.0,3.0\n3.0,2.0\n")
        out = tmp_path / "run"
        flags = ["--init-epochs", "0", "--c3-epochs", "0", "--batch-size", "2", "--clusters", "2"]
        assert main(["train", "--data", str(train_csv), "--out", str(out), *flags]) == 0
        eval_csv = tmp_path / "eval.csv"
        eval_csv.write_text("a,b\n0.0,0.0\n1.0,-1.0\n-1.0,1.0\n")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(eval_csv)])
        assert code == 0, capsys.readouterr().err
        assert sum(json.loads(capsys.readouterr().out)["cluster_sizes"]) == 3

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
        save_checkpoint(init_params(0, ModelDims(input_dim=5, num_clusters=3)), path)
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


class TestImportCost:
    def test_cli_import_skips_modules_of_other_commands(self):
        # PyYAML is loaded by --config only and multiprocessing by sweep --jobs;
        # every command starts a fresh interpreter, so eager imports cost each one
        src = str(Path(crossclust.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = (
            "import sys, crossclust.cli; "
            "print(sorted(m for m in ('yaml', 'concurrent.futures') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
