"""Command-line front end: generate | train | eval | sweep | report.

Every command exits 0 only when its postcondition was fully met; diagnostics
go to stderr and data to stdout or files.  ``CROSSCLUST_OUT`` sets the
default output root when --out is omitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

from .config import TrainConfig, load_config
from .data import generate_blobs, load_csv, save_csv, standardize
from .errors import ConfigError, CrossclustError
from .model import load_checkpoint, save_checkpoint
from .trainer import evaluate, read_history, train, write_history

ENV_OUT_ROOT = "CROSSCLUST_OUT"


def _out_root() -> Path:
    return Path(os.environ.get(ENV_OUT_ROOT, "crossclust-runs"))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossclust",
        description="Two-stage contrastive clustering for vector datasets.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic Gaussian-blobs CSV")
    gen.add_argument("--n", type=int, default=1000, help="number of samples")
    gen.add_argument("--d", type=int, default=16, help="number of features")
    gen.add_argument("--clusters", type=int, default=5, help="number of clusters (>= 2)")
    gen.add_argument("--sep", type=float, default=6.0, help="min center distance in sigmas")
    gen.add_argument("--sigma", type=float, default=1.0, help="within-cluster std")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output CSV path")

    tr = sub.add_parser("train", help="run both training stages and write artifacts")
    tr.add_argument("--config", type=Path, default=None, help="YAML config file")
    tr.add_argument("--data", type=Path, required=True, help="input CSV")
    tr.add_argument("--label-column", default=None, help="truth label column (evaluation only)")
    tr.add_argument("--out", type=Path, default=None, help="output directory")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--clusters", type=int, default=None, help="override config M")
    tr.add_argument("--zeta", type=float, default=None)
    tr.add_argument("--gamma", type=float, default=None)
    tr.add_argument("--init-epochs", type=int, default=None)
    tr.add_argument("--c3-epochs", type=int, default=None)
    tr.add_argument("--init-lr", type=float, default=None)
    tr.add_argument("--c3-lr", type=float, default=None)
    tr.add_argument("--batch-size", type=int, default=None)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--data", type=Path, required=True)
    ev.add_argument("--label-column", default=None)

    sw = sub.add_parser("sweep", help="grid of train runs over zeta or gamma")
    sw.add_argument("--param", choices=("gamma", "zeta"), required=True)
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--seeds", required=True, help="comma-separated seeds")
    sw.add_argument("--config", type=Path, default=None)
    sw.add_argument("--data", type=Path, required=True)
    sw.add_argument("--label-column", default=None)
    sw.add_argument("--out", type=Path, default=None, help="sweep output directory")
    sw.add_argument("--jobs", type=int, default=1, help="parallel runs")
    sw.add_argument("--resume", action="store_true", help="skip completed run directories")
    sw.add_argument("--clusters", type=int, default=None)
    sw.add_argument("--init-epochs", type=int, default=None)
    sw.add_argument("--c3-epochs", type=int, default=None)
    sw.add_argument("--batch-size", type=int, default=None)

    rp = sub.add_parser("report", help="flatten history files into a tidy CSV")
    rp.add_argument("--history", type=Path, nargs="+", required=True)
    rp.add_argument("--out", type=Path, default=None, help="output CSV (default stdout)")
    return parser


def _load_train_config(args, parser) -> TrainConfig:
    config = load_config(args.config) if args.config else TrainConfig()
    overrides = {
        "seed": getattr(args, "seed", None),
        "M": getattr(args, "clusters", None),
        "zeta": getattr(args, "zeta", None),
        "gamma": getattr(args, "gamma", None),
        "init_epochs": getattr(args, "init_epochs", None),
        "c3_epochs": getattr(args, "c3_epochs", None),
        "init_lr": getattr(args, "init_lr", None),
        "c3_lr": getattr(args, "c3_lr", None),
        "batch_size": getattr(args, "batch_size", None),
    }
    return config.override(**overrides)


def _run_training(config: TrainConfig, data_path, label_column, out_dir: Path) -> dict:
    dataset = standardize(load_csv(data_path, label_column=label_column))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    params, records = train(config, dataset)
    wall = time.monotonic() - started
    checkpoint = out_dir / "checkpoint.json"
    history_path = out_dir / "history.jsonl"
    save_checkpoint(params, checkpoint)
    write_history(records, history_path)
    final = evaluate(params, dataset)
    summary = {
        "config": config.to_dict(),
        "data": str(data_path),
        "final": final,
        "epochs_recorded": len(records),
        "checkpoint": checkpoint.name,
        "history": history_path.name,
        "wall_time_s": wall,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def cmd_generate(args, parser) -> int:
    if args.clusters < 2:
        parser.error("--clusters must be >= 2")
    if args.n < args.clusters:
        parser.error("--n must be >= --clusters")
    if args.sep <= 0 or args.sigma <= 0:
        parser.error("--sep and --sigma must be positive")
    out = args.out or _out_root() / "blobs.csv"
    dataset = generate_blobs(args.seed, args.n, args.d, args.clusters, args.sep, args.sigma)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    _log(f"wrote {dataset.n} samples x {dataset.d} features to {out}")
    return 0


def cmd_train(args, parser) -> int:
    config = _load_train_config(args, parser)
    out_dir = args.out or _out_root() / "train"
    summary = _run_training(config, args.data, args.label_column, out_dir)
    _log(f"training complete; artifacts in {out_dir}")
    _log(f"final: {json.dumps(summary['final'], sort_keys=True)}")
    return 0


def cmd_eval(args, parser) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = standardize(load_csv(args.data, label_column=args.label_column))
    result = evaluate(params, dataset)
    if "acc" not in result:
        _log("dataset has no truth labels; reporting cluster sizes and assignment entropy only")
    print(json.dumps(result, sort_keys=True))
    return 0


def _status_row(job: dict, status: str = "ok", message: str = "") -> dict:
    """The status row of a sweep job that ran or that --resume skipped."""
    config = job["config"]
    return {
        "param": job["param"],
        "value": getattr(config, job["param"]),
        "seed": config.seed,
        "status": status,
        "message": message,
        "run_dir": str(job["run_dir"]),
    }


def _sweep_job(job: dict) -> dict:
    """One (value, seed) training run; returns its status row.  Top level so
    it pickles for process pools."""
    run_dir = job["run_dir"]
    try:
        _run_training(job["config"], job["data"], job["label_column"], run_dir)
    except Exception as exc:  # per-run isolation: a bad run must not kill the sweep
        message = f"{type(exc).__name__}: {exc}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "error.txt").write_text(message + "\n", encoding="utf-8")
        return _status_row(job, "failed", message)
    return _status_row(job)


def _aggregate_row(base: dict) -> dict:
    row = dict(base)
    row.pop("message", None)
    for col in (
        "epoch0_acc",
        "epoch0_nmi",
        "epoch0_ari",
        "epoch0_avg_positive_pairs",
        "final_acc",
        "final_nmi",
        "final_ari",
        "final_avg_positive_pairs",
        "final_loss",
    ):
        row[col] = ""
    if base["status"] != "ok":
        return row
    records = read_history(Path(base["run_dir"]) / "history.jsonl")
    c3 = [r for r in records if r.stage == "c3"]
    if c3:
        first, last = c3[0], c3[-1]
        row["epoch0_acc"] = first.acc
        row["epoch0_nmi"] = first.nmi
        row["epoch0_ari"] = first.ari
        row["epoch0_avg_positive_pairs"] = first.avg_positive_pairs
        row["final_acc"] = last.acc
        row["final_nmi"] = last.nmi
        row["final_ari"] = last.ari
        row["final_avg_positive_pairs"] = last.avg_positive_pairs
        row["final_loss"] = last.mean_loss
    return row


_AGGREGATE_COLUMNS = [
    "param",
    "value",
    "seed",
    "status",
    "epoch0_acc",
    "epoch0_nmi",
    "epoch0_ari",
    "epoch0_avg_positive_pairs",
    "final_acc",
    "final_nmi",
    "final_ari",
    "final_avg_positive_pairs",
    "final_loss",
    "run_dir",
]

_CURVE_COLUMNS = ["param", "value", "seed", "stage", "epoch", "loss", "pos_pairs", "acc", "nmi", "ari"]


def _record_row(record) -> dict:
    return {
        "stage": record.stage,
        "epoch": record.epoch,
        "loss": record.mean_loss,
        "pos_pairs": record.avg_positive_pairs,
        "acc": "" if record.acc is None else record.acc,
        "nmi": "" if record.nmi is None else record.nmi,
        "ari": "" if record.ari is None else record.ari,
    }


def cmd_sweep(args, parser) -> int:
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    except ValueError:
        parser.error("--values and --seeds must be comma-separated numbers")
    if not values or not seeds:
        parser.error("--values and --seeds must be non-empty")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    base_config = _load_train_config(args, parser)
    try:  # sweep values obey the same ranges as train's flags
        configs = [base_config.override(**{args.param: value}) for value in values]
    except ConfigError as exc:
        parser.error(f"--values: {exc}")
    out_dir = args.out or _out_root() / "sweep"
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = []
    skipped = []
    for value, config in zip(values, configs):
        for seed in seeds:
            run_dir = out_dir / f"{args.param}={value:g}" / f"seed={seed}"
            job = {
                "param": args.param,
                "config": config.override(seed=seed),
                "data": str(args.data),
                "label_column": args.label_column,
                "run_dir": run_dir,
            }
            if args.resume and (run_dir / "summary.json").exists():
                skipped.append(_status_row(job))
            else:
                jobs.append(job)

    if args.jobs > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_job, jobs))
    else:
        results = [_sweep_job(job) for job in jobs]
    for result in results:
        level = "done" if result["status"] == "ok" else "FAILED"
        _log(f"[{level}] {result['param']}={result['value']:g} seed={result['seed']}")
    all_rows = skipped + results
    all_rows.sort(key=lambda r: (r["value"], r["seed"]))

    with open(out_dir / "aggregate.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_AGGREGATE_COLUMNS)
        writer.writeheader()
        for base in all_rows:
            writer.writerow(_aggregate_row(base))
    with open(out_dir / "curves.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CURVE_COLUMNS)
        writer.writeheader()
        for base in all_rows:
            if base["status"] != "ok":
                continue
            for record in read_history(Path(base["run_dir"]) / "history.jsonl"):
                row = {"param": base["param"], "value": base["value"], "seed": base["seed"]}
                row.update(_record_row(record))
                writer.writerow(row)
    failed = [r for r in all_rows if r["status"] != "ok"]
    _log(f"sweep complete: {len(all_rows) - len(failed)} ok, {len(failed)} failed; " f"aggregate in {out_dir}")
    return 0 if not failed else 1


def cmd_report(args, parser) -> int:
    multi = len(args.history) > 1
    columns = (["run_id"] if multi else []) + ["stage", "epoch", "loss", "pos_pairs", "acc", "nmi", "ari"]
    rows = []
    for path in args.history:
        run_id = path.parent.name or path.stem
        for record in read_history(path):
            row = {"run_id": run_id} if multi else {}
            row.update(_record_row(record))
            rows.append(row)
    if args.out:
        fh = open(args.out, "w", encoding="utf-8", newline="")
    else:
        fh = sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            fh.close()
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (CrossclustError, OSError, RuntimeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
