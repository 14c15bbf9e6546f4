"""End-to-end and per-layer benchmark for crossclust.

Usage (from the repository root):

    python3 benchmarks/run.py --workload protocol_b128 --seed 1 --seconds 60 --trace 0

Workloads (see BENCHMARK.json and benchmarks/README.md for why each exists):

- ``protocol_b128``: ``crossclust train`` on the acceptance-protocol blobs
  (n=2000, d=32, M=5, sep=6, sigma=1) at batch 128, then ``crossclust eval``
  of its checkpoint on a 100 000-row labeled CSV from the same centers;
- ``wide_b512``: the same training data and config at batch 512, then
  ``crossclust eval`` of its checkpoint on the training rows;
- ``all`` runs the two in turn.

Inputs come from ``generate_blobs(seed)`` written with ``save_csv``; the
program only sees the files.  Every CLI command runs in a fresh interpreter
(``child.py``), as a user would run it, so set-up (interpreter start, imports,
``load_csv``, ``standardize``, ``load_checkpoint``) is paid and measured each
time.  Rounds of one train command and one eval of its checkpoint repeat
until ``--seconds`` have passed (at least three rounds).  Work timings are
the minimum over a run's passing repeats, since interference from the host
only adds time; ``setup_s`` (both commands of a round) and ``peak_rss_mb``
(the larger process of a round) are medians over rounds.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the line holds the
per-layer metrics of a traced round, both commands together.  Every repeat
must pass the correctness and determinism gates; a repeat that fails counts
in ``failed``.  BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Acceptance-protocol data and thresholds (zeta, gamma are the config defaults).
PROTOCOL = dict(d=32, clusters=5, separation=6.0, sigma=1.0)
ZETA, GAMMA = 0.6, 0.1


@dataclass(frozen=True)
class Scale:
    n: int  # training rows
    eval_rows: int  # rows of the large eval CSV
    init_epochs: int
    c3_epochs: int
    batch: dict  # workload -> batch size of its training command


FULL = Scale(
    n=2000,
    eval_rows=100_000,
    init_epochs=8,
    c3_epochs=3,
    batch={"protocol_b128": 128, "wide_b512": 512},
)
TINY = Scale(
    n=256,
    eval_rows=1000,
    init_epochs=1,
    c3_epochs=1,
    batch={"protocol_b128": 32, "wide_b512": 128},
)

# Workload -> whether its eval command reads the large CSV (else the training rows).
LARGE_EVAL = {"protocol_b128": True, "wide_b512": False}
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60.0

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "init_epoch_s": "s",
    "c3_epoch_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MiB",
    "ok_rate": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run or cannot produce its metrics."""


@dataclass
class Repeat:
    command: str
    traced: bool
    spawned: float
    round: int = -1
    child: dict | None = None
    failure: str | None = None  # first failed check, if any
    gate: str = "correctness"  # the gate that check belongs to
    hashes: tuple = ()

    def timing(self, marker: str) -> float:
        return self.child["stats"][marker][4]

    @property
    def setup_s(self) -> float:
        return self.timing(_setup_marker(self.command)) - self.spawned

    @property
    def work_s(self) -> float:
        return self.child["work_done"] - self.timing(_setup_marker(self.command))

    def total_s(self, name: str) -> float:
        return self.child["stats"][name][1]


def _setup_marker(command: str) -> str:
    return "trainer.train" if command == "train" else "trainer.evaluate"


@dataclass
class Run:
    workload: str
    seed: int
    scale: Scale
    work: Path
    repeats: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)  # command -> acc/nmi/ari of its first passing repeat

    def rounds(self, traced: bool) -> list:
        """(train, eval) pairs of the rounds in which both commands passed."""
        by_round = {}
        for r in self.repeats:
            if r.traced == traced and r.failure is None:
                by_round.setdefault(r.round, {})[r.command] = r
        return [(p["train"], p["eval"]) for p in by_round.values() if len(p) == 2]


# ---------------------------------------------------------------- environment


def _loadavg():
    try:
        fields = Path("/proc/loadavg").read_text().split()
    except OSError:
        return None
    return {"1m": float(fields[0]), "5m": float(fields[1]), "running/total": fields[3]}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": usable_cpus,
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "loadavg_before": _loadavg(),
    }


def finish_environment(env: dict) -> None:
    """Add the closing load average and flag runs taken on a busy machine.

    The benchmark's own children keep about nproc threads runnable, so a
    1-minute load above nproc + 1 means other work shared the CPUs.
    """
    env["loadavg_after"] = _loadavg()
    loads = [la["1m"] for la in (env["loadavg_before"], env["loadavg_after"]) if la]
    env["busy"] = bool(loads) and max(loads) > env["nproc"] + 1


# ---------------------------------------------------------------- children


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(command: str, cli_args: list, traced: bool) -> Repeat:
    """Run one CLI command in a fresh interpreter; failures land in ``failure``."""
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), "1" if traced else "0", "--"]
    repeat = Repeat(command=command, traced=traced, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            argv + [command] + cli_args,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        repeat.failure = f"timed out after {CHILD_TIMEOUT_S:g} s"
        return repeat
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        repeat.failure = f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return repeat
    try:
        repeat.child = json.loads(lines[-1])
    except ValueError:
        repeat.failure = f"child printed no report: {lines[-1][:200]!r}"
        return repeat
    if repeat.child["exit_code"] != 0:
        repeat.failure = f"exit code {repeat.child['exit_code']}: {proc.stderr.strip()[-400:]}"
    elif repeat.child["stats"].get(_setup_marker(command), [0])[0] == 0:
        repeat.failure = f"crossclust {command} never called {_setup_marker(command)}"
    return repeat


def _chance(data) -> float:
    """Accuracy of labeling every row alike: the largest true cluster's share (1/M when balanced)."""
    return np.bincount(data.truth.labels).max() / data.n


def check_train(run: Run, repeat: Repeat, out_dir: Path, data) -> None:
    """Correctness gates on one training run; records the first failure."""
    history = out_dir / "history.jsonl"
    checkpoint = out_dir / "checkpoint.json"
    records = [json.loads(line) for line in history.read_text().splitlines() if line.strip()]
    expected_records = run.scale.init_epochs + run.scale.c3_epochs + 1
    final = json.loads((out_dir / "summary.json").read_text())["final"]
    repeat.hashes = (_sha256(history), _sha256(checkpoint))
    values = [r[k] for r in records for k in ("mean_loss", "acc", "nmi", "ari") if k in r]
    if len(records) != expected_records:
        repeat.failure = f"history has {len(records)} records, expected {expected_records}"
    elif not all(math.isfinite(v) for v in values):
        repeat.failure = "history holds a non-finite loss or metric"
    elif final["acc"] <= _chance(data):
        repeat.failure = f"final acc {final['acc']} is at or below chance"
    else:
        run.quality.setdefault("train", final)


def check_eval(run: Run, repeat: Repeat, data, expected: dict | None) -> None:
    """``expected`` is the training run's own final metrics on the same rows;
    without it (the large CSV) the first passing eval is the reference."""
    result = json.loads(repeat.child["stdout"])
    reference = expected if expected is not None else run.quality.get("eval")
    if reference is not None and result != reference:
        if expected is not None:
            repeat.failure = "eval JSON differs from the training run's final metrics on the same rows"
        else:
            repeat.failure = "eval JSON differs from the first eval of this checkpoint"
            repeat.gate = "determinism"
    elif result["acc"] <= _chance(data):
        repeat.failure = f"eval acc {result['acc']} is at or below chance"
    else:
        run.quality.setdefault("eval", result)


def _gate(check, run: Run, repeat: Repeat, *args) -> None:
    """Run one check; output that cannot be read fails the repeat."""
    try:
        check(run, repeat, *args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        repeat.failure = f"unreadable output: {type(exc).__name__}: {exc}"


def check_determinism(repeats: list) -> None:
    """Every training repeat of one seed must write byte-identical history and checkpoint."""
    hashed = [r for r in repeats if r.failure is None and r.hashes]
    for r in hashed[1:]:
        if r.hashes != hashed[0].hashes:
            r.failure = "history or checkpoint differs from the first repeat of this seed"
            r.gate = "determinism"


# ---------------------------------------------------------------- workloads


def prepare(run: Run):
    """Write the workload's inputs; return (train CSV, train data, eval CSV, eval data)."""
    from crossclust.data import generate_blobs, save_csv

    train_data = generate_blobs(run.seed, run.scale.n, **PROTOCOL)
    train_csv = run.work / "train.csv"
    save_csv(train_data, train_csv)
    if not LARGE_EVAL[run.workload]:
        return train_csv, train_data, train_csv, train_data
    # Centers depend only on the seed, so both files hold the same clusters.
    eval_data = generate_blobs(run.seed, run.scale.eval_rows, **PROTOCOL)
    eval_csv = run.work / "eval.csv"
    save_csv(eval_data, eval_csv)
    return train_csv, train_data, eval_csv, eval_data


def measure(run: Run, seconds: float, trace: bool) -> None:
    train_csv, train_data, eval_csv, eval_data = prepare(run)
    scale = run.scale
    train_args = [
        "--data", str(train_csv), "--label-column", "label",
        "--clusters", str(PROTOCOL["clusters"]), "--seed", str(run.seed),
        "--zeta", str(ZETA), "--gamma", str(GAMMA),
        "--init-epochs", str(scale.init_epochs), "--c3-epochs", str(scale.c3_epochs),
        "--batch-size", str(scale.batch[run.workload]),
    ]  # fmt: skip

    large = LARGE_EVAL[run.workload]

    def step(index, traced):
        """One round: a train command, then an eval of its checkpoint."""
        out_dir = run.work / f"train-{index}"
        train = spawn("train", train_args + ["--out", str(out_dir)], traced)
        train.round = index
        if train.failure is None:
            _gate(check_train, run, train, out_dir, train_data)
        run.repeats.append(train)
        if train.failure is not None:
            return
        expected = None if large else json.loads((out_dir / "summary.json").read_text())["final"]
        args = ["--checkpoint", str(out_dir / "checkpoint.json"), "--data", str(eval_csv)]
        evaluation = spawn("eval", args + ["--label-column", "label"], traced)
        evaluation.round = index
        if evaluation.failure is None:
            _gate(check_eval, run, evaluation, eval_data, expected)
        run.repeats.append(evaluation)

    # With tracing, untraced and traced rounds alternate.
    min_rounds = 2 * MIN_ROUNDS - 2 if trace else MIN_ROUNDS
    start = time.monotonic()
    rounds = 0
    while True:
        step(rounds, trace and rounds % 2 == 1)
        rounds += 1
        now = time.monotonic()
        if rounds >= min_rounds and now + (now - start) / rounds > start + seconds:
            break
    check_determinism([r for r in run.repeats if r.command == "train"])


# ---------------------------------------------------------------- metrics


def _values(values) -> list:
    values = list(values)
    if not values:
        raise BenchmarkError("no passing repeat to take a statistic over")
    return values


def _median(values) -> float:
    return statistics.median(_values(values))


def _best(values) -> float:
    """Minimum over repeats: the host's interference only ever adds time."""
    return min(_values(values))


def _timed(run: Run, command: str, traced: bool = False) -> list:
    """Passing repeats of one command; failed ones count only in ``failed``."""
    return [
        r
        for r in run.repeats
        if r.command == command and r.traced == traced and r.failure is None
    ]


def end_to_end(run: Run) -> dict:
    rounds = run.rounds(traced=False)
    train = _timed(run, "train")
    scale = run.scale
    failed = sum(r.failure is not None for r in run.repeats)
    values = {
        "setup_s": _median(t.setup_s + e.setup_s for t, e in rounds),
        "init_epoch_s": _best(r.total_s("trainer.train_init") / scale.init_epochs for r in train),
        "c3_epoch_s": _best(r.total_s("trainer.train_c3") / (scale.c3_epochs + 1) for r in train),
        "train_s": _best(r.work_s for r in train),
        "eval_s": _best(r.work_s for r in _timed(run, "eval")),
        "peak_rss_mb": _median(max(t.child["max_rss_kb"], e.child["max_rss_kb"]) / 1024 for t, e in rounds),
        "ok_rate": 1.0 - failed / len(run.repeats),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _merge(children) -> dict:
    """One round's traced children as one: stats and counters summed, allocation peaks maxed."""
    merged = {"stats": {}, "counters": {}, "peak_alloc": {}}
    for child in children:
        for name, stat in child["stats"].items():
            total = merged["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                total[i] += stat[i]
        for key, count in child["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + count
        for name, peak in child["peak_alloc"].items():
            merged["peak_alloc"][name] = max(merged["peak_alloc"].get(name, 0), peak)
    return merged


def per_layer(run: Run) -> dict:
    from layers import LAYER_NAMES

    traced = [_merge(r.child for r in pair) for pair in run.rounds(traced=True)]
    if not traced:
        raise BenchmarkError("no round whose traced commands both passed")

    def med(fn):
        return _median(fn(c) for c in traced)

    def stat(c, name, index):
        return c["stats"].get(name, [0, 0.0, 0.0, 0])[index]

    def counter(c, key):
        return c["counters"].get(key, 0)

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (med(lambda c: stat(c, name, 0)), "count")
        metrics[f"{name}.busy_s"] = (med(lambda c: stat(c, name, 2)), "s")
        metrics[f"{name}.errors"] = (sum(stat(c, name, 3) for c in traced), "count")
    metrics["augment.us_per_row"] = (
        med(lambda c: 1e6 * _ratio(stat(c, "augment.augment_batch", 2), counter(c, "augment_rows"))),
        "us",
    )
    metrics["model.forward.rows"] = (med(lambda c: counter(c, "forward_rows")), "count")
    metrics["numerics.similarity_matrix.gflops"] = (
        med(lambda c: 1e-9 * _ratio(counter(c, "similarity_flops"), stat(c, "numerics.similarity_matrix", 2))),
        "GFLOP/s",
    )
    for name in ("losses.c3_loss", "losses.init_instance_loss"):
        metrics[f"{name}.peak_alloc_mb"] = (med(lambda c: c["peak_alloc"].get(name, 0) / 2**20), "MiB")
    metrics["data.load_csv.rows_per_s"] = (
        med(lambda c: _ratio(counter(c, "load_csv_rows"), stat(c, "data.load_csv", 2))),
        "rows/s",
    )
    # Bytes per checkpoint written or read: the train saves it, the eval loads it.
    metrics["model.checkpoint_bytes"] = (
        med(lambda c: _ratio(
            counter(c, "checkpoint_bytes"),
            stat(c, "model.save_checkpoint", 0) + stat(c, "model.load_checkpoint", 0),
        )),
        "bytes",
    )  # fmt: skip
    metrics["trace.overhead_s"] = (
        _best(r.work_s for r in _timed(run, "train", traced=True))
        - _best(r.work_s for r in _timed(run, "train")),
        "s",
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------- entry point


def run_workload(workload, seed, seconds, trace, scale) -> dict:
    work = WORK_ROOT / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload=workload, seed=seed, scale=scale, work=work)
    try:
        env = environment()
        measure(run, seconds, trace)
        finish_environment(env)
        metrics = per_layer(run) if trace else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in run.repeats if r.failure]
    gates = {
        gate: "FAIL" if any(r.gate == gate for r in failed) else "PASS"
        for gate in ("correctness", "determinism")
    }
    samples = {}  # command -> [(round, setup_s, work_s)] per passing repeat
    for r in run.repeats:
        if r.failure is None:
            key = r.command + ("-traced" if r.traced else "")
            samples.setdefault(key, []).append((r.round, round(r.setup_s, 4), round(r.work_s, 4)))
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "gates": gates,
        "failures": [f"{r.command} ({r.gate}): {r.failure}" for r in failed],
        "counter_errors": sum(r.child["counter_errors"] for r in run.repeats if r.child),
        "quality": run.quality,
        "samples": samples,
    }
    print(json.dumps(report, sort_keys=True))
    print(f"# {workload} seed={seed} trace={int(trace)} busy_machine={env['busy']}")
    for command, result in run.quality.items():
        print(f"# {command}: final_acc={result['acc']:.4f} final_nmi={result['nmi']:.4f}")
    print(
        f"# gates: correctness={gates['correctness']} determinism={gates['determinism']}"
        f" ({len(run.repeats) - len(failed)}/{len(run.repeats)} repeats ok)"
    )
    for name, metric in metrics.items():
        print(f"#   {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": not failed,
        "attempted": len(run.repeats),
        "failed": len(failed),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(LARGE_EVAL) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossclust" / "__init__.py").is_file():
        print(f"error: crossclust sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scale = TINY if args.tiny else FULL
    workloads = list(LARGE_EVAL) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), scale
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
