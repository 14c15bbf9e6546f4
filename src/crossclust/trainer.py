"""Two-stage training orchestration.

Stage "init" trains encoder and both heads with the paired instance-level
and cluster-level contrastive objectives.  Stage "c3" refines the embedding
space with the weighted cross-instance loss; only the encoder and instance
head receive gradients there (the loss depends on z alone), though cluster
predictions still move because the shared features move.

Randomness is derived positionally from the master seed: every epoch owns
independent shuffle and augmentation streams keyed by (stage, epoch, batch),
so runs are reproducible batch for batch and the stage-c3 epoch-0
evaluation pass never perturbs later draws.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .augment import augment_batch
from .config import TrainConfig
from .data import Dataset
from .errors import ConfigError, CsvFormatError, DegenerateRowError, NonFiniteError
from .losses import c3_objective, chain_to_embeddings, init_cluster_loss, instance_objective
from .metrics import Partition, accuracy, ari, nmi
from .model import (
    AdamState,
    ModelDims,
    ModelParams,
    adam_step,
    backward,
    cluster_probabilities,
    forward,
    init_params,
)
from .numerics import entropy

STAGE_INIT = "init"
STAGE_C3 = "c3"
_STAGE_IDS = {"params": 0, STAGE_INIT: 1, STAGE_C3: 2}


@dataclass(frozen=True)
class EpochRecord:
    stage: str
    epoch: int
    mean_loss: float
    avg_positive_pairs: float
    acc: float | None = None
    nmi: float | None = None
    ari: float | None = None

    def to_json_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None}
        return out


@dataclass
class RunHistory:
    config: dict
    records: list[EpochRecord] = field(default_factory=list)


def write_history(records, path) -> None:
    """Serialize records as JSON lines, one EpochRecord per line."""
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_history(path) -> list[EpochRecord]:
    records = []
    valid = set(EpochRecord.__dataclass_fields__)
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict) or not set(raw) <= valid:
                raise ValueError(f"unexpected fields {sorted(set(raw) - valid)}")
            records.append(EpochRecord(**raw))
        except (ValueError, TypeError) as exc:
            raise CsvFormatError(f"malformed history line: {exc}", row=line_no) from None
    return records


def _seed_of(config: TrainConfig, seed) -> int:
    return config.seed if seed is None else int(seed)


def _stream(seed: int, stage: str, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(_STAGE_IDS[stage], *key))


def _batch_key(seed: int, stage: str, epoch: int, batch: int) -> int:
    return int(_stream(seed, stage, epoch, 1, batch).generate_state(1, dtype=np.uint64)[0])


def _epoch_batches(seed: int, stage: str, epoch: int, n: int, batch_size: int):
    """Shuffled full batches; the trailing partial batch is dropped."""
    rng = np.random.default_rng(_stream(seed, stage, epoch, 0))
    perm = rng.permutation(n)
    for b in range(n // batch_size):
        yield b, perm[b * batch_size : (b + 1) * batch_size]


def _model_dims(config: TrainConfig, data: Dataset) -> ModelDims:
    if config.dims.input_dim is not None and config.dims.input_dim != data.d:
        raise ConfigError(
            "dims.input_dim",
            f"configured {config.dims.input_dim} but dataset has {data.d} features",
        )
    return ModelDims(
        input_dim=data.d,
        encoder_hidden=config.dims.hidden,
        z_dim=config.dims.z_dim,
        num_clusters=config.M,
    )


def _check_batching(config: TrainConfig, data: Dataset) -> None:
    if data.n < config.batch_size:
        raise ConfigError(
            "batch_size",
            f"batch_size {config.batch_size} exceeds dataset size {data.n}",
        )


def _abort_diagnostic(stage, epoch, batch, parts):
    detail = ", ".join(f"{k}={v!r}" for k, v in parts.items())
    return NonFiniteError(
        f"non-finite loss in stage '{stage}' at epoch {epoch}, batch {batch}: {detail}"
    )


def _batch_forward(params, x_a, x_b, stage, epoch, batch, idx):
    """``forward`` on both views stacked.  A zero-norm instance embedding is
    re-raised naming the stage, epoch, batch, view and dataset row."""
    try:
        return forward(params, np.vstack([x_a, x_b]))
    except DegenerateRowError as exc:
        n = len(idx)
        row = int(idx[exc.row % n])
        raise DegenerateRowError(
            row,
            f"zero-norm instance embedding in stage '{stage}' at epoch {epoch}, "
            f"batch {batch}: view {'ab'[exc.row // n]} of dataset row {row}",
        ) from None


def predict(params: ModelParams, x) -> Partition:
    """Hard cluster labels: argmax of the assignment probabilities, ties to the lowest index."""
    labels = np.argmax(cluster_probabilities(params, x), axis=1)
    return Partition(labels, params.dims.num_clusters)


def evaluate(params: ModelParams, data: Dataset) -> dict:
    """Metrics against truth labels, or an unlabeled report (sizes + entropy)."""
    pred = predict(params, data.X)
    sizes = np.bincount(pred.labels, minlength=pred.num_clusters)
    out = {"cluster_sizes": [int(s) for s in sizes]}
    if data.truth is not None:
        out["acc"] = accuracy(pred, data.truth)
        out["nmi"] = nmi(pred, data.truth)
        out["ari"] = ari(pred, data.truth)
    else:
        out["assignment_entropy"] = entropy(sizes / pred.labels.size)
    return out


def _record(stage, epoch, mean_loss, pairs, metrics) -> EpochRecord:
    return EpochRecord(
        stage=stage,
        epoch=epoch,
        mean_loss=mean_loss,
        avg_positive_pairs=pairs,
        acc=metrics.get("acc"),
        nmi=metrics.get("nmi"),
        ari=metrics.get("ari"),
    )


def train_init(
    config: TrainConfig, data: Dataset, seed=None
) -> tuple[ModelParams, list[EpochRecord]]:
    """Initialization stage: instance + cluster contrastive losses, summed."""
    config.validate()
    seed = _seed_of(config, seed)
    dims = _model_dims(config, data)
    params = init_params(_stream(seed, "params"), dims)
    if config.init_epochs == 0:
        return params, []
    _check_batching(config, data)
    state = AdamState.zeros(params)
    records = []
    x = data.X
    for epoch in range(1, config.init_epochs + 1):
        losses = []
        pairs = []
        for b, idx in _epoch_batches(seed, STAGE_INIT, epoch, data.n, config.batch_size):
            key = _batch_key(seed, STAGE_INIT, epoch, b)
            x_a, x_b = augment_batch(config.augment, x[idx], key, row_keys=idx)
            cache = _batch_forward(params, x_a, x_b, STAGE_INIT, epoch, b, idx)
            n = len(idx)
            loss_inst, d_s, count = instance_objective(cache.z, config.tau_I, config.zeta)
            loss_clu, d_ca, d_cb = init_cluster_loss(cache.c[:n], cache.c[n:], config.tau_C)
            loss = loss_inst + loss_clu
            if not np.isfinite(loss):
                raise _abort_diagnostic(
                    STAGE_INIT, epoch, b, {"instance": loss_inst, "cluster": loss_clu}
                )
            d_z = chain_to_embeddings(d_s, cache.z)
            del d_s  # the step's one 2N x 2N buffer: none is alive in backward
            grads = backward(params, cache, d_z, np.vstack([d_ca, d_cb]))
            params, state = adam_step(params, grads, state, lr=config.init_lr)
            losses.append(loss)
            pairs.append(count)
        metrics = evaluate(params, data) if data.truth is not None else {}
        records.append(
            _record(STAGE_INIT, epoch, float(np.mean(losses)), float(np.mean(pairs)), metrics)
        )
    return params, records


def _c3_pass(params, config, data, seed, epoch, state):
    """One pass over the shuffled batches; updates params only when state is given."""
    update = state is not None
    losses = []
    pairs = []
    x = data.X
    for b, idx in _epoch_batches(seed, STAGE_C3, epoch, data.n, config.batch_size):
        key = _batch_key(seed, STAGE_C3, epoch, b)
        x_a, x_b = augment_batch(config.augment, x[idx], key, row_keys=idx)
        cache = _batch_forward(params, x_a, x_b, STAGE_C3, epoch, b, idx)
        loss, d_s, count = c3_objective(cache.z, config.zeta, config.gamma)
        if not np.isfinite(loss):
            raise _abort_diagnostic(STAGE_C3, epoch, b, {"c3": loss})
        losses.append(loss)
        pairs.append(count)
        d_z = chain_to_embeddings(d_s, cache.z) if update else None
        del d_s  # the step's one 2N x 2N buffer: none is alive in backward
        if update:
            grads = backward(params, cache, d_z, np.zeros_like(cache.c))
            params, state = adam_step(params, grads, state, lr=config.c3_lr)
    return params, state, float(np.mean(losses)), float(np.mean(pairs))


def train_c3(
    params: ModelParams, config: TrainConfig, data: Dataset, seed=None
) -> tuple[ModelParams, list[EpochRecord]]:
    """Refinement stage.  Epoch 0 is an evaluation-only pass over the
    initialized model; epochs 1..c3_epochs update encoder and instance head."""
    config.validate()
    seed = _seed_of(config, seed)
    if config.c3_epochs == 0:
        return params, []
    _check_batching(config, data)
    records = []
    metrics0 = evaluate(params, data) if data.truth is not None else {}
    _, _, loss0, pairs0 = _c3_pass(params, config, data, seed, 0, state=None)
    records.append(_record(STAGE_C3, 0, loss0, pairs0, metrics0))
    state = AdamState.zeros(params)
    for epoch in range(1, config.c3_epochs + 1):
        params, state, mean_loss, mean_pairs = _c3_pass(params, config, data, seed, epoch, state)
        metrics = evaluate(params, data) if data.truth is not None else {}
        records.append(_record(STAGE_C3, epoch, mean_loss, mean_pairs, metrics))
    return params, records


def train(config: TrainConfig, data: Dataset, seed=None) -> tuple[ModelParams, RunHistory]:
    """Full two-stage run; history holds init records then c3 records."""
    config.validate()
    params, init_records = train_init(config, data, seed)
    params, c3_records = train_c3(params, config, data, seed)
    history = RunHistory(config=config.to_dict(), records=init_records + c3_records)
    return params, history
