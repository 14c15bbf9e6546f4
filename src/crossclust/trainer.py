"""Two-stage training orchestration.

Both stages run the same epoch loop (:func:`_run_epoch`): batch, augment,
one stacked forward, the stage objective, backward and an Adam step.  Stage
"init" trains encoder and both heads with the paired instance-level and
cluster-level contrastive objectives.  Stage "c3" refines the embedding space
with the weighted cross-instance loss, which depends on z alone: the cluster
head is not backpropagated and keeps its weights bit for bit, though cluster
predictions still move because the shared features move.

Randomness is derived positionally from the master seed: every epoch owns
independent shuffle and augmentation streams keyed by (stage, epoch, batch),
so runs are reproducible batch for batch and the stage-c3 epoch-0
evaluation pass never perturbs later draws.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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


def _cluster_objective(c, n, tau_c, epoch, batch):
    """``init_cluster_loss`` on the stacked views' assignments.  A zero-norm
    cluster column is re-raised naming the stage, epoch, batch, view and cluster."""
    try:
        return init_cluster_loss(c[:n], c[n:], tau_c)
    except DegenerateRowError as exc:
        m = c.shape[1]
        raise DegenerateRowError(
            exc.row,
            f"zero-norm cluster column in stage '{STAGE_INIT}' at epoch {epoch}, "
            f"batch {batch}: view {'ab'[exc.row // m]}, cluster {exc.row % m}",
        ) from None


def _run_epoch(stage, params, state, config, data, epoch):
    """One pass over the stage's shuffled batches; params are updated only when
    an Adam state is given.  Returns (params, state, mean loss, mean positive pairs)."""
    losses, pairs, seed = [], [], config.seed
    for b, idx in _epoch_batches(seed, stage, epoch, data.n, config.batch_size):
        key = _batch_key(seed, stage, epoch, b)
        x_a, x_b = augment_batch(config.augment, data.X[idx], key, row_keys=idx)
        cache = _batch_forward(params, x_a, x_b, stage, epoch, b, idx)
        if stage == STAGE_INIT:
            loss_inst, d_s, count = instance_objective(cache.z, config.tau_I, config.zeta)
            loss_clu, d_ca, d_cb = _cluster_objective(cache.c, len(idx), config.tau_C, epoch, b)
            loss, parts = loss_inst + loss_clu, {"instance": loss_inst, "cluster": loss_clu}
            d_c, lr = np.vstack([d_ca, d_cb]), config.init_lr
        else:
            loss, d_s, count = c3_objective(cache.z, config.zeta, config.gamma)
            parts, d_c, lr = {"c3": loss}, None, config.c3_lr
        if not np.isfinite(loss):
            detail = ", ".join(f"{k}={v!r}" for k, v in parts.items())
            raise NonFiniteError(
                f"non-finite loss in stage '{stage}' at epoch {epoch}, batch {b}: {detail}"
            )
        d_z = chain_to_embeddings(d_s, cache.z) if state is not None else None
        del d_s  # the step's one 2N x 2N buffer: none is alive in backward
        if state is not None:
            grads = backward(params, cache, d_z, d_c)
            params, state = adam_step(params, grads, state, lr=lr)
        losses.append(loss)
        pairs.append(count)
    return params, state, float(np.mean(losses)), float(np.mean(pairs))


def _run_stage(stage, params, config, data, epochs):
    """Epochs 1..epochs from fresh Adam moments, each followed by evaluation on
    labeled data; stage c3 first records an evaluation-only epoch 0."""
    if epochs == 0:
        return params, []
    if data.n < config.batch_size:
        message = f"batch_size {config.batch_size} exceeds dataset size {data.n}"
        raise ConfigError("batch_size", message)
    records = []
    state = None
    for epoch in range(0 if stage == STAGE_C3 else 1, epochs + 1):
        if epoch == 1:
            state = AdamState.zeros(params)
        params, state, mean_loss, pairs = _run_epoch(stage, params, state, config, data, epoch)
        metrics = evaluate(params, data) if data.truth is not None else {}
        scores = {k: metrics.get(k) for k in ("acc", "nmi", "ari")}
        records.append(EpochRecord(stage, epoch, mean_loss, pairs, **scores))
    return params, records


def train_init(config: TrainConfig, data: Dataset) -> tuple[ModelParams, list[EpochRecord]]:
    """Initialization stage: instance + cluster contrastive losses, summed."""
    config.validate()
    params = init_params(_stream(config.seed, "params"), _model_dims(config, data))
    return _run_stage(STAGE_INIT, params, config, data, config.init_epochs)


def train_c3(
    params: ModelParams, config: TrainConfig, data: Dataset
) -> tuple[ModelParams, list[EpochRecord]]:
    """Refinement stage.  Epoch 0 is an evaluation-only pass over the
    initialized model; epochs 1..c3_epochs update encoder and instance head."""
    config.validate()
    return _run_stage(STAGE_C3, params, config, data, config.c3_epochs)


def train(config: TrainConfig, data: Dataset) -> tuple[ModelParams, list[EpochRecord]]:
    """Full two-stage run, seeded by ``config.seed``.

    Returns the trained parameters and the epoch records: init epochs
    1..init_epochs, then c3 epochs 0..c3_epochs (none when c3_epochs is 0).
    """
    config.validate()
    params, init_records = train_init(config, data)
    params, c3_records = train_c3(params, config, data)
    return params, init_records + c3_records
