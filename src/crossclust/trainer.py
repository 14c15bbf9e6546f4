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
evaluation pass never perturbs later draws.  The epoch-0 pass computes its
loss without a gradient.

Because the streams are positional, a stage's views can be made anywhere.
A stage runs OpenBLAS on one thread wherever its count can be set, and then,
with at least 2 usable CPUs, forks one producer process that augments its
batches in order and sends them down a pipe (:func:`_stage_views`).
Elsewhere, or once a producer fails, views are computed in-process, with the
same bits.  At a large batch one helper thread computes half of each step's
pairwise rows and one of its two chain products, again with the same bits.
Eval rows are labelled by :func:`data.label_csv` (:func:`load_eval_rows`).
:mod:`crossclust.parallel` holds the forks, the helper and the thread count.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import data as data_io
from . import parallel
from .augment import augment_batch
from .config import TrainConfig
from .data import Dataset, LabelledRows, Standardization
from .errors import ConfigError, CsvFormatError, DegenerateRowError, NonFiniteError
from .losses import c3_objective, chain_to_embeddings, init_cluster_loss, instance_objective
from .metrics import Partition, scores
from .model import (
    AdamState,
    ModelDims,
    ModelParams,
    adam_step,
    backward,
    cluster_labels,
    forward,
    init_params,
)
from .numerics import entropy

STAGE_INIT = "init"
STAGE_C3 = "c3"
_STAGE_IDS = {"params": 0, STAGE_INIT: 1, STAGE_C3: 2}
# The smallest stacked batch 2N whose steps a helper thread makes faster
# (README, "Processes and threads").
_HELPER_MIN_ROWS = 768


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None
    records = []
    valid = set(EpochRecord.__dataclass_fields__)
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
            if not set(raw) <= valid:
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


def _augment(stage, config, data, epoch, batch, idx):
    """The two augmented views of one batch, computed in this process and
    stacked: view a's rows, then view b's, one (2N, d) array."""
    key = _batch_key(config.seed, stage, epoch, batch)
    return np.vstack(augment_batch(config.augment, data.X[idx], key, row_keys=idx))


def _send_views(fd, stage, config, data, epochs) -> int:
    """Producer side of :func:`_stage_views`: augment every batch of ``epochs``
    in order and write its stacked views to ``fd`` in one write, as C-ordered
    float64.  Returns the exit status, 0."""
    with open(fd, "wb") as out:
        for epoch in epochs:
            for b, idx in _epoch_batches(config.seed, stage, epoch, data.n, config.batch_size):
                out.write(_augment(stage, config, data, epoch, b, idx))
                out.flush()
    return 0


@contextlib.contextmanager
def _stage_views(stage, config, data, epochs):
    """Yield ``(views, split)``: ``views(epoch, batch, idx)`` gives the two
    augmented views of each batch of ``epochs`` stacked in one (2N, d)
    array, the forward pass's input and the one copy a step keeps of them,
    asked for in batch order; ``split`` is the stage's helper
    (:func:`parallel.helper_thread`) or None.

    The stage runs numpy's OpenBLAS on one thread wherever its count can be
    set (:func:`parallel.one_blas_thread`), whatever the CPU count.  While
    that holds and at least 2 CPUs are usable, one forked producer
    (:func:`_send_views`) augments the batches ahead of training and views
    are read from its pipe straight into that array, and a stacked batch of
    at least ``_HELPER_MIN_ROWS`` rows starts a helper thread after the
    fork.  Otherwise, and from the batch where a producer fails or if none
    could be started, views are computed here.  The helper is joined, the
    producer killed and reaped, and the thread count restored, on every exit.
    """
    here = functools.partial(_augment, stage, config, data)
    children = []

    def views(epoch, batch, idx):
        if children:
            x = np.empty((2 * len(idx), data.d))
            try:
                parallel.read_exact(children[0][1], x)
                return x
            except EOFError:  # the producer died: the rest is computed here
                parallel.reap(children)
        return here(epoch, batch, idx)

    with parallel.one_blas_thread() as pinned:
        if not pinned or parallel.usable_cpus() < 2:
            yield here, None
            return
        try:
            with contextlib.suppress(OSError):  # no process or pipe to spare, or a second thread
                children.append(parallel.fork_writer(_send_views, stage, config, data, epochs))
            helper = 2 * config.batch_size >= _HELPER_MIN_ROWS
            with parallel.helper_thread() if helper else contextlib.nullcontext() as split:
                yield views, split
        finally:
            parallel.reap(children)


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


def _batch_forward(params, x, stage, epoch, batch, idx):
    """``forward`` on the stacked views ``x``.  A zero-norm instance embedding
    is re-raised naming the stage, epoch, batch, view and dataset row."""
    try:
        return forward(params, x)
    except DegenerateRowError as exc:
        n = len(idx)
        row = int(idx[exc.row % n])
        raise DegenerateRowError(
            row,
            f"zero-norm instance embedding in stage '{stage}' at epoch {epoch}, "
            f"batch {batch}: view {'ab'[exc.row // n]} of dataset row {row}",
        ) from None


def predict(params: ModelParams, x) -> Partition:
    """Hard cluster labels: argmax of the assignment probabilities, ties to the
    lowest index (:func:`cluster_labels`), computed in this process on
    OpenBLAS's current thread count."""
    return Partition(cluster_labels(params, x), params.dims.num_clusters)


def load_eval_rows(
    params: ModelParams, standardization: Standardization, path, label_column=None
) -> LabelledRows:
    """A CSV's rows for :func:`evaluate`: :func:`data.label_csv`, which alone
    decides parse parts and the BLAS thread count, with :func:`cluster_labels`,
    which :mod:`crossclust.data` cannot import."""
    label_rows = functools.partial(cluster_labels, params)
    return data_io.label_csv(path, label_rows, standardization, label_column)


def evaluate(params: ModelParams, data: Dataset | LabelledRows) -> dict:
    """Metrics against truth labels, or an unlabeled report (sizes + entropy).

    A training or format-1 :class:`Dataset` is labelled here by :func:`predict`;
    :class:`LabelledRows` (:func:`load_eval_rows`) carry their labels.  Against
    truth, the sizes, ACC, NMI and ARI come from :func:`metrics.scores`.
    """
    if isinstance(data, LabelledRows):
        pred = Partition(data.labels, params.dims.num_clusters)
    else:
        pred = predict(params, data.X)
    if data.truth is None:
        sizes = np.bincount(pred.labels, minlength=pred.num_clusters)
        return {"cluster_sizes": sizes.tolist(), "assignment_entropy": entropy(sizes / len(pred))}
    return scores(pred, data.truth)


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


def _run_epoch(stage, params, state, config, data, epoch, views, split=None):
    """One pass over the stage's shuffled batches; params are updated only when
    an Adam state is given.  ``views(epoch, batch, idx)`` gives each batch's
    stacked views and ``split`` is the stage's helper (:func:`_stage_views`).
    A step keeps those views, the forward cache (one activation per encoder
    layer, z and c) and one 2N x 2N buffer; README "Memory" gives the train
    process's peak.  Returns (params, state, mean loss, mean positive pairs)."""
    losses, pairs = [], []
    for b, idx in _epoch_batches(config.seed, stage, epoch, data.n, config.batch_size):
        cache = _batch_forward(params, views(epoch, b, idx), stage, epoch, b, idx)
        if stage == STAGE_INIT:
            loss_inst, d_s, count = instance_objective(
                cache.z, config.tau_I, config.zeta, split=split
            )
            loss_clu, d_ca, d_cb = _cluster_objective(cache.c, len(idx), config.tau_C, epoch, b)
            loss, parts = loss_inst + loss_clu, {"instance": loss_inst, "cluster": loss_clu}
            d_c, lr = np.vstack([d_ca, d_cb]), config.init_lr
        else:
            loss, d_s, count = c3_objective(
                cache.z, config.zeta, config.gamma, grad=state is not None, split=split
            )
            parts, d_c, lr = {"c3": loss}, None, config.c3_lr
        if not np.isfinite(loss):
            detail = ", ".join(f"{k}={v!r}" for k, v in parts.items())
            raise NonFiniteError(
                f"non-finite loss in stage '{stage}' at epoch {epoch}, batch {b}: {detail}"
            )
        d_z = chain_to_embeddings(d_s, cache.z, split=split) if state is not None else None
        del d_s  # the step's one 2N x 2N buffer: none is alive in backward
        if state is not None:
            grads = backward(params, cache, d_z, d_c)
            params, state = adam_step(params, grads, state, lr=lr)
        losses.append(loss)
        pairs.append(count)
        # Freed before the next batch allocates: alive, these arrays can split
        # the free space the next 2N x 2N buffer would reuse, and the heap grows.
        del cache, d_z
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
    epoch_range = range(0 if stage == STAGE_C3 else 1, epochs + 1)
    with _stage_views(stage, config, data, epoch_range) as (views, split):
        for epoch in epoch_range:
            if epoch == 1:
                state = AdamState.zeros(params)
            params, state, mean_loss, pairs = _run_epoch(
                stage, params, state, config, data, epoch, views, split
            )
            metrics = evaluate(params, data) if data.truth is not None else {}
            epoch_scores = {k: metrics.get(k) for k in ("acc", "nmi", "ari")}
            records.append(EpochRecord(stage, epoch, mean_loss, pairs, **epoch_scores))
    return params, records


def train_init(config: TrainConfig, data: Dataset) -> tuple[ModelParams, list[EpochRecord]]:
    """Initialization stage: instance + cluster contrastive losses, summed."""
    params = init_params(_stream(config.seed, "params"), _model_dims(config, data))
    return _run_stage(STAGE_INIT, params, config, data, config.init_epochs)


def train_c3(
    params: ModelParams, config: TrainConfig, data: Dataset
) -> tuple[ModelParams, list[EpochRecord]]:
    """Refinement stage.  Epoch 0 is an evaluation-only pass over the
    initialized model; epochs 1..c3_epochs update encoder and instance head."""
    return _run_stage(STAGE_C3, params, config, data, config.c3_epochs)


def train(config: TrainConfig, data: Dataset) -> tuple[ModelParams, list[EpochRecord]]:
    """Full two-stage run, seeded by ``config.seed``.

    Returns the trained parameters and the epoch records: init epochs
    1..init_epochs, then c3 epochs 0..c3_epochs (none when c3_epochs is 0).
    """
    params, init_records = train_init(config, data)
    params, c3_records = train_c3(params, config, data)
    return params, init_records + c3_records
