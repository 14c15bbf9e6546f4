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
loss without a gradient, and its scores are those of init's last epoch,
which ended on the same parameters.

Because the streams are positional, a run's views can be made anywhere.
The producer, the BLAS pin and the helper belong to the run, not the stage
(:func:`_open_run`): :func:`train` opens one for both stages, and a stage
called alone opens its own.  A run holds OpenBLAS on one thread wherever its
count can be set, and then, with at least 2 usable CPUs, forks one producer
process that augments init's batches and then c3's, in order, and sends
them down a pipe.  A second fork for c3 would fork the heap init has grown,
and the parent would then copy-fault each page it writes: about 1480 minor
faults in the c3 stage at batch 128 and 4200 at batch 512 (README,
"Processes and threads").  Elsewhere, or once the
producer fails, views are computed in-process, with the same bits.  At a
large batch one helper thread computes half of each step's pairwise rows
and one of its two chain products, again with the same bits.
Eval rows are labelled by :func:`data.label_csv` (:func:`load_eval_rows`).
:mod:`crossclust.parallel` holds the forks, the helper and the thread count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import weakref
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import data as data_io
from . import parallel
from .augment import augment_batch
from .config import TrainConfig
from .data import Dataset, LabelledRows, Standardization
from .errors import (
    ConfigError,
    ContractViolationError,
    CsvFormatError,
    DegenerateRowError,
    NonFiniteError,
)
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


def _augment(config, data, stage, epoch, batch, idx):
    """The two augmented views of one batch, computed in this process and
    stacked: view a's rows, then view b's, one (2N, d) array."""
    key = _batch_key(config.seed, stage, epoch, batch)
    return np.vstack(augment_batch(config.augment, data.X[idx], key, row_keys=idx))


def _stage_epochs(stage, epochs):
    """The epochs of a stage of ``epochs`` >= 1 epochs: init's 1..epochs, c3's 0..epochs."""
    return range(0 if stage == STAGE_C3 else 1, epochs + 1)


def _send_views(fd, config, data, schedule) -> int:
    """Producer side of :func:`_open_run`: augment every batch of every
    ``(stage, epochs)`` in ``schedule`` in order and write its stacked views
    to ``fd`` in one write, as C-ordered float64.  Returns the exit status, 0."""
    with open(fd, "wb") as out:
        for stage, epochs in schedule:
            for epoch in _stage_epochs(stage, epochs):
                for b, idx in _epoch_batches(config.seed, stage, epoch, data.n, config.batch_size):
                    out.write(_augment(config, data, stage, epoch, b, idx))
                    out.flush()
    return 0


@dataclass
class _Run:
    """What the stages of one training run share (:func:`_open_run`).

    ``views(stage, epoch, batch, idx)`` gives the two augmented views of
    each batch stacked in one (2N, d) array, the forward pass's input and
    the one copy a step keeps of them, asked for in the run's batch order;
    ``split`` is the run's helper (:func:`parallel.helper_thread`) or None;
    ``scored`` holds the scores of the parameters the run last evaluated,
    and a weak reference to them, so that it keeps no epoch's parameters
    alive into the next.
    """

    views: Callable
    split: Callable | None = None
    scored: tuple = (None, None)

    def scores(self, params: ModelParams, data: Dataset) -> dict:
        """acc, nmi and ari of ``params`` on ``data`` (None without truth
        labels); scored once, so that c3's epoch 0 reuses the scores of
        init's last epoch, which ended on the same parameters."""
        held, scores = self.scored
        if held is None or held() is not params:
            metrics = evaluate(params, data) if data.truth is not None else {}
            scores = {k: metrics.get(k) for k in ("acc", "nmi", "ari")}
            self.scored = weakref.ref(params), scores
        return scores


@contextlib.contextmanager
def _open_run(config, data, schedule):
    """Yield the :class:`_Run` of the ``(stage, epochs)`` stages of
    ``schedule``, run in that order.

    The run holds numpy's OpenBLAS on one thread wherever its count can be
    set (:func:`parallel.one_blas_thread`), whatever the CPU count.  While
    that holds, some epoch is scheduled and at least 2 CPUs are usable, one
    forked producer (:func:`_send_views`) augments every stage's
    batches ahead of training and views are read from its pipe straight
    into the step's array, and a stacked batch of at least
    ``_HELPER_MIN_ROWS`` rows starts a helper thread after the fork.
    Otherwise, and from the batch where the producer fails or if none could
    be started, views are computed here.  A batch larger than the dataset
    raises :class:`ConfigError` before any fork.  The helper is joined, the
    producer killed and reaped, and the thread count restored, on every exit.
    """
    schedule = [(stage, epochs) for stage, epochs in schedule if epochs]
    if schedule and data.n < config.batch_size:
        message = f"batch_size {config.batch_size} exceeds dataset size {data.n}"
        raise ConfigError("batch_size", message)
    here = functools.partial(_augment, config, data)
    children = []

    def views(stage, epoch, batch, idx):
        if children:
            x = np.empty((2 * len(idx), data.d))
            try:
                parallel.read_exact(children[0][1], x)
                return x
            except EOFError:  # the producer died: the rest is computed here
                parallel.reap(children)
        return here(stage, epoch, batch, idx)

    with parallel.one_blas_thread() as pinned:
        if not (schedule and pinned) or parallel.usable_cpus() < 2:
            yield _Run(here)
            return
        try:
            with contextlib.suppress(OSError):  # no process or pipe to spare, or a second thread
                children.append(parallel.fork_writer(_send_views, config, data, schedule))
            helper = 2 * config.batch_size >= _HELPER_MIN_ROWS
            with parallel.helper_thread() if helper else contextlib.nullcontext() as split:
                yield _Run(views, split)
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


def _batch_forward(params, x, where, idx):
    """``forward`` on the stacked views ``x`` of the batch ``where`` names
    (its stage, epoch and batch).  A zero-norm instance embedding is
    re-raised naming the view and dataset row too; parameters that overflow
    the pass raise :class:`NonFiniteError`, with no numpy warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return forward(params, x)
    except DegenerateRowError as exc:
        n = len(idx)
        row = int(idx[exc.row % n])
        raise DegenerateRowError(
            row,
            f"zero-norm instance embedding {where}: view {'ab'[exc.row // n]} of dataset row {row}",
        ) from None
    except ContractViolationError as exc:
        raise NonFiniteError(f"non-finite forward pass {where}: {exc}") from None


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


def _cluster_objective(c, n, tau_c, where):
    """``init_cluster_loss`` on the stacked views' assignments.  A zero-norm
    cluster column is re-raised naming the batch (``where``), view and cluster."""
    try:
        return init_cluster_loss(c[:n], c[n:], tau_c)
    except DegenerateRowError as exc:
        m = c.shape[1]
        raise DegenerateRowError(
            exc.row, f"zero-norm cluster column {where}: view {'ab'[exc.row // m]}, cluster {exc.row % m}"
        ) from None


def _run_epoch(stage, params, state, config, data, epoch, views, split=None):
    """One pass over the stage's shuffled batches; params are updated only when
    an Adam state is given.  ``views(stage, epoch, batch, idx)`` gives each
    batch's stacked views and ``split`` is the helper or None, both the
    run's (:class:`_Run`): one producer, one BLAS pin and one helper serve
    both stages, so that c3 neither forks a second producer nor copy-faults
    the heap init grew.  A step keeps those views, the forward cache (one activation per encoder
    layer, z and c) and one 2N x 2N buffer; README "Memory" gives the train
    process's peak.  A non-finite loss, or parameters that an Adam step left
    non-finite, stop the run naming the stage, epoch and batch.  Returns
    (params, state, mean loss, mean positive pairs)."""
    losses, pairs = [], []
    for b, idx in _epoch_batches(config.seed, stage, epoch, data.n, config.batch_size):
        where = f"in stage '{stage}' at epoch {epoch}, batch {b}"
        cache = _batch_forward(params, views(stage, epoch, b, idx), where, idx)
        if stage == STAGE_INIT:
            loss_inst, d_s, count = instance_objective(
                cache.z, config.tau_I, config.zeta, split=split
            )
            loss_clu, d_ca, d_cb = _cluster_objective(cache.c, len(idx), config.tau_C, where)
            loss, parts = loss_inst + loss_clu, {"instance": loss_inst, "cluster": loss_clu}
            d_c, lr = np.vstack([d_ca, d_cb]), config.init_lr
        else:
            loss, d_s, count = c3_objective(
                cache.z, config.zeta, config.gamma, grad=state is not None, split=split
            )
            parts, d_c, lr = {"c3": loss}, None, config.c3_lr
        if not np.isfinite(loss):
            detail = ", ".join(f"{k}={v!r}" for k, v in parts.items())
            raise NonFiniteError(f"non-finite loss {where}: {detail}")
        d_z = chain_to_embeddings(d_s, cache.z, split=split) if state is not None else None
        del d_s  # the step's one 2N x 2N buffer: none is alive in backward
        if state is not None:
            grads = backward(params, cache, d_z, d_c)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                params, state = adam_step(params, grads, state, lr=lr)
            if not np.isfinite(params.flat).all():
                raise NonFiniteError(f"non-finite parameters after the Adam step {where}")
        losses.append(loss)
        pairs.append(count)
        # Freed before the next batch allocates: alive, these arrays can split
        # the free space the next 2N x 2N buffer would reuse, and the heap grows.
        del cache, d_z
    return params, state, float(np.mean(losses)), float(np.mean(pairs))


def _run_stage(stage, params, config, data, epochs, run):
    """Epochs 1..epochs from fresh Adam moments, each followed by evaluation on
    labeled data; stage c3 first records an evaluation-only epoch 0.  Without
    a ``run`` the stage opens one of its own."""
    if epochs == 0:
        return params, []
    if run is None:
        with _open_run(config, data, [(stage, epochs)]) as run:
            return _run_stage(stage, params, config, data, epochs, run)
    records = []
    state = None
    for epoch in _stage_epochs(stage, epochs):
        if epoch == 1:
            state = AdamState.zeros(params)
        params, state, mean_loss, pairs = _run_epoch(
            stage, params, state, config, data, epoch, run.views, run.split
        )
        records.append(EpochRecord(stage, epoch, mean_loss, pairs, **run.scores(params, data)))
    return params, records


def train_init(
    config: TrainConfig, data: Dataset, run: _Run | None = None
) -> tuple[ModelParams, list[EpochRecord]]:
    """Initialization stage: instance + cluster contrastive losses, summed.
    ``run`` is the :class:`_Run` of :func:`train`; without it the stage
    opens its own."""
    params = init_params(_stream(config.seed, "params"), _model_dims(config, data))
    return _run_stage(STAGE_INIT, params, config, data, config.init_epochs, run)


def train_c3(
    params: ModelParams, config: TrainConfig, data: Dataset, run: _Run | None = None
) -> tuple[ModelParams, list[EpochRecord]]:
    """Refinement stage.  Epoch 0 is an evaluation-only pass over the
    initialized model; epochs 1..c3_epochs update encoder and instance head.
    ``run`` is as for :func:`train_init`."""
    return _run_stage(STAGE_C3, params, config, data, config.c3_epochs, run)


def train(config: TrainConfig, data: Dataset) -> tuple[ModelParams, list[EpochRecord]]:
    """Full two-stage run, seeded by ``config.seed``, in one :class:`_Run`.

    Returns the trained parameters and the epoch records: init epochs
    1..init_epochs, then c3 epochs 0..c3_epochs (none when c3_epochs is 0).
    The stages are called through this module's globals, which the
    benchmark's stage timers wrap.
    """
    schedule = [(STAGE_INIT, config.init_epochs), (STAGE_C3, config.c3_epochs)]
    with _open_run(config, data, schedule) as run:
        params, init_records = train_init(config, data, run)
        params, c3_records = train_c3(params, config, data, run)
    return params, init_records + c3_records
