import contextlib
import functools
import os
import re
import signal
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossclust import parallel
from crossclust.augment import AugmentConfig, augment_batch
from crossclust.config import DimsSpec, TrainConfig
from crossclust.data import (
    Dataset,
    LabelledRows,
    Standardization,
    generate_blobs,
    load_csv,
    save_csv,
    standardize,
)
from crossclust.errors import (
    ConfigError,
    CrossclustError,
    CsvFormatError,
    DegenerateRowError,
    NonFiniteError,
    ShapeError,
)
from crossclust.losses import c3_loss, chain_to_embeddings, compute_weights, positive_mask
from crossclust.metrics import Partition, accuracy, ari, nmi
from crossclust.model import ModelDims, backward, forward, init_params
from crossclust.numerics import openblas, similarity_matrix
from crossclust.trainer import (
    EpochRecord,
    evaluate,
    load_eval_rows,
    predict,
    read_history,
    train,
    train_c3,
    train_init,
    write_history,
)

from oracles import cluster_probabilities, grad_check

SMALL_CFG = TrainConfig(
    M=3,
    init_epochs=2,
    c3_epochs=2,
    batch_size=16,
    seed=0,
    dims=DimsSpec(hidden=(24, 12), z_dim=6),
)


@pytest.fixture(scope="module")
def small_data():
    return generate_blobs(seed=11, n=64, d=6, clusters=3, separation=6.0, sigma=1.0)


def params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()))


class TestTrainInit:
    def test_zero_epochs_returns_untouched_params(self, small_data):
        cfg = SMALL_CFG.override(init_epochs=0)
        params, records = train_init(cfg, small_data)
        assert records == []
        reference, _ = train_init(cfg, small_data)
        assert params_equal(params, reference)

    def test_history_length_matches_epochs(self, small_data):
        params, records = train_init(SMALL_CFG, small_data)
        assert len(records) == SMALL_CFG.init_epochs
        assert [r.epoch for r in records] == [1, 2]
        assert all(r.stage == "init" for r in records)

    def test_metrics_filled_when_labeled(self, small_data):
        _, records = train_init(SMALL_CFG, small_data)
        assert all(r.acc is not None and 0 <= r.acc <= 1 for r in records)

    def test_metrics_absent_when_unlabeled(self, small_data):
        _, records = train_init(SMALL_CFG, replace(small_data, truth=None))
        assert all(r.acc is None and r.nmi is None and r.ari is None for r in records)

    def test_batch_size_larger_than_dataset_rejected(self, small_data):
        with pytest.raises(ConfigError, match="batch_size"):
            train_init(SMALL_CFG.override(batch_size=128), small_data)

    def test_loss_decreases_over_training(self, small_data):
        cfg = SMALL_CFG.override(init_epochs=30)
        _, records = train_init(cfg, small_data)
        assert records[-1].mean_loss < records[0].mean_loss


class TestTrainC3:
    def test_zero_epochs_leave_model_unchanged(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        refined, records = train_c3(params, SMALL_CFG.override(c3_epochs=0), small_data)
        assert records == []
        assert params_equal(params, refined)

    def test_cluster_head_left_bit_for_bit_unchanged(self, small_data):
        # the c3 loss depends on z alone, so the cluster head is never stepped
        params, _ = train_init(SMALL_CFG, small_data)
        refined, _ = train_c3(params, SMALL_CFG, small_data)
        for before, after in zip(params.cluster_head, refined.cluster_head):
            assert before.weight.tobytes() == after.weight.tobytes()
            assert before.bias.tobytes() == after.bias.tobytes()
        assert not np.array_equal(params.encoder[0].weight, refined.encoder[0].weight)

    def test_record_count_includes_epoch_zero(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        _, records = train_c3(params, SMALL_CFG, small_data)
        assert len(records) == SMALL_CFG.c3_epochs + 1
        assert [r.epoch for r in records] == [0, 1, 2]
        assert all(r.stage == "c3" for r in records)

    def test_epoch_zero_equals_pre_c3_evaluation(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        before = evaluate(params, small_data)
        _, records = train_c3(params, SMALL_CFG, small_data)
        assert records[0].acc == before["acc"]
        assert records[0].nmi == before["nmi"]
        assert records[0].ari == before["ari"]

    def test_strict_threshold_logs_exactly_one_pair(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        _, records = train_c3(params, SMALL_CFG.override(zeta=1.0), small_data)
        assert all(r.avg_positive_pairs == 1.0 for r in records)

    def test_pairs_non_increasing_in_zeta_at_fixed_state(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        cache = forward(params, small_data.X[:32])
        sim = similarity_matrix(np.vstack([cache.z, cache.z]))
        grid = [-1.0, 0.0, 0.4, 0.6, 0.9, 1.0]
        counts = [positive_mask(sim, z).sum() for z in grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestStageEntryPoints:
    def test_train_runs_each_stage_through_the_module_globals(self, small_data, monkeypatch):
        # stage timers (benchmarks/layers.py) rebind exactly these two names
        import crossclust.trainer as trainer

        calls = []
        for name in ("train_init", "train_c3"):

            def counting(*args, _real=getattr(trainer, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(trainer, name, counting)
        train(SMALL_CFG, small_data)
        assert calls == ["train_init", "train_c3"]


class TestNonFiniteAbort:
    @pytest.mark.parametrize(
        "objective, stage, epoch", [("instance_objective", "init", 1), ("c3_objective", "c3", 0)]
    )
    def test_non_finite_loss_names_stage_epoch_batch(
        self, small_data, monkeypatch, objective, stage, epoch
    ):
        import crossclust.trainer as trainer

        real = getattr(trainer, objective)

        def poisoned(*args, **kwargs):
            _, d_s, pairs = real(*args, **kwargs)
            return float("nan"), d_s, pairs

        monkeypatch.setattr(trainer, objective, poisoned)
        cfg = SMALL_CFG.override(init_epochs=1 if stage == "init" else 0)
        with pytest.raises(NonFiniteError, match=rf"stage '{stage}' at epoch {epoch}, batch 0"):
            train(cfg, small_data)


class TestStepMemory:
    def test_c3_stage_holds_one_pairwise_buffer_at_batch_512(self):
        # one 1024 x 1024 float64 buffer is 8 MiB; keeping the mask, the
        # weights, a separate gradient or the previous step's s alive as well
        # would pass 16 MiB
        data = generate_blobs(seed=1, n=2000, d=32, clusters=5, separation=6.0, sigma=1.0)
        cfg = TrainConfig(M=5, init_epochs=0, c3_epochs=1, batch_size=512, seed=1)
        params, _ = train_init(cfg, data)
        tracemalloc.start()
        try:
            _, records = train_c3(params, cfg, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 2
        assert peak < 16 * 2**20

    def test_no_array_of_a_step_is_alive_when_the_next_asks_for_its_views(self):
        # alive into the next step, the previous step's views, activations and
        # embedding gradient can split the free space the next 2N x 2N buffer
        # would reuse; at batch 512 that raised the train process's peak RSS
        import crossclust.trainer as trainer

        data = generate_blobs(seed=1, n=1024, d=32, clusters=5, separation=6.0, sigma=1.0)
        cfg = TrainConfig(M=5, batch_size=256, seed=1)
        params = init_params(0, ModelDims(input_dim=32, num_clusters=5))
        alive = []

        def views(epoch, batch, idx):
            alive.append(tracemalloc.get_traced_memory()[0])
            return trainer._augment(trainer.STAGE_INIT, cfg, data, epoch, batch, idx)

        state = trainer.AdamState.zeros(params)
        tracemalloc.start()
        try:
            trainer._run_epoch(trainer.STAGE_INIT, params, state, cfg, data, 1, views)
        finally:
            tracemalloc.stop()
        assert len(alive) == 4
        # what may stay: the new parameters, both Adam moments and the
        # gradient, plus small objects; the step's arrays are over 1 MiB
        assert max(alive) < 4 * params.flat.nbytes + 2**17


@st.composite
def validated_runs(draw):
    """A validated config with one epoch per stage and a small finite dataset."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    m = draw(st.sampled_from([2, 3]))
    cfg = TrainConfig(
        M=m,
        zeta=draw(st.floats(-1.0, 1.0)),
        gamma=10.0 ** draw(st.floats(-3.0, 3.0)),
        init_epochs=1,
        c3_epochs=1,
        batch_size=draw(st.sampled_from(sorted({b for b in (2, n // 2, n) if b >= 2}))),
        seed=draw(st.integers(0, 2**16)),
        dims=DimsSpec(hidden=(draw(st.integers(8, 32)),), z_dim=draw(st.integers(1, 4))),
        augment=AugmentConfig(mask_rate=draw(st.floats(0.0, 0.99))),
    )
    x = draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3)))
    truth = Partition(draw(arrays(np.int64, n, elements=st.integers(0, m - 1))), m)
    return cfg, Dataset(X=x, truth=truth)


class TestValidatedConfigs:
    @given(validated_runs())
    @settings(max_examples=150, deadline=None)
    def test_train_finishes_or_raises_crossclust_error(self, run):
        cfg, data = run
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                _, records = train(cfg, data)
            except CrossclustError:
                return
        assert len(records) == cfg.init_epochs + cfg.c3_epochs + 1
        assert all(np.isfinite(r.mean_loss) for r in records)


class TestDegenerateEmbedding:
    @pytest.mark.parametrize("stage, epoch", [("init", 1), ("c3", 0)])
    def test_zero_norm_row_names_stage_epoch_batch_view_and_dataset_row(
        self, small_data, monkeypatch, stage, epoch
    ):
        import crossclust.trainer as trainer

        def degenerate(params, x):
            raise DegenerateRowError(x.shape[0] // 2 + 3)  # row 3 of view b

        monkeypatch.setattr(trainer, "forward", degenerate)
        cfg = SMALL_CFG.override(init_epochs=1 if stage == "init" else 0)
        with pytest.raises(DegenerateRowError) as exc:
            train(cfg, small_data)
        _, idx = next(trainer._epoch_batches(cfg.seed, stage, epoch, small_data.n, cfg.batch_size))
        assert exc.value.row == idx[3]
        assert str(exc.value) == (
            f"zero-norm instance embedding in stage '{stage}' at epoch {epoch}, "
            f"batch 0: view b of dataset row {idx[3]}"
        )

    def test_fully_masked_view_is_named(self):
        # d=2 at mask_rate 0.5 masks both features of a view a quarter of the
        # time; zero biases then map it to a zero instance embedding
        import crossclust.trainer as trainer

        data = generate_blobs(seed=0, n=200, d=2, clusters=3, separation=6.0, sigma=1.0)
        cfg = SMALL_CFG.override(init_epochs=1, augment=AugmentConfig(mask_rate=0.5))
        with pytest.raises(DegenerateRowError, match="stage 'init' at epoch 1, batch 0: view") as exc:
            train_init(cfg, data)
        _, idx = next(trainer._epoch_batches(cfg.seed, "init", 1, data.n, cfg.batch_size))
        key = trainer._batch_key(cfg.seed, "init", 1, 0)
        views = dict(zip("ab", augment_batch(cfg.augment, data.X[idx], key, row_keys=idx)))
        view = str(exc.value).split("view ")[1][0]
        np.testing.assert_array_equal(views[view][list(idx).index(exc.value.row)], 0.0)


    def test_zero_norm_cluster_column_names_stage_epoch_batch_view_and_cluster(self):
        # raw inputs far from unit scale saturate the cluster softmax, so a
        # view's whole assignment column is exactly zero
        import crossclust.trainer as trainer

        cfg = TrainConfig(
            M=2, init_epochs=1, c3_epochs=1, batch_size=8, seed=154,
            dims=DimsSpec(hidden=(8,), z_dim=2),
        )
        data = Dataset(X=np.random.default_rng(154).uniform(-1e5, 1e5, (16, 2)))
        pattern = (
            r"zero-norm cluster column in stage 'init' at epoch 1, batch 0: "
            r"view ([ab]), cluster (\d+)"
        )
        with pytest.raises(DegenerateRowError, match=f"^{pattern}$") as exc:
            train(cfg, data)
        view, cluster = re.fullmatch(pattern, str(exc.value)).groups()
        assert exc.value.row == "ab".index(view) * cfg.M + int(cluster)
        # the named column is all zero in batch 0's stacked pass
        dims = trainer._model_dims(cfg, data)
        params = init_params(trainer._stream(cfg.seed, "params"), dims)
        _, idx = next(trainer._epoch_batches(cfg.seed, "init", 1, data.n, cfg.batch_size))
        key = trainer._batch_key(cfg.seed, "init", 1, 0)
        x_a, x_b = augment_batch(cfg.augment, data.X[idx], key, row_keys=idx)
        c = forward(params, np.vstack([x_a, x_b])).c.reshape(2, len(idx), cfg.M)
        assert not c["ab".index(view), :, int(cluster)].any()

    def test_cluster_column_of_underflowing_norm_trains(self):
        # at 1e3 the same run's batch-0 column holds one entry of 2.3e-261 and
        # zeros: its plain norm underflows to 0, its rescaled norm does not
        cfg = TrainConfig(
            M=2, init_epochs=1, c3_epochs=1, batch_size=8, seed=154,
            dims=DimsSpec(hidden=(8,), z_dim=2),
        )
        data = Dataset(X=np.random.default_rng(154).uniform(-1e3, 1e3, (16, 2)))
        _, records = train(cfg, data)
        assert all(np.isfinite(r.mean_loss) for r in records)


class TestWeightFreezing:
    def test_implemented_gradient_treats_weights_as_constants(self, small_data):
        """The per-step objective freezes mask and weights; its finite
        differences must match the implemented parameter gradient."""
        cfg = SMALL_CFG
        params, _ = train_init(cfg, small_data)
        x = small_data.X[:16]  # views a (rows 0-7) and b (rows 8-15), stacked

        s0 = similarity_matrix(forward(params, x).z)
        mask0 = positive_mask(s0, cfg.zeta)
        w0 = compute_weights(s0, cfg.gamma)

        def frozen_loss(p):
            cache = forward(p, x)
            loss, d_s = c3_loss(similarity_matrix(cache.z), mask0, w0)
            d_z = chain_to_embeddings(d_s, cache.z)
            return loss, backward(p, cache, d_z, None)

        assert grad_check(params, frozen_loss, eps=1e-5, max_coords=300, seed=1) <= 1e-4

    def test_rescaled_weights_change_the_loss_value(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        cache = forward(params, small_data.X[:16])
        z = np.vstack([cache.z, cache.z])
        s = similarity_matrix(z)
        mask = positive_mask(s, 0.6)
        w = compute_weights(s, 0.1)
        base, _ = c3_loss(s, mask, w)
        scaled, _ = c3_loss(s, mask, 3.0 * w)
        assert scaled != base


class TestDeterminism:
    def test_identical_seed_identical_history(self, small_data):
        p1, r1 = train(SMALL_CFG, small_data)
        p2, r2 = train(SMALL_CFG, small_data)
        assert r1 == r2
        assert params_equal(p1, p2)

    def test_different_seed_different_history(self, small_data):
        _, r1 = train(SMALL_CFG, small_data)
        _, r2 = train(SMALL_CFG.override(seed=1), small_data)
        assert r1 != r2

    def test_truth_labels_unreachable_from_training(self, small_data):
        """Training consumes only X: shuffling the labels must not change the
        learned parameters, only the reported metrics."""
        shuffled = np.random.default_rng(0).permutation(small_data.truth.labels)
        tampered = type(small_data)(
            X=small_data.X,
            truth=Partition(shuffled, small_data.truth.num_clusters),
            feature_names=small_data.feature_names,
        )
        p1, r1 = train(SMALL_CFG, small_data)
        p2, r2 = train(SMALL_CFG, tampered)
        assert params_equal(p1, p2)
        assert [rec.mean_loss for rec in r1] == [rec.mean_loss for rec in r2]
        assert r1[-1].acc != r2[-1].acc


class TestPredictEvaluate:
    def test_one_hot_rows_pick_their_index(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        labels = predict(params, small_data.X)
        cache = forward(params, small_data.X)
        np.testing.assert_array_equal(labels.labels, np.argmax(cache.c, axis=1))

    def test_zero_instance_embedding_row_still_predicted(self, small_data):
        # zero biases map a zero input row to y_z = 0, which forward cannot normalize
        params = init_params(0, ModelDims(input_dim=small_data.d, num_clusters=3))
        x = small_data.X.copy()
        x[0] = 0.0
        labels = predict(params, x).labels
        assert labels[0] == 0  # all-zero cluster logits tie; argmax picks the lowest index
        np.testing.assert_array_equal(labels[1:], np.argmax(forward(params, x[1:]).c, axis=1))

    def test_tie_breaks_to_lowest_index(self):
        # argmax over an exactly tied row must pick the first index
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0

    def test_batch_size_independence(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        whole = predict(params, small_data.X).labels
        chunks = [predict(params, small_data.X[i : i + 7]).labels for i in range(0, 64, 7)]
        np.testing.assert_array_equal(np.concatenate(chunks), whole)

    def test_evaluate_matches_direct_metric_calls(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        out = evaluate(params, small_data)
        pred = predict(params, small_data.X)
        assert out["acc"] == accuracy(pred, small_data.truth)
        assert out["nmi"] == nmi(pred, small_data.truth)
        assert out["ari"] == ari(pred, small_data.truth)
        assert sum(out["cluster_sizes"]) == small_data.n

    def test_unlabeled_report(self, small_data):
        params, _ = train_init(SMALL_CFG, small_data)
        out = evaluate(params, replace(small_data, truth=None))
        assert "acc" not in out
        assert "assignment_entropy" in out
        assert out["assignment_entropy"] >= 0

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(2, 8), k=st.integers(1, 8), data=st.data())
    def test_one_table_scores_equal_the_metric_functions(self, m, k, data):
        """Labelled rows, some clusters of either partition empty: the sizes
        and scores of ``evaluate``'s one table are those of a ``bincount`` and
        of ``accuracy``/``nmi``/``ari``, exactly, and so are their errors."""
        n = data.draw(st.integers(2, 300), label="n")
        labels = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        truth = Partition(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k)
        params = init_params(0, ModelDims(input_dim=1, encoder_hidden=(1,), z_dim=1, num_clusters=m))
        pred = Partition(labels, m)
        out = evaluate(params, LabelledRows(labels, truth))
        assert out["cluster_sizes"] == np.bincount(labels, minlength=m).tolist()
        assert out["acc"] == accuracy(pred, truth)
        assert out["nmi"] == nmi(pred, truth)
        assert out["ari"] == ari(pred, truth)
        one_row = Partition(truth.labels[:1], k)
        for rows, want in [
            (LabelledRows(labels[:1], one_row), "ari requires at least 2 samples"),
            (LabelledRows(labels[1:], truth), f"partition lengths differ: {n - 1} vs {n}"),
        ]:
            with pytest.raises(ShapeError, match=re.escape(want)):
                ari(Partition(rows.labels, m), rows.truth)
            with pytest.raises(ShapeError, match=re.escape(want)):
                evaluate(params, rows)

    def test_perfect_model_scores_full_accuracy(self):
        """A hand-built network that routes each axis-aligned blob to its own
        cluster must score ACC 1.0."""
        from crossclust.data import Dataset
        from crossclust.model import ModelDims, init_params

        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=30)
        x = 5.0 * np.eye(3)[labels] + rng.normal(scale=0.1, size=(30, 3)).clip(-0.4, 0.4)
        data = Dataset(X=x, truth=Partition(labels, 3))

        dims = ModelDims(input_dim=3, encoder_hidden=(3, 3), z_dim=2, num_clusters=3)
        params = init_params(0, dims)
        params.flat[:] = 0.0
        for layer in params.encoder:
            layer.weight[:] = np.eye(3)
        params.cluster_head[0].weight[:] = 10.0 * np.eye(3)
        params.instance_head[0].weight[:] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

        out = evaluate(params, data)
        assert out["acc"] == 1.0
        assert out["nmi"] == pytest.approx(1.0, abs=1e-12)
        assert out["ari"] == 1.0


class TestHistoryIO:
    def test_round_trip(self, tmp_path, small_data):
        _, records = train(SMALL_CFG, small_data)
        path = tmp_path / "history.jsonl"
        write_history(records, path)
        again = read_history(path)
        assert again == records

    def test_unlabeled_records_omit_metric_keys(self, tmp_path, small_data):
        _, records = train(SMALL_CFG, replace(small_data, truth=None))
        path = tmp_path / "history.jsonl"
        write_history(records, path)
        assert '"acc"' not in path.read_text()
        assert read_history(path) == records

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = EpochRecord(stage="init", epoch=1, mean_loss=1.0, avg_positive_pairs=2.0)
        write_history([good], path)
        with open(path, "a") as fh:
            fh.write('{"stage": "init", "bogus": 1}\n')
        from crossclust.errors import CsvFormatError

        with pytest.raises(CsvFormatError, match="line"):
            read_history(path)

    def test_full_run_record_count(self, small_data):
        _, records = train(SMALL_CFG, small_data)
        assert len(records) == SMALL_CFG.init_epochs + SMALL_CFG.c3_epochs + 1


BLAS = openblas() if sys.platform.startswith("linux") else None
needs_blas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS whose thread count can be set")


def count_producers(monkeypatch, cpus=None) -> list:
    """Report ``cpus`` usable CPUs (the real count when None) and return the
    list that gets one entry per process forked to write into a pipe."""
    if cpus is not None:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    forked, fork_writer = [], parallel.fork_writer

    def spy(*args):
        child = fork_writer(*args)
        forked.append(args[0].__name__)
        return child

    monkeypatch.setattr(parallel, "fork_writer", spy)
    return forked


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PRODUCER_DATA = generate_blobs(seed=5, n=256, d=8, clusters=3, separation=6.0, sigma=1.0)
PRODUCER_CFG = SMALL_CFG.override(batch_size=128, c3_epochs=1)


def train_in_process(cfg, data, monkeypatch):
    with monkeypatch.context() as patch:
        forked = count_producers(patch, cpus=1)
        result = train(cfg, data)
    assert forked == []
    return result


def assert_same_run(got, want):
    assert got[0].flat.tobytes() == want[0].flat.tobytes()
    assert got[1] == want[1]


class TestAugmentationProducer:
    @needs_blas
    @pytest.mark.parametrize("batch_size", [128, 96], ids=["b128", "b96_drops_64_rows"])
    def test_same_bits_as_in_process_augmentation(self, monkeypatch, batch_size):
        cfg = PRODUCER_CFG.override(batch_size=batch_size)
        want = train_in_process(cfg, PRODUCER_DATA, monkeypatch)
        forked = count_producers(monkeypatch, cpus=2)
        got = train(cfg, PRODUCER_DATA)
        assert forked == ["_send_views", "_send_views"]  # one per stage
        assert_same_run(got, want)
        assert_no_child_process()

    @needs_blas
    def test_producer_killed_after_its_first_batch_gives_the_same_result(self, monkeypatch):
        import crossclust.trainer as trainer

        want = train_in_process(PRODUCER_CFG, PRODUCER_DATA, monkeypatch)
        parent, augment, here, in_producer = os.getpid(), trainer.augment_batch, [], []

        def producer_killed_after_first_batch(*args, **kwargs):
            if os.getpid() == parent:
                here.append(None)
            else:
                in_producer.append(None)  # the producer's own copy of the list
                if len(in_producer) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return augment(*args, **kwargs)

        monkeypatch.setattr(trainer, "augment_batch", producer_killed_after_first_batch)
        forked = count_producers(monkeypatch, cpus=2)
        got = train(PRODUCER_CFG, PRODUCER_DATA)
        assert len(forked) == 2
        batches = (PRODUCER_CFG.init_epochs + PRODUCER_CFG.c3_epochs + 1) * 2
        assert len(here) == batches - 2  # each stage read its first batch from the producer
        assert_same_run(got, want)
        assert_no_child_process()

    @needs_blas
    @pytest.mark.parametrize("threads", [1, 2], ids=["default_1_thread", "default_2_threads"])
    @pytest.mark.parametrize("cpus", [1, 2, 64], ids=["1_cpu", "2_cpus", "64_cpus"])
    def test_batch_250_gives_the_bits_of_one_blas_thread_on_any_host(self, monkeypatch, cpus, threads):
        # OpenBLAS rounds the 500 x 500 cosine matrix differently on one
        # thread and on two, so this run tells the thread count apart.
        data = generate_blobs(seed=1, n=250, d=8, clusters=5, separation=6.0, sigma=1.0)
        cfg = TrainConfig(M=5, init_epochs=1, c3_epochs=1, batch_size=250, seed=1)
        get_threads, set_threads, _ = BLAS
        before = get_threads()
        try:
            set_threads(1)
            want = train_in_process(cfg, data, monkeypatch)
            set_threads(threads)
            forked = count_producers(monkeypatch, cpus=cpus)
            got = train(cfg, data)
            assert get_threads() == threads
        finally:
            set_threads(before)
        assert len(forked) == (2 if cpus >= 2 else 0)
        assert_same_run(got, want)

    @needs_blas
    @pytest.mark.parametrize("cpus", [2, 64], ids=["two_cpus", "spare_cpus"])
    @pytest.mark.parametrize("ending", ["completes", "non_finite", "interrupt"])
    def test_blas_runs_on_one_thread_then_is_restored(
        self, small_data, monkeypatch, ending, cpus
    ):
        import crossclust.trainer as trainer

        get_threads = BLAS.get_threads
        before, seen, objective = get_threads(), [], trainer.c3_objective

        def watched(*args, **kwargs):
            seen.append(get_threads())
            loss, d_s, pairs = objective(*args, **kwargs)
            if ending == "interrupt":
                raise KeyboardInterrupt
            return (float("nan") if ending == "non_finite" else loss), d_s, pairs

        monkeypatch.setattr(trainer, "c3_objective", watched)
        forked = count_producers(monkeypatch, cpus=cpus)
        if ending == "completes":
            train(SMALL_CFG, small_data)
        else:
            with pytest.raises(NonFiniteError if ending == "non_finite" else KeyboardInterrupt):
                train(SMALL_CFG, small_data)
        assert len(forked) == 2 and seen and set(seen) == {1}
        assert get_threads() == before
        assert_no_child_process()

    @pytest.mark.parametrize("case", ["real_affinity", "one_cpu", "not_linux", "no_blas"])
    def test_producer_only_on_linux_with_two_cpus_and_settable_blas(
        self, small_data, monkeypatch, case
    ):
        want = train_in_process(SMALL_CFG, small_data, monkeypatch)
        forked = count_producers(monkeypatch, cpus={"one_cpu": 1, "no_blas": 2}.get(case))
        if case == "not_linux":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
            monkeypatch.setattr(sys, "platform", "darwin")
        if case == "no_blas":
            monkeypatch.setattr(parallel, "openblas", lambda: None)
        got = train(SMALL_CFG, small_data)
        producer = case == "real_affinity" and BLAS is not None and len(os.sched_getaffinity(0)) >= 2
        assert len(forked) == (2 if producer else 0)
        assert_same_run(got, want)

    @needs_blas
    def test_failed_fork_augments_in_process(self, small_data, monkeypatch):
        want = train_in_process(SMALL_CFG, small_data, monkeypatch)
        get_threads = BLAS.get_threads
        before, forks = get_threads(), []

        def no_process_to_spare():
            forks.append(None)
            raise BlockingIOError("no process to spare")

        count_producers(monkeypatch, cpus=2)
        monkeypatch.setattr(os, "fork", no_process_to_spare)
        got = train(SMALL_CFG, small_data)
        assert len(forks) == 2
        assert_same_run(got, want)
        assert get_threads() == before

    def test_epoch_zero_computes_no_c3_gradient(self, small_data, monkeypatch):
        import crossclust.trainer as trainer

        grads, objective = [], trainer.c3_objective

        def watched(*args, grad=True, **kwargs):
            grads.append(grad)
            return objective(*args, grad=grad, **kwargs)

        monkeypatch.setattr(trainer, "c3_objective", watched)
        train_c3(init_params(0, ModelDims(6, (24, 12), 6, 3)), SMALL_CFG, small_data)
        per_epoch = small_data.n // SMALL_CFG.batch_size
        assert grads == [False] * per_epoch + [True] * per_epoch * SMALL_CFG.c3_epochs


HELPER_DATA = generate_blobs(seed=2, n=768, d=8, clusters=3, separation=6.0, sigma=1.0)
HELPER_CFG = TrainConfig(M=3, init_epochs=1, c3_epochs=1, batch_size=384, seed=2)  # 2N = 768


def watch_helpers(monkeypatch) -> list:
    """Return the list that gets, per stage helper started, the number of
    threads alive once it runs."""
    started, helper_thread = [], parallel.helper_thread

    @contextlib.contextmanager
    def spy():
        with helper_thread() as split:
            started.append(threading.active_count())
            yield split

    monkeypatch.setattr(parallel, "helper_thread", spy)
    return started


def assert_main_thread_only():
    assert threading.enumerate() == [threading.main_thread()]


class TestStageHelper:
    @needs_blas
    @pytest.mark.parametrize("batch_size", [250, 500, 512])
    def test_same_bits_as_one_blas_thread_in_process(self, monkeypatch, batch_size):
        import crossclust.trainer as trainer

        data = generate_blobs(seed=1, n=2 * batch_size, d=8, clusters=5, separation=6.0, sigma=1.0)
        cfg = TrainConfig(M=5, init_epochs=1, c3_epochs=1, batch_size=batch_size, seed=1)
        get_threads, set_threads, _ = BLAS
        before = get_threads()
        try:
            set_threads(1)
            want = train_in_process(cfg, data, monkeypatch)
            set_threads(before)
            helpers = watch_helpers(monkeypatch)
            count_producers(monkeypatch, cpus=2)
            got = train(cfg, data)
        finally:
            set_threads(before)
        assert len(helpers) == (2 if 2 * batch_size >= trainer._HELPER_MIN_ROWS else 0)
        assert_same_run(got, want)
        assert_main_thread_only()

    @needs_blas
    @pytest.mark.parametrize(
        "cpus, cfg, blas",
        [
            (2, HELPER_CFG, True),
            (64, HELPER_CFG, True),
            (1, HELPER_CFG, True),
            (2, SMALL_CFG, True),
            (2, HELPER_CFG, False),
        ],
        ids=["two_cpus", "spare_cpus", "one_cpu", "small_batch", "no_blas"],
    )
    def test_helper_only_while_blas_runs_on_one_thread_at_large_batch(
        self, monkeypatch, cpus, cfg, blas
    ):
        import crossclust.trainer as trainer

        get_threads = BLAS.get_threads
        before, seen, objectives = get_threads(), [], {}

        def watched(name):
            def objective(*args, split=None, **kwargs):
                seen.append((get_threads(), split is not None))
                return objectives[name](*args, split=split, **kwargs)

            return objective

        for name in ("instance_objective", "c3_objective"):
            objectives[name] = getattr(trainer, name)
            monkeypatch.setattr(trainer, name, watched(name))
        helpers = watch_helpers(monkeypatch)
        count_producers(monkeypatch, cpus=cpus)
        data = HELPER_DATA if cfg is HELPER_CFG else generate_blobs(
            seed=11, n=64, d=6, clusters=3, separation=6.0, sigma=1.0
        )
        if not blas:
            monkeypatch.setattr(parallel, "openblas", lambda: None)
        train(cfg, data)
        threads = 1 if blas else before  # whatever the CPU count
        helper = blas and cpus >= 2 and 2 * cfg.batch_size >= trainer._HELPER_MIN_ROWS
        assert seen and set(seen) == {(threads, helper)}
        assert helpers == ([2, 2] if helper else [])  # the main thread and one helper
        assert get_threads() == before

    @needs_blas
    def test_only_the_main_thread_runs_when_a_process_forks(self, tmp_path, monkeypatch):
        import crossclust.data as data_module

        path = tmp_path / "train.csv"
        save_csv(HELPER_DATA, path)
        forks, fork_writer = [], parallel.fork_writer

        def spy(write, *args):
            forks.append((write.__name__, threading.active_count()))
            return fork_writer(write, *args)

        monkeypatch.setattr(parallel, "fork_writer", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        helpers = watch_helpers(monkeypatch)
        for _ in range(2):
            data = load_csv(path, "label")
            params, _ = train(HELPER_CFG, data)
            load_eval_rows(params, Standardization.of(data), path, "label")
        assert len(helpers) == 4
        assert forks == [("_send_views", 1), ("_send_views", 1), ("_send_part", 1)] * 2
        assert_no_child_process()

    @needs_blas
    @pytest.mark.parametrize("ending", ["completes", "non_finite", "interrupt"])
    def test_no_helper_left_after_the_run(self, monkeypatch, ending):
        import crossclust.trainer as trainer

        objective, helpers = trainer.c3_objective, watch_helpers(monkeypatch)

        def watched(*args, **kwargs):
            loss, d_s, pairs = objective(*args, **kwargs)
            if ending == "interrupt":
                raise KeyboardInterrupt
            return (float("nan") if ending == "non_finite" else loss), d_s, pairs

        monkeypatch.setattr(trainer, "c3_objective", watched)
        count_producers(monkeypatch, cpus=2)
        if ending == "completes":
            train(HELPER_CFG, HELPER_DATA)
        else:
            with pytest.raises(NonFiniteError if ending == "non_finite" else KeyboardInterrupt):
                train(HELPER_CFG, HELPER_DATA)
        assert helpers == [2, 2]
        assert_main_thread_only()
        assert_no_child_process()

    @needs_blas
    def test_failed_thread_start_runs_serially(self, monkeypatch):
        count_producers(monkeypatch, cpus=2)
        want = train(HELPER_CFG, HELPER_DATA)
        helpers = watch_helpers(monkeypatch)

        def no_thread_to_spare(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread_to_spare)
        got = train(HELPER_CFG, HELPER_DATA)
        assert helpers == [1, 1]  # both stages went on without a helper
        assert_same_run(got, want)


BLOCK_ROWS = 8  # rows per label block in the tests below


@functools.cache
def label_params(m):
    """Briefly trained parameters, which give random rows varied labels."""
    data = generate_blobs(seed=m, n=64, d=6, clusters=m, separation=6.0, sigma=1.0)
    cfg = SMALL_CFG.override(M=m, init_epochs=2, c3_epochs=0)
    return train_init(cfg, data)[0]


def label_rows(n, seed=0):
    return 2.0 * np.random.default_rng(seed).normal(size=(n, 6))


def one_thread_labels(params, x):
    """Labels of the one-process path on one OpenBLAS thread."""
    before = BLAS.get_threads()
    try:
        BLAS.set_threads(1)
        return np.argmax(cluster_probabilities(params, x), axis=1)
    finally:
        BLAS.set_threads(before)


def watch_blas_in_parent(monkeypatch, fail=None) -> list:
    """Return the list that gets the BLAS thread count each time this
    process calls ``cluster_labels``; ``fail`` is then raised there, if given."""
    import crossclust.trainer as trainer

    parent, labels, seen = os.getpid(), trainer.cluster_labels, []

    def watched(params, x):
        if os.getpid() == parent:
            seen.append(BLAS.get_threads())
            if fail is not None:
                raise fail
        return labels(params, x)

    monkeypatch.setattr(trainer, "cluster_labels", watched)
    return seen


class TestPredictThreads:
    @needs_blas
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 3 * BLOCK_ROWS, 6 * BLOCK_ROWS + 3])
    def test_labels_here_on_the_current_thread_count(self, monkeypatch, threads, n):
        # Setting the count costs even when it does not change it: a set per
        # epoch slowed training by 25-30% (README, "Processes and threads").
        import crossclust.model as model
        import crossclust.trainer as trainer

        monkeypatch.setattr(model, "_BLOCK_ENTRIES", BLOCK_ROWS * max(SMALL_CFG.dims.hidden))
        params, x = label_params(5), label_rows(n, seed=n)
        want = np.argmax(cluster_probabilities(params, x), axis=1)
        forked = count_producers(monkeypatch)
        seen = watch_blas_in_parent(monkeypatch)
        lookups = []
        monkeypatch.setattr(parallel, "openblas", lambda: lookups.append(1) or BLAS)
        before = BLAS.get_threads()
        try:
            BLAS.set_threads(threads)
            got = predict(params, x)
        finally:
            BLAS.set_threads(before)
        assert seen == [threads] and lookups == [] and forked == []
        np.testing.assert_array_equal(got.labels, want)
        assert got.labels.dtype == np.int64 and got.num_clusters == 5


def eval_csv(path, n, seed=0):
    """Write ``n`` labelled rows of 6 features and return statistics of other
    rows, as a checkpoint of a training run stores them."""
    x = label_rows(n, seed=seed)
    truth = Partition(np.arange(n) % 4, 4)
    save_csv(Dataset(X=x, truth=truth, feature_names=tuple("abcdef")), path)
    return Standardization.of(Dataset(X=0.5 + label_rows(40, seed=seed + 1), feature_names=tuple("abcdef")))


class TestEvalRows:
    @needs_blas
    def test_part_boundary_inside_a_row_block_gives_the_labels_of_the_whole(
        self, tmp_path, monkeypatch
    ):
        import crossclust.data as data_module
        import crossclust.model as model

        path = tmp_path / "large.csv"
        stats = eval_csv(path, 36_000, seed=5)
        assert path.stat().st_size >= 2 * data_module._PARALLEL_PART_BYTES
        params = label_params(5)
        whole = standardize(load_csv(path, "label"), stats)
        want = one_thread_labels(params, whole.X)
        assert len(set(want.tolist())) > 1
        start, boundary, _ = data_module._part_bounds(path, 2)
        with open(path, "rb") as fh:
            fh.seek(start)
            first_part_rows = fh.read(boundary - start).count(b"\n")
        assert first_part_rows % (model._BLOCK_ENTRIES // max(SMALL_CFG.dims.hidden)) != 0
        forked = count_producers(monkeypatch, cpus=2)
        seen = watch_blas_in_parent(monkeypatch)
        before = BLAS.get_threads()
        got = load_eval_rows(params, stats, path, "label")
        assert isinstance(got, LabelledRows) and forked == ["_send_part"]
        assert seen == [1]  # the parent's part, on one thread
        np.testing.assert_array_equal(got.labels, want)
        np.testing.assert_array_equal(got.truth.labels, whole.truth.labels)
        assert evaluate(params, got) == evaluate(params, whole)
        assert BLAS.get_threads() == before
        assert_no_child_process()

    @pytest.mark.parametrize(
        "case",
        ["parts", "real_affinity", "one_cpu", "second_thread", "no_blas", "dead_part", "small_file"],
    )
    def test_every_path_gives_the_one_process_json(self, tmp_path, monkeypatch, case):
        import crossclust.data as data_module

        path = tmp_path / "rows.csv"
        stats = eval_csv(path, 60)
        params = label_params(3)
        want = evaluate(params, standardize(load_csv(path, "label"), stats))
        if case != "small_file":
            monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        forked = count_producers(monkeypatch, {"one_cpu": 1, "real_affinity": None}.get(case, 3))
        if case == "no_blas":
            monkeypatch.setattr(parallel, "openblas", lambda: None)
        if case == "dead_part":
            monkeypatch.setattr(data_module, "_send_part", lambda *args: os._exit(3))
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if case == "second_thread":
            waiter.start()
        try:
            got = load_eval_rows(params, stats, path, "label")
        finally:
            release.set()
            if case == "second_thread":
                waiter.join(timeout=10)
        cpus = len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1
        # every file is labelled by label_csv, whatever its size and path
        assert isinstance(got, LabelledRows)
        # parts are labelled where they are parsed; after dead parts the file is
        # parsed in one process, and no process forks beside a second thread or
        # where OpenBLAS's count cannot be set
        parsers = {"parts": 2, "dead_part": 2, "real_affinity": cpus - 1}.get(case, 0)
        assert len(forked) == parsers
        assert evaluate(params, got) == want
        assert_no_child_process()

    @needs_blas
    def test_file_under_two_parts_labels_on_the_callers_thread_count(self, tmp_path, monkeypatch):
        import crossclust.data as data_module

        path = tmp_path / "rows.csv"
        stats = eval_csv(path, 60)
        assert data_module._whole_parts(path) < 2
        params = label_params(3)
        want = evaluate(params, standardize(load_csv(path, "label"), stats))
        forked = count_producers(monkeypatch, 3)
        seen = watch_blas_in_parent(monkeypatch)
        lookups = []
        monkeypatch.setattr(parallel, "openblas", lambda: lookups.append(1) or BLAS)
        before = BLAS.get_threads()
        try:
            BLAS.set_threads(2)
            got = load_eval_rows(params, stats, path, "label")
        finally:
            BLAS.set_threads(before)
        assert seen == [2] and lookups == [] and forked == []
        assert evaluate(params, got) == want

    @needs_blas
    @pytest.mark.parametrize("case", ["parts", "one_cpu", "failed_fork", "dead_part"])
    def test_labels_on_one_blas_thread_whether_or_not_parts_label(self, tmp_path, monkeypatch, case):
        import crossclust.data as data_module

        path = tmp_path / "rows.csv"
        stats = eval_csv(path, 60)
        params = label_params(3)
        monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        forked = count_producers(monkeypatch, 1 if case == "one_cpu" else 3)
        if case == "failed_fork":
            monkeypatch.setattr(os, "fork", lambda: (_ for _ in ()).throw(BlockingIOError()))
        if case == "dead_part":
            monkeypatch.setattr(data_module, "_send_part", lambda *args: os._exit(3))
        seen = watch_blas_in_parent(monkeypatch)
        before = BLAS.get_threads()
        try:
            BLAS.set_threads(2)
            result = evaluate(params, load_eval_rows(params, stats, path, "label"))
            assert BLAS.get_threads() == 2
        finally:
            BLAS.set_threads(before)
        # the parent labels its own part, then, if the parse in parts failed
        # after it, every row again after the one-process parse
        assert seen == {"parts": [1], "dead_part": [1, 1]}.get(case, [1])
        assert len(forked) == {"parts": 2, "one_cpu": 0, "failed_fork": 0, "dead_part": 2}[case]
        assert result == evaluate(params, standardize(load_csv(path, "label"), stats))
        assert_no_child_process()

    @needs_blas
    @pytest.mark.parametrize("fail", [ValueError("labelling failed"), KeyboardInterrupt()])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_blas_count_restored_and_no_part_left_when_labelling_fails(
        self, tmp_path, monkeypatch, cpus, fail
    ):
        import crossclust.data as data_module

        path = tmp_path / "rows.csv"
        stats = eval_csv(path, 60)
        monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        count_producers(monkeypatch, cpus)
        seen = watch_blas_in_parent(monkeypatch, fail)
        before = BLAS.get_threads()
        try:
            BLAS.set_threads(2)
            with pytest.raises(type(fail)):
                load_eval_rows(label_params(3), stats, path, "label")
            assert BLAS.get_threads() == 2
        finally:
            BLAS.set_threads(before)
        assert set(seen) == {1}
        assert_no_child_process()

    def test_header_other_than_the_stored_names_is_refused(self, tmp_path):
        path = tmp_path / "rows.csv"
        stats = eval_csv(path, 10)
        stats = Standardization(stats.mean, stats.std, tuple("abcxef"))
        with pytest.raises(CsvFormatError, match="header feature 4 is 'd'; the checkpoint's is 'x'"):
            load_eval_rows(label_params(3), stats, path, "label")

