import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossclust.augment import AugmentConfig, augment_batch
from crossclust.config import DimsSpec, TrainConfig
from crossclust.data import Dataset, generate_blobs
from crossclust.errors import ConfigError, CrossclustError, DegenerateRowError, NonFiniteError
from crossclust.losses import c3_loss, chain_to_embeddings, compute_weights, positive_mask
from crossclust.metrics import Partition, accuracy, ari, nmi
from crossclust.model import ModelDims, backward, forward, grad_check, init_params
from crossclust.numerics import similarity_matrix
from crossclust.trainer import (
    EpochRecord,
    evaluate,
    predict,
    read_history,
    train,
    train_c3,
    train_init,
    write_history,
)

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
        _, records = train_init(SMALL_CFG, small_data.without_labels())
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

        def poisoned(*args):
            _, d_s, pairs = real(*args)
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
    ).validate()
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
        # raw inputs far from unit scale saturate the cluster softmax, so the
        # norm of a view's whole assignment column underflows to zero
        import crossclust.trainer as trainer

        cfg = TrainConfig(
            M=2, init_epochs=1, c3_epochs=1, batch_size=8, seed=154,
            dims=DimsSpec(hidden=(8,), z_dim=2),
        )
        data = Dataset(X=np.random.default_rng(154).uniform(-1e3, 1e3, (16, 2)))
        pattern = (
            r"zero-norm cluster column in stage 'init' at epoch 1, batch 0: "
            r"view ([ab]), cluster (\d+)"
        )
        with pytest.raises(DegenerateRowError, match=f"^{pattern}$") as exc:
            train(cfg, data)
        view, cluster = re.fullmatch(pattern, str(exc.value)).groups()
        assert exc.value.row == "ab".index(view) * cfg.M + int(cluster)
        # the named column's norm underflows to zero in batch 0's stacked pass
        dims = trainer._model_dims(cfg, data)
        params = init_params(trainer._stream(cfg.seed, "params"), dims)
        _, idx = next(trainer._epoch_batches(cfg.seed, "init", 1, data.n, cfg.batch_size))
        key = trainer._batch_key(cfg.seed, "init", 1, 0)
        x_a, x_b = augment_batch(cfg.augment, data.X[idx], key, row_keys=idx)
        c = forward(params, np.vstack([x_a, x_b])).c.reshape(2, len(idx), cfg.M)
        assert np.linalg.norm(c["ab".index(view), :, int(cluster)]) == 0.0


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
        out = evaluate(params, small_data.without_labels())
        assert "acc" not in out
        assert "assignment_entropy" in out
        assert out["assignment_entropy"] >= 0

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
        _, records = train(SMALL_CFG, small_data.without_labels())
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
