import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    backward_reference,
    cluster_probabilities,
    cluster_probabilities_reference,
    forward_reference,
    grad_check,
)

import crossclust.model as model
from crossclust.errors import ConfigError, NonFiniteError, ShapeError
from crossclust.losses import chain_to_embeddings, init_cluster_loss, init_instance_loss
from crossclust.model import (
    AdamState,
    ModelDims,
    adam_step,
    backward,
    cluster_labels,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from crossclust.numerics import similarity_matrix

SMALL_DIMS = ModelDims(input_dim=6, encoder_hidden=(16, 8), z_dim=4, num_clusters=3)
ODD_DIMS = ModelDims(input_dim=17, encoder_hidden=(33, 9), z_dim=4, num_clusters=3)
PROTOCOL_DIMS = ModelDims(input_dim=32, encoder_hidden=(128, 64), z_dim=32, num_clusters=5)
ALL_DIMS = [SMALL_DIMS, ODD_DIMS, PROTOCOL_DIMS]
DEFAULT_DIMS = ModelDims(input_dim=32)
CHECKPOINT_V1 = Path(__file__).parent / "data" / "checkpoint_v1.json"


def standardization(d):
    """Training statistics of ``d`` features, with bits that JSON must keep."""
    from crossclust.data import Standardization

    rng = np.random.default_rng(d)
    std = rng.uniform(0.5, 2.0, size=d)
    std[0] = 1.0  # a constant feature
    mean = rng.normal(size=d)
    mean[-1] = 5e-324
    return Standardization(mean, std, tuple(f"feature {j}" for j in range(d)))


def params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()))


def zeros_like(p):
    return replace(p, flat=np.zeros_like(p.flat))


def init_stage_loss(x_a, x_b, tau_i=0.5, tau_c=1.0):
    """Combined initialization objective as a function of the parameters,
    computed like a training step: both views stacked in one forward/backward."""
    n = x_a.shape[0]
    x = np.vstack([x_a, x_b])

    def fn(p):
        cache = forward(p, x)
        loss_i, d_s = init_instance_loss(similarity_matrix(cache.z), tau_i)
        loss_c, d_ca, d_cb = init_cluster_loss(cache.c[:n], cache.c[n:], tau_c)
        d_z = chain_to_embeddings(d_s, cache.z)
        grads = backward(p, cache, d_z, np.vstack([d_ca, d_cb]))
        return loss_i + loss_c, grads

    return fn


class TestInitParams:
    def test_same_seed_identical(self):
        assert params_equal(init_params(7, SMALL_DIMS), init_params(7, SMALL_DIMS))

    def test_different_seeds_differ(self):
        a, b = init_params(0, SMALL_DIMS), init_params(1, SMALL_DIMS)
        assert not params_equal(a, b)

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ConfigError):
            ModelDims(input_dim=6, encoder_hidden=(16, 0), z_dim=4, num_clusters=3)

    def test_biases_start_at_zero(self):
        p = init_params(0, SMALL_DIMS)
        for name, arr in p.named_arrays():
            if name.endswith("bias"):
                np.testing.assert_array_equal(arr, 0.0)

    def test_fan_in_scaling(self):
        dims = ModelDims(input_dim=400, encoder_hidden=(300,), z_dim=4, num_clusters=3)
        p = init_params(0, dims)
        w = p.encoder[0].weight
        assert w.std() == pytest.approx(1.0 / np.sqrt(400), rel=0.1)


class TestForward:
    def test_batch_of_one_shapes(self):
        p = init_params(0, SMALL_DIMS)
        cache = forward(p, np.ones((1, 6)))
        assert cache.z.shape == (1, 4)
        assert cache.c.shape == (1, 3)

    def test_z_unit_and_c_simplex_on_random_inputs(self):
        rng = np.random.default_rng(0)
        p = init_params(1, SMALL_DIMS)
        cache = forward(p, rng.normal(size=(32, 6)))
        np.testing.assert_allclose(np.linalg.norm(cache.z, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(cache.c.sum(axis=1), 1.0, atol=1e-9)
        assert (cache.c >= 0).all()

    def test_c_matches_independent_softmax(self):
        rng = np.random.default_rng(2)
        p = init_params(3, SMALL_DIMS)
        x = rng.normal(size=(5, 6))
        cache = forward(p, x)
        # recompute the whole cluster path by hand
        h = x
        for layer in p.encoder:
            h = np.maximum(h @ layer.weight + layer.bias, 0.0)
        logits = h @ p.cluster_head[0].weight + p.cluster_head[0].bias
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(cache.c, expected, atol=1e-9)

    def test_zero_weight_network_surfaces_degenerate_row(self):
        from crossclust.errors import DegenerateRowError

        p = zeros_like(init_params(0, SMALL_DIMS))
        with pytest.raises(DegenerateRowError):
            forward(p, np.ones((2, 6)))

    def test_dimension_mismatch(self):
        p = init_params(0, SMALL_DIMS)
        with pytest.raises(ShapeError):
            forward(p, np.ones((2, 7)))

    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(4)
        p = init_params(5, SMALL_DIMS)
        x = rng.normal(size=(17, 6))
        c1, c2 = forward(p, x), forward(p, x)
        np.testing.assert_array_equal(c1.z, c2.z)
        np.testing.assert_array_equal(c1.c, c2.c)
        np.testing.assert_array_equal(c1.h, c2.h)


def with_random_biases(params, seed):
    """``params`` with every bias drawn at random: a row whose last hidden
    activation is all zero still gets a nonzero instance embedding."""
    rng = np.random.default_rng(seed)
    params = replace(params, flat=params.flat.copy())
    for name, arr in params.named_arrays():
        if name.endswith(".bias"):
            arr[...] = rng.normal(scale=0.1, size=arr.shape)
    return params


def assert_same_bits(got, want, name):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


class TestReferencePins:
    """forward and backward keep the bits of the chain-based pass that kept
    every pre-activation and formed the gradient w.r.t. x."""

    @pytest.mark.parametrize("dims", [SMALL_DIMS, DEFAULT_DIMS], ids=["small", "default"])
    @pytest.mark.parametrize("n2", [2, 16, 130, 256, 1000, 1024])
    def test_same_bits_as_the_chain_reference(self, dims, n2):
        rng = np.random.default_rng(n2)
        p = with_random_biases(init_params(n2, dims), seed=n2)
        x = rng.normal(size=(n2, dims.input_dim))
        cache, ref = forward(p, x), forward_reference(p, x)
        for name in ("z", "c", "h"):
            assert_same_bits(getattr(cache, name), getattr(ref, name), name)
        assert 0 < (cache.h > 0).mean() < 1  # the ReLU masks are not trivial
        g_z, g_c = rng.normal(size=cache.z.shape), rng.normal(size=cache.c.shape)
        for grad_c in (g_c, None):
            got = backward(p, cache, g_z, grad_c)
            want = backward_reference(p, ref, g_z, grad_c)
            assert_same_bits(got.flat, want.flat, f"grads, grad_c given: {grad_c is not None}")

    def test_cache_holds_only_what_backward_reads(self):
        # x, one activation per encoder layer, z, z_norms and c: no
        # pre-activation, no separate h, no head pre-output
        dims, n2 = DEFAULT_DIMS, 1024
        x = np.random.default_rng(0).normal(size=(n2, dims.input_dim))
        cache = forward(with_random_biases(init_params(0, dims), seed=0), x)
        held = {}
        for value in vars(cache).values():
            for arr in value if isinstance(value, list) else [value]:
                while arr.base is not None:
                    arr = arr.base
                held[id(arr)] = arr.nbytes
        widths = [dims.input_dim, *dims.encoder_hidden, dims.z_dim, 1, dims.num_clusters]
        assert sum(held.values()) == n2 * 8 * sum(widths)
        assert cache.x is x and cache.h is cache.acts[-1]


def widest(dims):
    return max(*dims.encoder_hidden, dims.num_clusters)


def block_rows(dims):
    """Rows per block of ``cluster_probabilities`` at ``dims``."""
    return model._BLOCK_ENTRIES // widest(dims)


class TestClusterProbabilities:
    @pytest.mark.parametrize("dims", ALL_DIMS, ids=["small", "odd", "protocol"])
    def test_one_block_is_bit_identical_to_single_pass_and_forward(self, dims):
        rng = np.random.default_rng(6)
        p = init_params(7, dims)
        for n in [1, 2, 333, block_rows(dims)]:
            x = rng.normal(size=(n, dims.input_dim))
            c = cluster_probabilities(p, x)
            np.testing.assert_array_equal(c, cluster_probabilities_reference(p, x))
            if dims is PROTOCOL_DIMS:  # narrow heads give rows forward cannot normalize
                np.testing.assert_array_equal(c, forward(p, x).c)

    @pytest.mark.parametrize("dims", ALL_DIMS, ids=["small", "odd", "protocol"])
    @pytest.mark.parametrize("offset", [-1, 1, 9], ids=["block-1", "block+1", "2block+1"])
    def test_many_blocks_give_single_pass_labels(self, monkeypatch, dims, offset):
        # 8-row blocks; offset 9 is 2 * 8 + 1 rows.  Products of different
        # block shapes may round differently in the last bit.
        monkeypatch.setattr(model, "_BLOCK_ENTRIES", 8 * widest(dims))
        assert block_rows(dims) == 8
        rng = np.random.default_rng(8)
        p = init_params(9, dims)
        x = rng.normal(size=(8 + offset, dims.input_dim))
        c = cluster_probabilities(p, x)
        want = cluster_probabilities_reference(p, x)
        np.testing.assert_allclose(c, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(c, axis=1), np.argmax(want, axis=1))
        if offset < 0:
            np.testing.assert_array_equal(c, want)

    @pytest.mark.parametrize("width", [1, 3, 50, 1 << 40])
    def test_blocks_tile_the_rows_without_one_row_blocks(self, width):
        step = max(2, model._BLOCK_ENTRIES // width)
        for n in [0, 1, 2, 3, step - 1, step, step + 1, 2 * step + 1, 3 * step + 2]:
            blocks = model._row_blocks(n, width)
            bounds = [0, *(rows.stop for rows in blocks)]
            assert [rows.start for rows in blocks] == bounds[:-1] and bounds[-1] == n
            assert all(rows.stop - rows.start > 1 for rows in blocks) or n == 1
            assert all(rows.stop - rows.start <= step + 1 for rows in blocks)

    @pytest.mark.parametrize("offset", [0, 1, 3], ids=["whole_blocks", "one_row_tail", "short_tail"])
    def test_labels_are_the_argmax_of_the_probabilities(self, monkeypatch, offset):
        monkeypatch.setattr(model, "_BLOCK_ENTRIES", 8 * widest(ODD_DIMS))
        p = init_params(4, ODD_DIMS)
        x = np.random.default_rng(offset).normal(size=(6 * 8 + offset, ODD_DIMS.input_dim))
        got = cluster_labels(p, x)
        np.testing.assert_array_equal(got, np.argmax(cluster_probabilities(p, x), axis=1))
        assert got.dtype == np.int64

    @pytest.mark.parametrize("threads", [None, 1, 2], ids=["default", "1", "2"])
    def test_rows_have_the_same_bits_in_every_block_of_two_or_more_rows(self, threads):
        # Parse parts split the rows of a CSV at line starts, not at block
        # bounds, and label their rows in blocks of their own: a row's c must
        # not depend on the block it sits in.  One-row blocks are excluded;
        # they take BLAS's gemv path (model._row_blocks).
        from crossclust.data import generate_blobs
        from crossclust.numerics import openblas

        blas = openblas() if threads is not None else None
        if threads is not None and blas is None:
            pytest.skip("no OpenBLAS whose thread count can be set")
        rng = np.random.default_rng(3)
        p = init_params(11, PROTOCOL_DIMS)
        p.flat[:] += 0.05 * rng.standard_normal(p.flat.size)  # nonzero biases too
        x = generate_blobs(0, 2000, 32, 5, 6.0, 1.0).X
        before = blas.get_threads() if blas else None
        try:
            if blas:
                blas.set_threads(threads)
            whole = model._cluster_pass(p, x)
            for _ in range(300):
                r0 = int(rng.integers(0, len(x) - 1))
                r1 = int(rng.integers(r0 + 2, len(x) + 1))
                np.testing.assert_array_equal(model._cluster_pass(p, x[r0:r1]), whole[r0:r1])
        finally:
            if blas:
                blas.set_threads(before)

    def test_memory_stays_below_one_full_activation(self):
        # one 20 000 x 128 float64 activation is 20.48 MB; blocks keep far less alive
        p = init_params(0, PROTOCOL_DIMS)
        x = np.random.default_rng(0).normal(size=(20_000, 32))
        tracemalloc.start()
        try:
            c = cluster_probabilities(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.shape == (20_000, 5)
        assert peak < 20_000 * 128 * 8


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        p = init_params(6, SMALL_DIMS)
        cache = forward(p, rng.normal(size=(4, 6)))
        grads = backward(p, cache, np.zeros_like(cache.z), np.zeros_like(cache.c))
        for _, arr in grads.named_arrays():
            np.testing.assert_array_equal(arr, 0.0)

    def test_z_only_gradient_leaves_cluster_head_untouched(self):
        rng = np.random.default_rng(6)
        p = init_params(7, SMALL_DIMS)
        cache = forward(p, rng.normal(size=(4, 6)))
        grads = backward(p, cache, rng.normal(size=cache.z.shape), np.zeros_like(cache.c))
        for layer in grads.cluster_head:
            np.testing.assert_array_equal(layer.weight, 0.0)
            np.testing.assert_array_equal(layer.bias, 0.0)
        assert any(np.abs(l.weight).sum() > 0 for l in grads.encoder)

    def test_no_cluster_loss_equals_zero_cluster_gradient(self):
        # grad_c=None skips the cluster head; training's c3 steps rely on it
        # giving the same encoder and instance-head gradients as a zero grad_c
        rng = np.random.default_rng(12)
        p = init_params(13, SMALL_DIMS)
        cache = forward(p, rng.normal(size=(6, 6)))
        g_z = rng.normal(size=cache.z.shape)
        skipped = backward(p, cache, g_z, None)
        zeroed = backward(p, cache, g_z, np.zeros_like(cache.c))
        np.testing.assert_array_equal(skipped.flat, zeroed.flat)
        for layer in skipped.cluster_head:
            assert not layer.weight.any() and not layer.bias.any()

    def test_shape_mismatch_rejected(self):
        p = init_params(0, SMALL_DIMS)
        cache = forward(p, np.ones((2, 6)))
        with pytest.raises(ShapeError):
            backward(p, cache, np.zeros((3, 4)), np.zeros((2, 3)))

    def test_matches_finite_differences_through_both_heads(self):
        rng = np.random.default_rng(8)
        x_a = rng.normal(size=(5, 6))
        x_b = rng.normal(size=(5, 6))
        p = init_params(9, SMALL_DIMS)
        err = grad_check(p, init_stage_loss(x_a, x_b), eps=1e-5)
        assert err <= 1e-4

    def test_stacked_pass_equals_per_view_passes(self):
        # one forward/backward over both views stacked == two per-view passes summed
        rng = np.random.default_rng(10)
        p = init_params(11, SMALL_DIMS)
        n = 7
        x_a, x_b = rng.normal(size=(2, n, 6))
        cache = forward(p, np.vstack([x_a, x_b]))
        cache_a, cache_b = forward(p, x_a), forward(p, x_b)
        np.testing.assert_allclose(cache.z, np.vstack([cache_a.z, cache_b.z]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.c, np.vstack([cache_a.c, cache_b.c]), rtol=0, atol=1e-12)
        g_z = rng.normal(size=cache.z.shape)
        g_c = rng.normal(size=cache.c.shape)
        stacked = backward(p, cache, g_z, g_c)
        per_a = backward(p, cache_a, g_z[:n], g_c[:n])
        per_b = backward(p, cache_b, g_z[n:], g_c[n:])
        for (name, got), (_, a), (_, b) in zip(
            stacked.named_arrays(), per_a.named_arrays(), per_b.named_arrays()
        ):
            np.testing.assert_allclose(got, a + b, rtol=0, atol=1e-12, err_msg=name)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = init_params(0, SMALL_DIMS)
        state = AdamState.zeros(p)
        new_p, new_state = adam_step(p, zeros_like(p), state, lr=0.1)
        assert params_equal(p, new_p)
        assert new_state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        p = init_params(0, SMALL_DIMS)
        grads = zeros_like(p)
        grads.encoder[0].weight[0, 0] = 3.7  # arbitrary nonzero gradient
        new_p, _ = adam_step(p, grads, AdamState.zeros(p), lr=0.01)
        delta = new_p.encoder[0].weight[0, 0] - p.encoder[0].weight[0, 0]
        # bias-corrected first step: m_hat/sqrt(v_hat) = sign(g)
        assert delta == pytest.approx(-0.01, rel=1e-6)

    def test_quadratic_descent_matches_scalar_reference(self):
        from oracles import adam_scalar_reference

        p = init_params(0, SMALL_DIMS)
        p.encoder[0].weight[0, 0] = 1.0
        state = AdamState.zeros(p)
        trajectory = [1.0]
        for _ in range(200):
            grads = zeros_like(p)
            grads.encoder[0].weight[0, 0] = 2.0 * p.encoder[0].weight[0, 0]
            p, state = adam_step(p, grads, state, lr=0.1)
            trajectory.append(float(p.encoder[0].weight[0, 0]))
        reference = adam_scalar_reference(lambda w: 2.0 * w, 1.0, lr=0.1, steps=200)
        np.testing.assert_allclose(trajectory, reference, atol=1e-12)
        assert abs(trajectory[-1]) < 0.1

    def test_other_coordinates_unchanged_by_sparse_gradient(self):
        p = init_params(0, SMALL_DIMS)
        grads = zeros_like(p)
        grads.encoder[0].weight[0, 0] = 1.0
        new_p, _ = adam_step(p, grads, AdamState.zeros(p), lr=0.05)
        assert new_p.encoder[0].weight[0, 1] == p.encoder[0].weight[0, 1]
        assert params_equal_except(p, new_p, ("encoder.0.weight",))

    def test_non_finite_gradients_name_the_block(self):
        p = init_params(0, SMALL_DIMS)
        grads = zeros_like(p)
        grads.instance_head[0].bias[0] = np.nan
        with pytest.raises(NonFiniteError, match="instance_head.0.bias"):
            adam_step(p, grads, AdamState.zeros(p), lr=0.1)


def params_equal_except(a, b, names):
    for (name, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
        if name in names:
            continue
        if not np.array_equal(x, y):
            return False
    return True


class TestGradCheck:
    def test_constant_loss_reports_zero(self):
        p = init_params(0, SMALL_DIMS)

        def fn(params):
            return 1.0, zeros_like(params)

        assert grad_check(p, fn, eps=1e-5) == 0.0

    def test_detects_wrong_gradient(self):
        p = init_params(0, SMALL_DIMS)
        rng = np.random.default_rng(10)
        x_a, x_b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        honest = init_stage_loss(x_a, x_b)

        def corrupted(params):
            loss, grads = honest(params)
            grads.encoder[0].weight[0, 0] += 1.0
            return loss, grads

        assert grad_check(p, corrupted, eps=1e-5) > 0.5

    def test_sampling_subset_is_deterministic(self):
        rng = np.random.default_rng(11)
        x_a, x_b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        p = init_params(12, SMALL_DIMS)
        fn = init_stage_loss(x_a, x_b)
        e1 = grad_check(p, fn, eps=1e-5, max_coords=50, seed=3)
        e2 = grad_check(p, fn, eps=1e-5, max_coords=50, seed=3)
        assert e1 == e2


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = init_params(13, SMALL_DIMS)
        path = tmp_path / "model.json"
        save_checkpoint(p, path, standardization(SMALL_DIMS.input_dim))
        loaded, stats = model._load_checkpoint(path)
        assert params_equal(p, loaded)
        assert loaded.dims == p.dims
        # serialize again: byte-identical file
        path2 = tmp_path / "model2.json"
        save_checkpoint(loaded, path2, stats)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_that_fails_part_way_leaves_the_previous_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.json"
        stats = standardization(SMALL_DIMS.input_dim)
        save_checkpoint(init_params(0, SMALL_DIMS), path, stats)
        before = path.read_bytes()
        retrained = init_params(1, SMALL_DIMS)
        named_arrays = model.ModelParams.named_arrays

        def first_block_then_fail(params):
            yield next(named_arrays(params))
            raise OSError("no space left on device")

        monkeypatch.setattr(model.ModelParams, "named_arrays", first_block_then_fail)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(retrained, path, stats)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_format_v1_file_loads_without_standardization(self):
        # a checked-in format-v1 file from the per-layer parameter layout:
        # init_params(13) plus three Adam steps, so every bias is nonzero
        p = init_params(13, SMALL_DIMS)
        state = AdamState.zeros(p)
        rng = np.random.default_rng(14)
        for _ in range(3):
            grads = replace(p, flat=rng.standard_normal(p.flat.size))
            p, state = adam_step(p, grads, state, lr=0.01)
        loaded, stats = model._load_checkpoint(CHECKPOINT_V1)
        assert stats is None and loaded.dims == SMALL_DIMS
        for (name, got), (_, want) in zip(loaded.named_arrays(), p.named_arrays()):
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert np.shares_memory(got, loaded.flat), name
        assert all(layer.bias.any() for layer in loaded.encoder)
        assert params_equal(load_checkpoint(CHECKPOINT_V1), loaded)

    def test_format_v1_file_resaves_as_format_2_adding_only_the_standardization(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(load_checkpoint(CHECKPOINT_V1), path, standardization(SMALL_DIMS.input_dim))
        v1 = json.loads(CHECKPOINT_V1.read_text())
        v2 = json.loads(path.read_text())
        assert v1["format_version"] == 1
        assert list(v2) == ["format_version", "dims", "standardization", "blocks"]
        del v2["standardization"]
        assert v2 == {**v1, "format_version": 2}

    def test_flat_vector_is_blocks_in_checkpoint_order(self):
        p = init_params(0, SMALL_DIMS)
        blocks = [arr.ravel() for _, arr in p.named_arrays()]
        np.testing.assert_array_equal(np.concatenate(blocks), p.flat)
        assert p.flat.size == p.num_parameters() == SMALL_DIMS.num_parameters()
        with pytest.raises(ShapeError, match="flat"):
            replace(p, flat=p.flat[:-1])

    @pytest.mark.parametrize("dims", [SMALL_DIMS, DEFAULT_DIMS], ids=["small", "default"])
    def test_file_is_json_dumps_of_the_payload_byte_for_byte(self, tmp_path, dims):
        import json

        p = init_params(5, dims)
        p.flat[:3] = [-0.0, 5e-324, 1e16]
        p.flat[-3:] = [1e-300, -2.5e-310, 0.1]
        stats = standardization(dims.input_dim)
        payload = {
            "format_version": 2,
            "dims": {
                "input_dim": dims.input_dim,
                "encoder_hidden": list(dims.encoder_hidden),
                "z_dim": dims.z_dim,
                "num_clusters": dims.num_clusters,
            },
            "standardization": {
                "feature_names": list(stats.feature_names),
                "mean": stats.mean.tolist(),
                "std": stats.std.tolist(),
            },
            "blocks": {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in p.named_arrays()
            },
        }
        path = tmp_path / "model.json"
        save_checkpoint(p, path, stats)
        assert path.read_bytes() == json.dumps(payload).encode("utf-8")
        loaded, got = model._load_checkpoint(path)
        assert loaded.flat.tobytes() == p.flat.tobytes()
        assert got.mean.tobytes() == stats.mean.tobytes()
        assert got.std.tobytes() == stats.std.tobytes()
        assert got.feature_names == stats.feature_names

    @pytest.mark.parametrize(
        "key, index, value, message",
        [
            ("mean", 0, float("nan"), "'mean' holds a non-finite value"),
            ("mean", 5, float("-inf"), "'mean' holds a non-finite value"),
            ("std", 1, float("inf"), "'std' holds a non-finite value"),
            ("std", 2, 0.0, "'std' holds a value that is not positive"),
            ("std", 3, -1.0, "'std' holds a value that is not positive"),
            ("mean", None, None, r"'mean' has shape \(5,\), expected \(6,\)"),
            ("feature_names", None, None, "has 5 feature names, expected 6"),
            ("feature_names", 0, 7, "'feature_names' is not a list of strings"),
        ],
    )
    def test_rejects_standardization_that_cannot_be_applied(
        self, tmp_path, key, index, value, message
    ):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(init_params(0, SMALL_DIMS), path, standardization(SMALL_DIMS.input_dim))
        payload = json.loads(path.read_text())
        entry = payload["standardization"][key]
        if index is None:
            entry.pop()
        else:
            entry[index] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: standardization.*{message}"):
            model._load_checkpoint(path)

    @pytest.mark.parametrize(
        "name, value", [("encoder.0.weight", "nan"), ("cluster_head.0.bias", "inf")]
    )
    def test_rejects_non_finite_value_naming_path_and_block(self, tmp_path, name, value):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(init_params(0, SMALL_DIMS), path, standardization(SMALL_DIMS.input_dim))
        payload = json.loads(path.read_text())
        payload["blocks"][name]["data"][1] = float(value)
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: block '{name}'.*non-finite"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        p = init_params(0, SMALL_DIMS)
        path = tmp_path / "model.json"
        save_checkpoint(p, path, standardization(SMALL_DIMS.input_dim))
        payload = path.read_text().replace('"format_version": 2', '"format_version": 99')
        path.write_text(payload)
        with pytest.raises(ConfigError, match="format_version"):
            load_checkpoint(path)

    def test_rejects_missing_block(self, tmp_path):
        import json

        p = init_params(0, SMALL_DIMS)
        path = tmp_path / "model.json"
        save_checkpoint(p, path, standardization(SMALL_DIMS.input_dim))
        payload = json.loads(path.read_text())
        del payload["blocks"]["encoder.0.weight"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="encoder.0.weight"):
            load_checkpoint(path)
