"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The training-based criteria (6-8) share one set of full protocol
runs: blobs(n=2000, d=32, M=5, sep=6, sigma=1), init 100 epochs + refinement
20 epochs, thresholds zeta=0.6 / gamma=0.1, five fixed seeds.
"""

import contextlib
import time

import numpy as np
import pytest

from crossclust.config import TrainConfig
from crossclust.data import generate_blobs, save_csv
from crossclust.losses import (
    c3_loss,
    chain_to_embeddings,
    compute_weights,
    init_cluster_loss,
    init_instance_loss,
    positive_mask,
)
from crossclust.metrics import Partition, accuracy, ari, hungarian, nmi
from crossclust.model import ModelDims, backward, forward, grad_check, init_params
from crossclust.numerics import row_l2_normalize, row_softmax, similarity_matrix
from crossclust.trainer import STAGE_C3, _run_epoch, train_c3, train_init

from oracles import (
    accuracy_brute,
    c3_loss_scalar,
    central_difference,
    cluster_loss_scalar,
    hungarian_brute,
    instance_loss_scalar,
    minimize_weights_eg,
)

SEEDS = (6, 7, 8, 9, 10)
DATA_SEED_BASE = 100
PROTOCOL = dict(n=2000, d=32, clusters=5, separation=6.0, sigma=1.0)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


@pytest.fixture(scope="module")
def protocol_runs():
    """Full two-stage runs for the shared seeds, plus zeta-extreme variants on
    the first seed (initialization does not depend on zeta, so one init per
    seed serves every zeta)."""
    runs = {}
    for s in SEEDS:
        data = generate_blobs(seed=DATA_SEED_BASE + s, **PROTOCOL)
        cfg = TrainConfig(M=5, init_epochs=100, c3_epochs=20, seed=s)
        init_params_, init_records = train_init(cfg, data)
        _, records = train_c3(init_params_, cfg, data)
        runs[s] = {
            "data": data,
            "config": cfg,
            "init_params": init_params_,
            "init_records": init_records,
            "records": records,
        }
    return runs


class TestAcceptance:
    def test_criterion_1_weight_closed_form_matches_numerical_minimizer(self):
        with criterion(1, "closed-form weights match simplex minimizer to 1e-6"):
            started = time.monotonic()
            rng = np.random.default_rng(42)
            worst = 0.0
            for case in range(100):
                k = int(rng.integers(1, 256))  # 2N-1 candidates
                sims = rng.uniform(-1.0, 1.0, size=k)
                # embed the row into a square matrix: rows are independent
                s = np.eye(k + 1)
                s[0, 1:] = sims
                s[1:, 0] = sims
                for gamma in (0.01, 0.1, 1.0, 10.0):
                    w = compute_weights(s, gamma)[0, 1:]
                    reference = minimize_weights_eg(sims, gamma)
                    worst = max(worst, float(np.abs(w - reference).max()))
            assert worst <= 1e-6, f"max abs deviation {worst}"
            assert time.monotonic() - started < 60.0

    def test_criterion_2_weight_limits(self):
        with criterion(2, "weight limits: gamma->0 uniform, gamma=100 selective"):
            rng = np.random.default_rng(7)
            z = row_l2_normalize(rng.normal(size=(128, 16)))
            s = similarity_matrix(z)
            w = compute_weights(s, 1e-6)
            off = ~np.eye(s.shape[0], dtype=bool)
            uniform = 1.0 / (s.shape[0] - 1)
            assert np.abs(w[off] - uniform).max() <= 1e-4

            # a unique minimal |s| with a clear gap takes >= 0.99 of the mass
            for trial in range(20):
                k = 255
                sims = rng.uniform(0.25, 1.0, size=k) * rng.choice([-1.0, 1.0], size=k)
                winner = int(rng.integers(0, k))
                sims[winner] = 0.02
                s_case = np.eye(k + 1)
                s_case[0, 1:] = sims
                s_case[1:, 0] = sims
                w_row = compute_weights(s_case, 100.0)[0, 1:]
                assert w_row[winner] >= 0.99
                assert int(np.argmax(w_row)) == winner

    def test_criterion_3_loss_oracle_equivalence(self):
        with criterion(3, "losses match scalar double-loop oracles to 1e-10"):
            rng = np.random.default_rng(11)
            for case in range(50):
                n = int(rng.integers(2, 17))
                m = int(rng.integers(2, 9))
                z = row_l2_normalize(rng.normal(size=(2 * n, 6)))
                s = similarity_matrix(z)
                mask = positive_mask(s, float(rng.uniform(-1, 1)))
                w = compute_weights(s, float(rng.uniform(0.05, 5.0)))
                got, _ = c3_loss(s, mask, w)
                want = c3_loss_scalar(s.tolist(), mask.tolist(), w.tolist())
                assert got == pytest.approx(want, abs=1e-10)

                tau_i = float(rng.uniform(0.2, 1.5))
                got_i, _ = init_instance_loss(s, tau_i)
                assert got_i == pytest.approx(instance_loss_scalar(z.tolist(), tau_i), abs=1e-10)

                c_a = row_softmax(rng.normal(size=(n, m)))
                c_b = row_softmax(rng.normal(size=(n, m)))
                tau_c = float(rng.uniform(0.3, 2.0))
                got_c, _, _ = init_cluster_loss(c_a, c_b, tau_c)
                want_c = cluster_loss_scalar(c_a.tolist(), c_b.tolist(), tau_c)
                assert got_c == pytest.approx(want_c, abs=1e-10)

    def test_criterion_4_gradient_checks(self):
        with criterion(4, "stage gradients match finite differences (1e-4 params, 1e-6 z)"):
            dims = ModelDims(input_dim=6, encoder_hidden=(16, 8), z_dim=4, num_clusters=3)
            params = init_params(3, dims)
            assert params.num_parameters() <= 2000
            rng = np.random.default_rng(5)
            x_a = rng.normal(size=(6, 6))
            x_b = rng.normal(size=(6, 6))
            n = x_a.shape[0]
            x = np.vstack([x_a, x_b])  # both views in one pass, as in a training step

            def init_stage(p):
                cache = forward(p, x)
                loss_i, d_s = init_instance_loss(similarity_matrix(cache.z), 0.5)
                loss_c, d_ca, d_cb = init_cluster_loss(cache.c[:n], cache.c[n:], 1.0)
                d_z = chain_to_embeddings(d_s, cache.z)
                return loss_i + loss_c, backward(p, cache, d_z, np.vstack([d_ca, d_cb]))

            s0 = similarity_matrix(forward(params, x).z)
            mask0 = positive_mask(s0, 0.3)
            w0 = compute_weights(s0, 0.1)

            def c3_stage(p):
                cache = forward(p, x)
                loss, d_s = c3_loss(similarity_matrix(cache.z), mask0, w0)
                d_z = chain_to_embeddings(d_s, cache.z)
                return loss, backward(p, cache, d_z, None)

            # every coordinate of the <= 2k parameter net
            assert grad_check(params, init_stage, eps=1e-5) <= 1e-4
            assert grad_check(params, c3_stage, eps=1e-5) <= 1e-4

            # z-level gradients at 1e-6 relative error
            z = row_l2_normalize(rng.normal(size=(10, 5)))
            _, d_s = init_instance_loss(z @ z.T, 0.5)
            d_z = chain_to_embeddings(d_s, z)
            numeric = central_difference(lambda m: init_instance_loss(m @ m.T, 0.5)[0], z, eps=1e-5)
            rel = np.abs(d_z - numeric) / np.maximum.reduce(
                [np.abs(d_z), np.abs(numeric), np.full_like(d_z, 1e-3)]
            )
            assert rel.max() <= 1e-6

            s1 = z @ z.T
            mask1 = positive_mask(s1, 0.2)
            w1 = compute_weights(s1, 0.5)
            _, d_s1 = c3_loss(s1, mask1, w1)
            analytic = chain_to_embeddings(d_s1, z)
            numeric = central_difference(lambda m: c3_loss(m @ m.T, mask1, w1)[0], z, eps=1e-5)
            rel = np.abs(analytic - numeric) / np.maximum.reduce(
                [np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-3)]
            )
            assert rel.max() <= 1e-6

    def test_criterion_5_metric_oracles(self):
        with criterion(5, "accuracy/hungarian match exhaustive search; NMI/ARI identities"):
            started = time.monotonic()
            rng = np.random.default_rng(123)
            for case in range(1000):
                m = int(rng.integers(1, 7))
                n = int(rng.integers(2, 25))
                pred = rng.integers(0, m, size=n)
                truth = rng.integers(0, m, size=n)
                got = accuracy(Partition(pred, m), Partition(truth, m))
                want = accuracy_brute(pred.tolist(), truth.tolist(), m, m)
                assert got == pytest.approx(want, abs=1e-12)

            for case in range(1000):
                cost = rng.integers(0, 20, size=(5, 5)).astype(float)
                perm = hungarian(cost)
                best_perm, best_cost = hungarian_brute(cost.tolist())
                assert cost[np.arange(5), perm].sum() == best_cost
                assert tuple(perm) == best_perm

            ident = Partition(np.array([0, 0, 1, 2, 1]), 3)
            assert nmi(ident, ident) == pytest.approx(1.0, abs=1e-12)
            assert ari(ident, ident) == 1.0
            single = Partition(np.zeros(6, dtype=int), 1)
            multi = Partition(np.array([0, 1, 2, 0, 1, 2]), 3)
            assert nmi(single, multi) == 0.0
            indep_p = Partition(np.array([0, 0, 1, 1]), 2)
            indep_t = Partition(np.array([0, 1, 0, 1]), 2)
            assert nmi(indep_p, indep_t) == pytest.approx(0.0, abs=1e-12)
            perm_map = np.array([2, 0, 1])
            relabeled = Partition(perm_map[multi.labels], 3)
            assert ari(relabeled, multi) == 1.0
            assert time.monotonic() - started < 120.0

    def test_criterion_6_refinement_improves_over_init(self, protocol_runs):
        with criterion(6, "refinement holds/improves ACC+NMI over the init stage"):
            held_acc = held_nmi = 0
            acc_deltas = []
            for s in SEEDS:
                records = protocol_runs[s]["records"]
                epoch0, final = records[0], records[-1]
                # init quality floor: well above random assignment (1/M = 0.2)
                assert epoch0.acc - 0.2 >= 0.3
                if final.acc >= epoch0.acc:
                    held_acc += 1
                if final.nmi >= epoch0.nmi:
                    held_nmi += 1
                acc_deltas.append(final.acc - epoch0.acc)
            assert held_acc >= 4, f"ACC held in only {held_acc}/5 seeds"
            assert held_nmi >= 4, f"NMI held in only {held_nmi}/5 seeds"
            assert np.mean(acc_deltas) > 0.0, f"mean ACC improvement {np.mean(acc_deltas)}"

    def test_criterion_7_positive_pair_dynamics(self, protocol_runs):
        with criterion(7, "positive pairs grow during refinement; monotone in zeta"):
            grew = 0
            for s in SEEDS:
                records = protocol_runs[s]["records"]
                if records[-1].avg_positive_pairs > records[1].avg_positive_pairs:
                    grew += 1
            assert grew >= 4, f"pairs grew in only {grew}/5 seeds"

            # exact monotone response at fixed model state, zero tolerance
            run = protocol_runs[SEEDS[0]]
            cache = forward(run["init_params"], run["data"].X[:128])
            sim = similarity_matrix(np.vstack([cache.z, cache.z]))
            grid = [-1.0, 0.0, 0.4, 0.6, 0.9, 1.0]
            counts = [int(positive_mask(sim, zeta).sum()) for zeta in grid]
            assert all(a >= b for a, b in zip(counts, counts[1:])), counts

    def test_criterion_8_zeta_extremes(self, protocol_runs):
        with criterion(8, "zeta extremes: 0.99 near-no-op; -0.5 floods positives"):
            run = protocol_runs[SEEDS[0]]
            data, cfg, init_p = run["data"], run["config"], run["init_params"]

            strict_cfg = cfg.override(zeta=0.99)
            _, strict_records = train_c3(init_p, strict_cfg, data)
            assert abs(strict_records[-1].acc - strict_records[0].acc) < 0.05

            loose_cfg = cfg.override(zeta=-0.5)
            # epoch 1's batches without an update, like the epoch-0 pass
            _, _, _, loose_pairs = _run_epoch(STAGE_C3, init_p, None, loose_cfg, data, 1)
            base_epoch1_pairs = run["records"][1].avg_positive_pairs
            assert loose_pairs >= 10.0 * base_epoch1_pairs, (
                f"pairs at zeta=-0.5: {loose_pairs:.1f}, "
                f"zeta=0.6 epoch 1: {base_epoch1_pairs:.2f}"
            )

    def test_criterion_9_cli_determinism(self, tmp_path):
        with criterion(9, "byte-identical history across identical train invocations"):
            from crossclust.cli import main

            started = time.monotonic()
            data_path = tmp_path / "blobs.csv"
            save_csv(generate_blobs(seed=0, n=200, d=8, clusters=3, separation=6.0, sigma=1.0), data_path)
            histories = []
            for name in ("one", "two"):
                out = tmp_path / name
                code = main(
                    [
                        "train",
                        "--data", str(data_path),
                        "--label-column", "label",
                        "--out", str(out),
                        "--clusters", "3",
                        "--batch-size", "32",
                        "--init-epochs", "3",
                        "--c3-epochs", "2",
                        "--seed", "1",
                    ]
                )
                assert code == 0
                histories.append((out / "history.jsonl").read_bytes())
            assert histories[0] == histories[1]
            assert time.monotonic() - started < 30.0
