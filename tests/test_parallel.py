import os
import sys
import threading
import time

import numpy as np
import pytest

import crossclust.data as data_module
from crossclust import parallel
from crossclust.config import DimsSpec, TrainConfig
from crossclust.data import Standardization, generate_blobs, load_csv, save_csv, standardize
from crossclust.model import ModelDims, init_params
from crossclust.numerics import openblas
from crossclust.trainer import evaluate, load_eval_rows, train

BLAS = openblas() if sys.platform.startswith("linux") else None


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_main_thread_only():
    assert threading.enumerate() == [threading.main_thread()]


class TestHelperThread:
    def test_exception_on_the_helper_reaches_the_caller_unchanged(self):
        error = ValueError("raised on the helper")

        def fail():
            raise error

        with parallel.helper_thread() as split:
            assert split(lambda: 1, lambda: 2) == (1, 2)
            with pytest.raises(ValueError) as exc:
                split(lambda: 1, fail)
            assert exc.value is error
            assert split(lambda: 3, lambda: 4) == (3, 4)
        assert_main_thread_only()

    def test_caller_exception_is_raised_once_the_helper_is_done(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        with parallel.helper_thread() as split:
            with pytest.raises(KeyError):
                split(lambda: {}["missing"], slow)
            assert done == [True]
        assert_main_thread_only()


def eval_params():
    params = init_params(0, ModelDims(6, (24, 12), 6, 3))
    params.flat[:] += 0.5 * np.random.default_rng(1).standard_normal(params.flat.size)
    return params


class TestForkRefusal:
    def test_fork_writer_refuses_while_a_second_thread_is_alive(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            with pytest.raises(OSError, match="second Python thread"):
                parallel.fork_writer(lambda fd: 0)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    @pytest.mark.parametrize("user", ["load_csv", "eval", "stage"])
    def test_no_user_forks_beside_a_second_thread_and_each_gives_the_one_process_result(
        self, tmp_path, monkeypatch, user
    ):
        if user == "stage" and BLAS is None:
            pytest.skip("a stage forks only while OpenBLAS runs on one thread")
        path = tmp_path / "rows.csv"
        data = generate_blobs(seed=3, n=64, d=6, clusters=3, separation=6.0, sigma=1.0)
        save_csv(data, path)
        stats, params = Standardization.of(data), eval_params()
        cfg = TrainConfig(
            M=3, init_epochs=1, c3_epochs=1, batch_size=16, seed=0, dims=DimsSpec(hidden=(24, 12), z_dim=6)
        )

        def run():
            if user == "load_csv":
                return load_csv(path, "label").X.tobytes()
            if user == "eval":
                return evaluate(params, load_eval_rows(params, stats, path, "label"))
            trained, records = train(cfg, data)
            return trained.flat.tobytes(), records

        if user == "eval":
            want = evaluate(params, standardize(load_csv(path, "label"), stats))
        else:
            monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
            want = run()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        monkeypatch.setattr(data_module, "_PARALLEL_PART_BYTES", 1)
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert run() == want  # the parallel path without a second thread
        assert forks
        forks.clear()
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            got = run()
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []
        assert got == want
        assert_no_child_process()
