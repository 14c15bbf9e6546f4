"""Call-level tracing of crossclust's public functions, from outside the package.

Each traced function is wrapped where its callers look it up: the wrapper
replaces every binding of the original function object in every loaded
``crossclust`` module, so ``trainer``'s ``from .model import forward`` and
``model.forward`` both reach it.  A function missing from the package is
skipped and reports zero calls.

A span's self time (``busy``) is its duration minus the durations of the
traced spans it directly encloses.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import tracemalloc

# Per-layer functions, named by the module that defines them.
LAYERS = {
    "augment": ("augment_batch",),
    "model": (
        "forward",
        "backward",
        "add_params",
        "adam_step",
        "init_params",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "losses": (
        "init_instance_loss",
        "init_cluster_loss",
        "positive_mask",
        "compute_weights",
        "c3_loss",
        "chain_to_embeddings",
        "count_positive_pairs",
    ),
    "numerics": ("similarity_matrix",),
    "trainer": ("train_init", "train_c3", "evaluate", "write_history"),
    "metrics": ("accuracy", "nmi", "ari"),
    "data": ("load_csv", "standardize"),
}
LAYER_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# Stage boundaries the end-to-end timings need, traced or not: the first call
# of trainer.train / trainer.evaluate ends set-up for the train / eval command.
STAGES = ("trainer.train", "trainer.train_init", "trainer.train_c3", "trainer.evaluate")

# First call of each of these runs under tracemalloc to record its peak allocation.
ALLOC_PROBES = ("losses.c3_loss", "losses.init_instance_loss")


def _shape(value):
    return getattr(value, "shape", ())


def _rows(args, result):
    return _shape(args[1])[0]


def _gram_flops(args, result):
    rows, cols = _shape(args[0])
    return 2 * rows * rows * cols


# Work counters: name -> (counter key, function of (args, result)).
COUNTERS = {
    "augment.augment_batch": ("augment_rows", _rows),
    "model.forward": ("forward_rows", _rows),
    "numerics.similarity_matrix": ("similarity_flops", _gram_flops),
    "data.load_csv": ("load_csv_rows", lambda args, result: result.n),
    "model.save_checkpoint": ("checkpoint_bytes", lambda args, result: os.path.getsize(args[1])),
    "model.load_checkpoint": ("checkpoint_bytes", lambda args, result: os.path.getsize(args[0])),
}


class Tracer:
    """Aggregates calls, total and self time, errors and work counters per function."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, busy_s, errors, first_start]
        self.counters = {}
        self.peak_alloc = {}
        self.counter_errors = 0
        self._child_time = []

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, None])
        counter = COUNTERS.get(name)
        probe = name in ALLOC_PROBES

        def traced(*args, **kwargs):
            measure_alloc = probe and name not in self.peak_alloc
            self._child_time.append(0.0)
            start = time.perf_counter()
            if stat[4] is None:
                stat[4] = time.monotonic()
            if measure_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                if measure_alloc:
                    self.peak_alloc[name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                duration = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
            if counter is not None:
                key, count = counter
                try:
                    self.counters[key] = self.counters.get(key, 0) + count(args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    self.counter_errors += 1
            return result

        return traced

    def install(self, names):
        """Wrap each named function at every binding in the loaded crossclust modules."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "crossclust"]
        for name in dict.fromkeys(names):
            module_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"crossclust.{module_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "peak_alloc": self.peak_alloc,
            "counter_errors": self.counter_errors,
        }
