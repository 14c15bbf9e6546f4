"""Clustering evaluation: optimal label matching, ACC, NMI, ARI.

All metrics are invariant under relabeling of either partition.  Matching is
exact: the assignment solver returns an optimal permutation, deterministic,
and ACC reads only its matched sum, which every optimum shares.  Each metric
is scored from the contingency table alone (``_table_*``), so
``trainer.evaluate`` scores ACC, NMI, ARI and the cluster sizes from one
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ShapeError


@dataclass(frozen=True)
class Partition:
    """Hard cluster assignment: one 0-based integer label per sample."""

    labels: np.ndarray
    num_clusters: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise ShapeError("labels must be 1-D")
        if self.num_clusters < 1:
            raise ContractViolationError("num_clusters must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_clusters):
            raise ContractViolationError(
                f"labels must lie in [0, {self.num_clusters}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )

    def __len__(self) -> int:
        return self.labels.size


def contingency_table(pred: Partition, truth: Partition) -> np.ndarray:
    """Counts matrix C[i, j] = #samples with pred label i and truth label j."""
    if len(pred) != len(truth):
        raise ShapeError(f"partition lengths differ: {len(pred)} vs {len(truth)}")
    p, t = pred.num_clusters, truth.num_clusters
    codes = pred.labels * t
    return np.bincount(np.add(codes, truth.labels, out=codes), minlength=p * t).reshape(p, t)


def _solve_assignment(cost: np.ndarray) -> np.ndarray:
    """O(n^3) shortest-augmenting-path assignment on a square cost matrix.

    Returns row_to_col, an optimal permutation (row_to_col[i] = column of row i).
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match[j] = row assigned to column j; column n is the virtual start column
    match = np.full(n + 1, -1, dtype=np.int64)
    cols = np.arange(n)
    for i in range(n):
        match[n] = i
        j0 = n
        minv = np.full(n + 1, np.inf)
        way = np.full(n + 1, n, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used[:n]
            idx = cols[free]
            cur = cost[i0, idx] - u[i0] - v[idx]
            better = cur < minv[idx]
            upd = idx[better]
            minv[upd] = cur[better]
            way[upd] = j0
            j1 = idx[int(np.argmin(minv[idx]))]
            delta = minv[j1]
            used_cols = np.flatnonzero(used)
            u[match[used_cols]] += delta
            v[used_cols] -= delta
            minv[:n][free] -= delta
            j0 = j1
            if match[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = np.empty(n, dtype=np.int64)
    for j in range(n):
        row_to_col[match[j]] = j
    return row_to_col


def hungarian(cost) -> np.ndarray:
    """Minimum-cost perfect assignment of rows to columns.

    Returns an optimal permutation p (p[i] = column of row i), one minimizing
    sum(cost[i, p[i]]), deterministic: the same one on every call with the
    same cost.  Which of several optima it returns is not specified.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    if cost.size == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(cost).all():
        raise ContractViolationError("cost matrix must be finite")
    return _solve_assignment(cost)


def _check_pair(pred: Partition, truth: Partition):
    if len(pred) != len(truth):
        raise ShapeError(f"partition lengths differ: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ShapeError("partitions must be non-empty")


def accuracy(pred: Partition, truth: Partition) -> float:
    """Clustering accuracy: matched fraction under the best cluster-to-class bijection."""
    _check_pair(pred, truth)
    return _table_accuracy(contingency_table(pred, truth), len(pred))


def nmi(pred: Partition, truth: Partition) -> float:
    """Normalized mutual information, arithmetic-mean normalizer, natural log.

    Defined as 0 when both partitions are single-cluster (0/0 case).
    """
    _check_pair(pred, truth)
    return _table_nmi(contingency_table(pred, truth), len(pred))


def ari(pred: Partition, truth: Partition) -> float:
    """Adjusted Rand index via pair counting on the contingency table."""
    _check_pair(pred, truth)
    return _table_ari(contingency_table(pred, truth), len(pred))


def _table_accuracy(table: np.ndarray, n: int) -> float:
    short, long = sorted(table.shape)
    if long > short * short:
        # Some optimal matching pairs each short-side line with one of its
        # `short` largest entries: a line matched outside them has one inside
        # them that no other line takes and that is at least as large.
        lines = table if table.shape[0] == short else table.T
        top = np.argsort(-lines, axis=1, kind="stable")[:, :short]
        table = lines[:, np.unique(top)]
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    perm = hungarian(-padded.astype(np.float64))
    return float(padded[np.arange(k), perm].sum()) / n


def _partition_entropy(counts: np.ndarray, n: int) -> float:
    nz = counts[counts > 0].astype(np.float64) / n
    return float(-(nz * np.log(nz)).sum())


def _table_nmi(table: np.ndarray, n: int) -> float:
    table = table.astype(np.float64)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    nz = table > 0
    p = table[nz] / n
    outer = (a[:, None] * b[None, :])[nz] / (n * n)
    mi = float((p * np.log(p / outer)).sum())
    h_pred = _partition_entropy(a, n)
    h_truth = _partition_entropy(b, n)
    denom = 0.5 * (h_pred + h_truth)
    if denom == 0.0:
        return 0.0
    return mi / denom


def _table_ari(table: np.ndarray, n: int) -> float:
    if n < 2:
        raise ShapeError("ari requires at least 2 samples")

    def comb2(x):
        x = x.astype(np.float64)
        return (x * (x - 1.0) / 2.0).sum()

    index = comb2(table.ravel())
    sum_a = comb2(table.sum(axis=1))
    sum_b = comb2(table.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return float((index - expected) / (maximum - expected))
