"""Clustering evaluation: optimal label matching, ACC, NMI, ARI.

All metrics are invariant under relabeling of either partition.  Matching is
exact: the assignment solver returns an optimal matching, deterministic, and
ACC reads only its matched sum, which every optimum shares.  ACC solves the
rectangular contingency table directly, its short side on the rows.  Each
metric is scored from the contingency table alone (``_table_*``), so
:func:`scores` gives the cluster sizes, ACC, NMI and ARI from one table.
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
    """O(n^2 m) shortest-augmenting-path assignment on an n x m cost, n <= m.

    Returns row_to_col, distinct columns minimizing sum(cost[i, row_to_col[i]]).
    """
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m + 1)
    # match[j] = row assigned to column j; column m is the virtual start column
    match = np.full(m + 1, -1, dtype=np.int64)
    cols = np.arange(m)
    for i in range(n):
        match[m] = i
        j0 = m
        minv = np.full(m + 1, np.inf)
        way = np.full(m + 1, m, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used[:m]
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
            minv[:m][free] -= delta
            j0 = j1
            if match[j0] == -1:
                break
        while j0 != m:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    matched = np.flatnonzero(match[:m] >= 0)
    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[match[matched]] = matched
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


def _pair_table(pred: Partition, truth: Partition) -> tuple[np.ndarray, int]:
    """The pair's contingency table and sample count; the pair must be non-empty."""
    table = contingency_table(pred, truth)
    if len(pred) == 0:
        raise ShapeError("partitions must be non-empty")
    return table, len(pred)


def accuracy(pred: Partition, truth: Partition) -> float:
    """Clustering accuracy: matched fraction under the best cluster-to-class bijection."""
    return _table_accuracy(*_pair_table(pred, truth))


def nmi(pred: Partition, truth: Partition) -> float:
    """Normalized mutual information, arithmetic-mean normalizer, natural log.

    Defined as 0 when both partitions are single-cluster (0/0 case).
    """
    return _table_nmi(*_pair_table(pred, truth))


def ari(pred: Partition, truth: Partition) -> float:
    """Adjusted Rand index via pair counting on the contingency table."""
    return _table_ari(*_pair_table(pred, truth))


def scores(pred: Partition, truth: Partition) -> dict:
    """Cluster sizes, ACC, NMI and ARI from one contingency table, with the
    values and errors of :func:`accuracy`, :func:`nmi` and :func:`ari`."""
    table, n = _pair_table(pred, truth)
    return {
        "cluster_sizes": table.sum(axis=1).tolist(),
        "acc": _table_accuracy(table, n),
        "nmi": _table_nmi(table, n),
        "ari": _table_ari(table, n),
    }


def _table_accuracy(table: np.ndarray, n: int) -> float:
    # The solver needs rows <= columns, so the short side goes on the rows.
    lines = table if table.shape[0] <= table.shape[1] else table.T
    cols = _solve_assignment(-np.ascontiguousarray(lines, dtype=np.float64))
    return float(lines[np.arange(lines.shape[0]), cols].sum()) / n


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
