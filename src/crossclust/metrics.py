"""Clustering evaluation: optimal label matching, ACC, NMI, ARI.

All metrics are invariant under relabeling of either partition.  Matching is
exact: the assignment solver returns the lexicographically smallest optimal
permutation, so results are reproducible across platforms.
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
    return np.bincount(pred.labels * t + truth.labels, minlength=p * t).reshape(p, t)


def _solve_assignment(cost: np.ndarray):
    """O(n^3) shortest-augmenting-path assignment on a square cost matrix.

    Returns (row_to_col, u, v) where u, v are dual potentials satisfying
    cost[i, j] - u[i] - v[j] >= 0 with equality on assignment edges.
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
    return row_to_col, u[:n], v[:n]


def _lex_smallest_matching(admissible: np.ndarray, row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the admissible graph.

    ``row_to_col`` must be one perfect matching; optimality of every perfect
    matching of ``admissible`` is the caller's guarantee.
    """
    n = admissible.shape[0]
    col_owner = np.full(n, -1, dtype=np.int64)
    match = row_to_col.copy()
    for i in range(n):
        col_owner[match[i]] = i
    fixed = np.zeros(n, dtype=bool)

    def augment(row: int, visited: np.ndarray) -> bool:
        for j in np.flatnonzero(admissible[row]):
            if fixed[j] or visited[j]:
                continue
            visited[j] = True
            owner = col_owner[j]
            if owner == -1 or augment(int(owner), visited):
                col_owner[j] = row
                match[row] = j
                return True
        return False

    for i in range(n):
        for j in np.flatnonzero(admissible[i]):
            if fixed[j]:
                continue
            if match[i] == j:
                fixed[j] = True
                break
            owner = col_owner[j]
            old = match[i]
            col_owner[old] = -1
            col_owner[j] = i
            match[i] = j
            if owner == -1:
                fixed[j] = True
                break
            visited = np.zeros(n, dtype=bool)
            visited[j] = True
            if augment(int(owner), visited):
                fixed[j] = True
                break
            # revert and try the next candidate column
            col_owner[j] = owner
            col_owner[old] = i
            match[i] = old
        else:
            raise AssertionError("no admissible column left for a row")  # pragma: no cover
    return match


def hungarian(cost) -> np.ndarray:
    """Minimum-cost perfect assignment of rows to columns.

    Returns the permutation p (p[i] = column of row i) minimizing
    sum(cost[i, p[i]]); among all optima, the lexicographically smallest
    permutation is returned.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    if cost.size == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(cost).all():
        raise ContractViolationError("cost matrix must be finite")
    row_to_col, u, v = _solve_assignment(cost)
    # zero-reduced-cost edges w.r.t. optimal duals carry every optimal assignment
    tol = 1e-9 * max(1.0, float(np.abs(cost).max()))
    admissible = (cost - u[:, None] - v[None, :]) <= tol
    return _lex_smallest_matching(admissible, row_to_col)


def _check_pair(pred: Partition, truth: Partition):
    if len(pred) != len(truth):
        raise ShapeError(f"partition lengths differ: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ShapeError("partitions must be non-empty")


def accuracy(pred: Partition, truth: Partition) -> float:
    """Clustering accuracy: matched fraction under the best cluster-to-class bijection."""
    _check_pair(pred, truth)
    table = contingency_table(pred, truth)
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    perm = hungarian(-padded.astype(np.float64))
    matched = padded[np.arange(k), perm].sum()
    return float(matched) / len(pred)


def _partition_entropy(counts: np.ndarray, n: int) -> float:
    nz = counts[counts > 0].astype(np.float64) / n
    return float(-(nz * np.log(nz)).sum())


def nmi(pred: Partition, truth: Partition) -> float:
    """Normalized mutual information, arithmetic-mean normalizer, natural log.

    Defined as 0 when both partitions are single-cluster (0/0 case).
    """
    _check_pair(pred, truth)
    n = len(pred)
    table = contingency_table(pred, truth).astype(np.float64)
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


def ari(pred: Partition, truth: Partition) -> float:
    """Adjusted Rand index via pair counting on the contingency table."""
    _check_pair(pred, truth)
    n = len(pred)
    if n < 2:
        raise ShapeError("ari requires at least 2 samples")
    table = contingency_table(pred, truth)

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
