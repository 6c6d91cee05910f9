"""Conventional clustering baseline: Lloyd k-means and the cluster-then-decide pipeline.

The pipeline clusters in data space, computes the per-centroid optimal
decision, and scores those decisions with the true utility on the true
samples. It is both the comparison baseline and, through
``evaluation.run_schemes``, the start of a kmeans-initialized engine run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringResult,
    DataSet,
    DmocError,
    MetricOps,
    MetricSpec,
    Partition,
    RunTrace,
    _nearest_centers,
    as_decisions,
    cluster_means,
    metric_ops,
    nearest_centers,
    row_blocks,
)
from .engine import _repair_empty


@dataclass(frozen=True)
class KmeansResult:
    """Centroids in data space plus the nearest-centroid assignment and its inertia."""

    centroids: np.ndarray
    assignment: Partition
    inertia: float
    inertia_trace: tuple = ()


def _inertia(values: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    """Sum over rows of the squared distance to the assigned centroid, measured in row blocks."""
    per_row = np.empty(values.shape[0])
    for rows in row_blocks(values.shape[0], values.shape[1]):
        per_row[rows] = ((values[rows] - centroids[assignment[rows]]) ** 2).sum(axis=1)
    return float(per_row.sum())


def _centroids(values: np.ndarray, assignment: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Cluster means; a cluster left empty after repair keeps its previous centroid."""
    out = previous.copy()
    used = np.unique(assignment)
    out[used] = cluster_means(values, assignment, used)
    return out


def _distances_to(values: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance ``((v - point) ** 2).sum()`` of every row, measured in row blocks."""
    out = np.empty(values.shape[0])
    for rows in row_blocks(values.shape[0], values.shape[1]):
        out[rows] = ((values[rows] - point) ** 2).sum(axis=1)
    return out


def kmeans_pp_init(values: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared-distance sampling."""
    n = values.shape[0]
    picks = [int(rng.integers(n))]
    d2 = _distances_to(values, values[picks[0]])
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        picks.append(pick)
        d2 = np.minimum(d2, _distances_to(values, values[pick]))
    return values[picks].copy()


def kmeans(
    data: DataSet,
    n_clusters: int,
    seed: int,
    max_iters: int = 100,
    init=None,
) -> KmeansResult:
    """Lloyd iterations from a k-means++ (or supplied) start until the assignment fixes.

    Deterministic for a given seed. ``inertia_trace`` sums each assignment step's kernel
    distances, clamped at 0 and within the ``core.nearest_centers`` bound (direct after an
    empty-cluster repair); ``inertia`` is measured directly at the returned centroids.
    """
    if n_clusters > data.n:
        raise DmocError(f"n_clusters = {n_clusters} exceeds N = {data.n}")
    if max_iters < 1:
        raise DmocError("max_iters must be >= 1")
    values = data.values
    rng = np.random.default_rng(seed)
    centroids = (
        kmeans_pp_init(values, n_clusters, rng)
        if init is None
        else as_decisions(init, data.dim, name="init centroids")
    )
    if centroids.shape != (n_clusters, data.dim):
        raise DmocError(f"init centroids have shape {centroids.shape}")

    # the engine's step under this metric is a Lloyd step, with the same empty-cluster repair
    ops = squared_distance_ops(data.dim)
    v_sq = np.einsum("ij,ij->i", values, values)
    assignment = None
    trace = []
    for _ in range(max_iters):
        nearest, best = _nearest_centers(values, centroids, v_sq)
        centroids, new_assignment = _repair_empty(ops, values, centroids, nearest)
        if new_assignment is nearest:
            trace.append(float(np.maximum(best, 0.0).sum()))
        else:  # a repair reassigned rows
            trace.append(_inertia(values, centroids, new_assignment))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        centroids = _centroids(values, assignment, centroids)
    return KmeansResult(
        centroids=centroids,
        assignment=Partition(assignment, n_clusters),
        inertia=_inertia(values, centroids, assignment),
        inertia_trace=tuple(trace),
    )


def kmc_pipeline(
    spec: MetricSpec,
    data: DataSet,
    n_clusters: int,
    seed: int,
) -> ClusteringResult:
    """Conventional pipeline: k-means partition + per-centroid optimal decisions.

    The centroid of each cluster is treated as if it were the observed sample
    and the decision problem is solved for it; the reported objective uses the
    true utility of those decisions on the actual samples.
    """
    km = kmeans(data, n_clusters, seed=seed)
    ops = metric_ops(spec)
    reps = ops.perfect_decisions(ops.prepare(km.centroids))
    assignment = km.assignment.assignment
    objective = math.fsum(ops.utilities(reps[assignment], ops.prepare(data.values)))
    return ClusteringResult(
        partition=km.assignment,
        representatives=reps,
        objective=objective,
        trace=RunTrace(objectives=(objective,), converged=True),
    )


def squared_distance_ops(dim: int) -> MetricOps:
    """Metric bundle for f(x; g) = -||x - g||^2 (the conventional-clustering embedding).

    Under this metric the engine's assignment step is nearest-neighbour and its
    representative step is the cluster centroid, i.e. one Lloyd iteration.
    """
    return MetricOps(
        prepare=lambda values: values,
        utilities=lambda x, values: -(
            (np.atleast_2d(np.asarray(values, dtype=float)) - np.asarray(x, dtype=float)) ** 2
        ).sum(axis=1),
        assign=lambda values, reps: nearest_centers(
            np.atleast_2d(np.asarray(values, dtype=float)),
            np.atleast_2d(np.asarray(reps, dtype=float)),
        ),
        best_representatives=lambda values, assignment, clusters: cluster_means(
            np.atleast_2d(np.asarray(values, dtype=float)), assignment, clusters
        ),
        perfect_decisions=lambda values: np.atleast_2d(np.array(values, dtype=float)),
        feasible=lambda decisions: np.ones(as_decisions(decisions, dim).shape[0], dtype=bool),
    )
