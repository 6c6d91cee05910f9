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
    _count,
    _nearest_centers,
    _row_sq_distances,
    as_decisions,
    cluster_means,
    cluster_members,
    metric_ops,
    nearest_centers,
    prepared_rows,
)
from .engine import _repair_empty


@dataclass(frozen=True)
class KmeansResult:
    """Centroids in data space plus the nearest-centroid assignment and its inertia."""

    centroids: np.ndarray
    assignment: Partition
    inertia: float
    inertia_trace: tuple = ()


def kmeans_pp_init(values: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared-distance sampling."""
    n = values.shape[0]
    picks = [int(rng.integers(n))]
    d2 = _row_sq_distances(values, values[picks[0]])
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        picks.append(pick)
        d2 = np.minimum(d2, _row_sq_distances(values, values[pick]))
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
    The rows' norms are computed once per call. Each update step refreshes only the
    centroids of the clusters that a row entered or left: an untouched cluster's centroid
    is the mean of the same rows, already in the bits a recompute would give. The first
    update, and one after an empty-cluster repair, refreshes every nonempty cluster; a
    cluster that the repair left empty keeps its re-seeded centroid. ``n_clusters`` is
    an integer in 1..N, ``max_iters`` one >= 1 and ``seed`` one >= 0 (``core._count``).
    """
    _count(n_clusters, "n_clusters", 1, data.n)
    _count(max_iters, "max_iters", 1)
    _count(seed, "seed", 0)
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
    v_norm = np.sqrt(v_sq)
    assignment = None
    trace = []
    for _ in range(max_iters):
        nearest, best = _nearest_centers(values, centroids, v_sq, v_norm)
        centroids, new_assignment = _repair_empty(ops, values, centroids, nearest)
        if new_assignment is nearest:
            trace.append(float(np.maximum(best, 0.0).sum()))
        else:  # a repair reassigned rows
            trace.append(float(_row_sq_distances(values, centroids, new_assignment).sum()))
        if assignment is not None:
            moved = new_assignment != assignment
            if not moved.any():
                break
        if assignment is None or new_assignment is not nearest:
            refresh = np.unique(new_assignment)
        else:
            refresh = np.unique(np.concatenate([assignment[moved], new_assignment[moved]]))
        assignment = new_assignment
        centroids = centroids.copy()
        centroids[refresh] = cluster_means(values, cluster_members(assignment, refresh))
    return KmeansResult(
        centroids=centroids,
        assignment=Partition(assignment, n_clusters),
        inertia=float(_row_sq_distances(values, centroids, assignment).sum()),
        inertia_trace=tuple(trace),
    )


def kmc_pipeline(
    spec: MetricSpec,
    data: DataSet,
    n_clusters: int,
    seed: int,
    memo: dict | None = None,
) -> ClusteringResult:
    """Conventional pipeline: k-means partition + per-centroid optimal decisions.

    The centroid of each cluster is treated as if it were the observed sample
    and the decision problem is solved for it; the reported objective uses the
    true utility of those decisions on the actual samples, prepared once per
    sweep when the sweep's ``memo`` is given (``core.prepared_rows``).
    """
    km = kmeans(data, n_clusters, seed=seed)
    ops = metric_ops(spec)
    reps = ops.perfect_decisions(ops.prepare(km.centroids))
    assignment = km.assignment.assignment
    objective = math.fsum(ops.utilities(reps[assignment], prepared_rows(ops, data, memo)))
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
        utilities=lambda x, values: -_row_sq_distances(
            np.atleast_2d(np.asarray(values, dtype=float)), np.asarray(x, dtype=float)
        ),
        assign=lambda values, reps: nearest_centers(
            np.atleast_2d(np.asarray(values, dtype=float)),
            np.atleast_2d(np.asarray(reps, dtype=float)),
        ),
        best_representatives=lambda values, groups: cluster_means(
            np.atleast_2d(np.asarray(values, dtype=float)), groups
        ),
        perfect_decisions=lambda values: np.atleast_2d(np.array(values, dtype=float)),
        feasible=lambda decisions: np.ones(as_decisions(decisions, dim).shape[0], dtype=bool),
    )
