"""Alternating optimization between cluster assignment and representative decisions.

Each iteration assigns every sample to the representative with the highest
utility (ties to the lowest index), then solves the clusters' best
representatives given their members, in one call. The per-iteration
objective can only increase or stay constant; the run stops when the
improvement drops to the tolerance or the iteration cap is reached.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringResult,
    DataSet,
    DmocError,
    EmptyClusterError,
    MetricOps,
    MetricSpec,
    Partition,
    RunTrace,
    SolverError,
    _count,
    _covers,
    cluster_members,
    metric_ops,
    prepared_rows,
    require_feasible,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters: cluster count M, iteration cap Q, stop tolerance, seed, init.

    ``init`` is "random" (seeded draw of M distinct samples whose per-sample
    optimal decisions become the starting representatives), "kmeans" (start
    from the conventional-pipeline decisions; ``evaluation.run_schemes``
    resolves it, the engine itself does not run k-means), or an explicit
    (M, T) array of feasible starting decisions. ``n_clusters`` and ``max_iters``
    are integers >= 1 and ``seed`` one >= 0 (``core._count``).
    """

    n_clusters: int
    max_iters: int = 10
    tol: float = 1e-3
    seed: int = 0
    init: object = "random"

    def __post_init__(self):
        _count(self.n_clusters, "n_clusters", 1)
        _count(self.max_iters, "max_iters", 1)
        _count(self.seed, "seed", 0)
        if not self.tol >= 0:
            raise DmocError("tol must be >= 0")
        if isinstance(self.init, str):
            if self.init not in ("random", "kmeans"):
                raise DmocError(f"unknown init {self.init!r}")
        else:
            object.__setattr__(
                self, "init", np.array(np.atleast_2d(np.asarray(self.init, dtype=float)))
            )


def _repair_empty(ops: MetricOps, values: np.ndarray, reps: np.ndarray, assignment: np.ndarray):
    """Re-seed empty clusters from the worst-served samples, then reassign once.
    Returns the given reps and assignment when no cluster is empty."""
    counts = np.bincount(assignment, minlength=reps.shape[0])
    empties = np.nonzero(counts == 0)[0]
    if empties.size == 0:
        return reps, assignment
    worst_first = np.argsort(ops.utilities(reps[assignment], values), kind="stable")
    reps = reps.copy()
    reps[empties] = ops.perfect_decisions(values[worst_first[: empties.size]])
    return reps, ops.assign(values, reps)


def _best_representatives(ops: MetricOps, values, groups, clusters, memo: dict | None = None):
    """(k, T) best representatives of ``clusters``, whose sorted members are ``groups``, looked
    up by member set in the sweep's ``memo`` (a hit is what a fresh solve returns, since a
    representative depends on its members alone). The misses are solved in one call; a
    SolverError names its cluster, and a failed call memoizes nothing. Logs one DEBUG record."""
    known = {} if memo is None else memo
    # the narrowest type that holds every row index of the run: one width for every key,
    # so that the keys of two member sets differ whenever the sets do
    width = np.min_scalar_type(len(values) - 1)
    keys = [members.astype(width).tobytes() for members in groups]
    missing = [i for i, key in enumerate(keys) if key not in known]
    if missing:
        try:
            solved = ops.best_representatives(values, [groups[i] for i in missing])
        except SolverError as err:
            m = int(clusters[missing[err.cluster]])
            raise SolverError(f"cluster {m}: {err}", cluster=m) from err
        known.update(zip([keys[i] for i in missing], solved))
    if logger.isEnabledFor(logging.DEBUG):
        counts = {"asked": len(keys), "reused": len(keys) - len(missing), "solved": len(missing)}
        message = "representatives: %(asked)d clusters asked for, %(reused)d reused, %(solved)d solved"
        logger.debug(message, counts, extra={"representatives": counts})
    return np.stack([known[key] for key in keys])


def _keep_or_replace(ops: MetricOps, values, assignment, reps: np.ndarray, clusters, utilities, memo=None):
    """Solve the representatives of ``clusters`` (each with members), grouping the
    assignment once for the solve (through the sweep's ``memo``) and the guard.

    ``utilities`` holds every sample's utility at its representative in
    ``reps``. Each cluster keeps its representative unless the solve strictly
    raises the correctly rounded sum of its members' utilities, so solver
    tolerance can never lower the objective. Returns the representatives and
    ``utilities``, updated in place for the replaced clusters' members. The
    solved clusters' members are scored in one call; when they are every row,
    through a basic slice, so the rows are read in place and not gathered.
    """
    candidates = reps.copy()
    if len(clusters) == 0:
        return candidates, utilities
    groups = cluster_members(assignment, clusters)
    candidates[clusters] = _best_representatives(ops, values, groups, clusters, memo)
    rows = np.sort(np.concatenate(groups))
    if rows.size == assignment.size:
        rows = slice(None)
    solved_utilities = np.empty_like(utilities)
    solved_utilities[rows] = ops.utilities(candidates[assignment[rows]], values[rows])
    for m, members in zip(clusters, groups):
        if math.fsum(solved_utilities[members]) > math.fsum(utilities[members]):
            utilities[members] = solved_utilities[members]
        else:
            candidates[m] = reps[m]
    return candidates, utilities


def assign_clusters(
    spec: MetricSpec,
    data: DataSet,
    reps,
    approx_assignment: bool = False,
) -> Partition:
    """Assign every sample to its best representative (ties to the lowest index)."""
    ops = metric_ops(spec, approx_assignment=approx_assignment)
    reps = require_feasible(ops, reps, name="representative")
    return Partition(ops.assign(ops.prepare(data.values), reps), reps.shape[0])


def update_representatives(
    spec: MetricSpec,
    data: DataSet,
    partition: Partition,
    warm_starts=None,
) -> np.ndarray:
    """Best representative decision for every cluster of the partition.

    ``warm_starts``, if given, holds one feasible decision per cluster; each
    cluster keeps its warm start unless the solve strictly raises the
    cluster's utility, as in every engine iteration. Raises DimensionError for a
    partition of another N (``core._covers``) or a warm start of the wrong length,
    EmptyClusterError for a cluster with no members, InfeasibleDecisionError for a
    warm start outside the constraint set, and SolverError (with the cluster) on failure.
    """
    _covers(partition, data)
    ops = metric_ops(spec)
    if warm_starts is not None:
        warm_starts = require_feasible(ops, warm_starts, partition.n_clusters, name="warm_starts")
    empty = np.nonzero(partition.counts() == 0)[0]
    if empty.size:
        raise EmptyClusterError(f"cluster {empty[0]} has no members", cluster=int(empty[0]))
    clusters = np.arange(partition.n_clusters)
    rows = ops.prepare(data.values)
    if warm_starts is None:
        return _best_representatives(ops, rows, cluster_members(partition.assignment, clusters), clusters)
    utilities = ops.utilities(warm_starts[partition.assignment], rows)
    return _keep_or_replace(ops, rows, partition.assignment, warm_starts, clusters, utilities)[0]


def _initial_reps(ops: MetricOps, values: np.ndarray, config: EngineConfig) -> np.ndarray:
    if isinstance(config.init, np.ndarray):
        return require_feasible(ops, config.init, config.n_clusters, name="init")
    rng = np.random.default_rng(config.seed)
    picks = rng.choice(values.shape[0], size=config.n_clusters, replace=False)
    return ops.perfect_decisions(values[picks])


def run_dmoc_ops(
    ops: MetricOps, data: DataSet, config: EngineConfig, memo: dict | None = None
) -> ClusteringResult:
    """Alternating-optimization run against an arbitrary metric-ops bundle.

    The baseline objective of the starting decisions is measured after a
    first assignment; at least one full iteration always runs, and iteration
    q stops the run when its improvement is at most ``config.tol``. Each
    iteration solves its clusters' representatives in one call: every
    nonempty cluster in the first iteration, and after it only those that a
    sample entered or left or whose representative the empty-cluster repair
    replaced, since a representative depends on its cluster's members alone.
    Samples are prepared (``ops.prepare``) once per run, or once per sweep when the
    sweep's ``memo`` is given (``core.prepared_rows``), and utilities carry over: an
    iteration rescores only the samples that moved or whose representative was re-seeded.
    The same ``memo`` keeps the sweep's representatives by member set
    (``_best_representatives``), so a cluster that recurs in the sweep is solved once.
    """
    _count(config.n_clusters, "n_clusters", 1, data.n)
    if isinstance(config.init, str) and config.init == "kmeans":
        raise DmocError(
            "init 'kmeans' is resolved by evaluation.run_schemes; "
            "the engine takes 'random' or explicit decisions"
        )
    values = prepared_rows(ops, data, memo)
    reps = _initial_reps(ops, values, config)

    assignment = ops.assign(values, reps)
    reps, assignment = _repair_empty(ops, values, reps, assignment)
    utilities = ops.utilities(reps[assignment], values)
    previous = math.fsum(utilities)

    objectives = []
    converged = False
    changed = np.ones(config.n_clusters, dtype=bool)
    for q in range(1, config.max_iters + 1):
        if q > 1:
            last_assignment, last_reps = assignment, reps
            assignment = ops.assign(values, reps)
            reps, assignment = _repair_empty(ops, values, reps, assignment)
            moved = assignment != last_assignment
            changed = np.any(reps != last_reps, axis=1)
            stale = np.nonzero(moved | changed[assignment])[0]
            if stale.size:
                utilities[stale] = ops.utilities(reps[assignment[stale]], values[stale])
            changed[assignment[moved]] = True
            changed[last_assignment[moved]] = True
        solve = np.nonzero((np.bincount(assignment, minlength=config.n_clusters) > 0) & changed)[0]
        reps, utilities = _keep_or_replace(ops, values, assignment, reps, solve, utilities, memo)
        current = math.fsum(utilities)
        objectives.append(current)
        if current - previous <= config.tol:
            converged = True
            break
        previous = current

    return ClusteringResult(
        partition=Partition(assignment, config.n_clusters),
        representatives=reps,
        objective=objectives[-1],
        trace=RunTrace(objectives=tuple(objectives), converged=converged),
    )


def run_dmoc(
    spec: MetricSpec,
    data: DataSet,
    config: EngineConfig,
    approx_assignment: bool = False,
    memo: dict | None = None,
) -> ClusteringResult:
    """Run decision-oriented clustering for a pricing or scheduling metric.

    ``approx_assignment`` replaces the assignment rule with its p = 2
    surrogate (scheduling only); representatives keep the true metric.
    ``memo`` is the memo of one sweep on ``data`` (``run_dmoc_ops``).
    """
    return run_dmoc_ops(metric_ops(spec, approx_assignment), data, config, memo)
