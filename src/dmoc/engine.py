"""Alternating optimization between cluster assignment and representative decisions.

Each iteration assigns every sample to the representative with the highest
utility (ties to the lowest index), then solves the clusters' best
representatives given their members, in one call. The per-iteration
objective can only increase or stay constant; the run stops when the
improvement drops to the tolerance or the iteration cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringResult,
    DataSet,
    DmocError,
    EmptyClusterError,
    InfeasibleDecisionError,
    MetricOps,
    MetricSpec,
    Partition,
    RunTrace,
    cluster_members,
    metric_ops,
)


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters: cluster count M, iteration cap Q, stop tolerance, seed, init.

    ``init`` is "random" (seeded draw of M distinct samples whose per-sample
    optimal decisions become the starting representatives), "kmeans" (start
    from the conventional-pipeline decisions; ``evaluation.run_schemes``
    resolves it, the engine itself does not run k-means), or an explicit
    (M, T) array of feasible starting decisions.
    """

    n_clusters: int
    max_iters: int = 10
    tol: float = 1e-3
    seed: int = 0
    init: object = "random"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise DmocError("n_clusters must be >= 1")
        if self.max_iters < 1:
            raise DmocError("max_iters must be >= 1")
        if self.tol < 0:
            raise DmocError("tol must be >= 0")
        if isinstance(self.init, str):
            if self.init not in ("random", "kmeans"):
                raise DmocError(f"unknown init {self.init!r}")
        else:
            object.__setattr__(
                self, "init", np.array(np.atleast_2d(np.asarray(self.init, dtype=float)))
            )


def _validated_reps(ops: MetricOps, reps) -> np.ndarray:
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    if reps.shape[0] < 1:
        raise DmocError("at least one representative is required")
    ok = ops.feasible(reps)
    if not ok.all():
        m = int(np.argmin(ok))
        raise InfeasibleDecisionError(f"representative {m} is infeasible: {reps[m]}")
    return reps


def _objective(ops: MetricOps, values: np.ndarray, reps: np.ndarray, assignment: np.ndarray) -> float:
    """Correctly rounded sum (math.fsum) of the per-sample utilities.

    The sum does not depend on how samples are grouped into clusters, and it
    is monotone in every term, so exact ties between representatives can
    never lower the objective by a rounding step.
    """
    return math.fsum(ops.utilities(reps[assignment], values))


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


def assign_clusters(
    spec: MetricSpec,
    data: DataSet,
    reps,
    approx_assignment: bool = False,
) -> Partition:
    """Assign every sample to its best representative (ties to the lowest index)."""
    ops = metric_ops(spec, approx_assignment=approx_assignment)
    reps = _validated_reps(ops, reps)
    return Partition(ops.assign(data.values, reps), reps.shape[0])


def update_representatives(
    spec: MetricSpec,
    data: DataSet,
    partition: Partition,
    warm_starts=None,
) -> np.ndarray:
    """Best representative decision for every cluster of the partition.

    ``warm_starts``, if given, holds one feasible decision per cluster, and
    each returned decision is never worse than its warm start. Raises
    EmptyClusterError if a cluster has no members, InfeasibleDecisionError
    for an infeasible warm start, and SolverError (carrying the cluster
    index) on solver failure.
    """
    ops = metric_ops(spec)
    if warm_starts is not None:
        warm_starts = _validated_reps(ops, warm_starts)
        if warm_starts.shape[0] != partition.n_clusters:
            raise DmocError(
                f"warm_starts provides {warm_starts.shape[0]} decisions "
                f"for {partition.n_clusters} clusters"
            )
    empty = np.nonzero(partition.counts() == 0)[0]
    if empty.size:
        raise EmptyClusterError(f"cluster {empty[0]} has no members", cluster=int(empty[0]))
    return ops.best_representatives(
        data.values, partition.assignment, np.arange(partition.n_clusters), warm_starts
    )


def _initial_reps(ops: MetricOps, data: DataSet, config: EngineConfig) -> np.ndarray:
    if isinstance(config.init, np.ndarray):
        reps = _validated_reps(ops, config.init)
        if reps.shape[0] != config.n_clusters:
            raise DmocError(
                f"init provides {reps.shape[0]} decisions for {config.n_clusters} clusters"
            )
        return reps
    rng = np.random.default_rng(config.seed)
    picks = rng.choice(data.n, size=config.n_clusters, replace=False)
    return ops.perfect_decisions(data.values[picks])


def run_dmoc_ops(ops: MetricOps, data: DataSet, config: EngineConfig) -> ClusteringResult:
    """Alternating-optimization run against an arbitrary metric-ops bundle.

    The baseline objective of the starting decisions is measured after a
    first assignment; at least one full iteration always runs, and iteration
    q stops the run when its improvement is at most ``config.tol``. Each
    iteration solves its clusters' representatives in one call: every
    nonempty cluster, or with ``ops.member_determined`` after the first
    iteration only those that a sample entered or left or whose
    representative the empty-cluster repair replaced.
    """
    if config.n_clusters > data.n:
        raise DmocError(f"n_clusters = {config.n_clusters} exceeds N = {data.n}")
    if isinstance(config.init, str) and config.init == "kmeans":
        raise DmocError(
            "init 'kmeans' is resolved by evaluation.run_schemes; "
            "the engine takes 'random' or explicit decisions"
        )
    values = data.values
    reps = _initial_reps(ops, data, config)

    assignment = ops.assign(values, reps)
    reps, assignment = _repair_empty(ops, values, reps, assignment)
    previous = _objective(ops, values, reps, assignment)

    objectives = []
    converged = False
    for q in range(1, config.max_iters + 1):
        if q > 1:
            last_assignment, last_reps = assignment, reps
            assignment = ops.assign(values, reps)
            reps, assignment = _repair_empty(ops, values, reps, assignment)
        solve = np.bincount(assignment, minlength=config.n_clusters) > 0
        if q > 1 and ops.member_determined:
            moved = assignment != last_assignment
            changed = np.any(reps != last_reps, axis=1)
            changed[assignment[moved]] = True
            changed[last_assignment[moved]] = True
            solve &= changed
        clusters = np.nonzero(solve)[0]
        candidates = reps.copy()
        # every sample at its current representative; the solved clusters' members at the candidate
        utilities = ops.utilities(reps[assignment], values)
        if clusters.size:
            candidates[clusters] = ops.best_representatives(values, assignment, clusters, reps[clusters])
            rows = np.nonzero(solve[assignment])[0]
            solved_utilities = np.empty_like(utilities)
            solved_utilities[rows] = ops.utilities(candidates[assignment[rows]], values[rows])
            for m, members in zip(clusters, cluster_members(assignment, clusters)):
                # keep the previous representative unless the solve strictly improved
                # the cluster utility; solver tolerance must never lower the objective
                if math.fsum(solved_utilities[members]) > math.fsum(utilities[members]):
                    utilities[members] = solved_utilities[members]
                else:
                    candidates[m] = reps[m]
        reps = candidates
        current = math.fsum(utilities)
        objectives.append(current)
        if current - previous <= config.tol:
            converged = True
            break
        previous = current

    trace = RunTrace(
        objectives=tuple(objectives),
        iterations_run=len(objectives),
        converged=converged,
    )
    return ClusteringResult(
        partition=Partition(assignment, config.n_clusters),
        representatives=reps,
        objective=objectives[-1],
        trace=trace,
    )


def run_dmoc(
    spec: MetricSpec,
    data: DataSet,
    config: EngineConfig,
    approx_assignment: bool = False,
) -> ClusteringResult:
    """Run decision-oriented clustering for a pricing or scheduling metric.

    ``approx_assignment`` replaces the assignment rule with its p = 2
    surrogate (scheduling only); representatives keep the true metric.
    """
    return run_dmoc_ops(metric_ops(spec, approx_assignment=approx_assignment), data, config)
