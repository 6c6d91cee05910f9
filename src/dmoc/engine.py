"""Alternating optimization between cluster assignment and representative decisions.

Each iteration assigns every sample to the representative with the highest
utility (ties to the lowest index), then re-solves each cluster's best
representative given its members. The per-iteration objective can only
increase or stay constant; the run stops when the improvement drops to the
tolerance or the iteration cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    SolverError,
    metric_ops,
)


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters: cluster count M, iteration cap Q, stop tolerance, seed, init.

    ``init`` is "random" (seeded draw of M distinct samples whose per-sample
    optimal decisions become the starting representatives), "kmeans" (start
    from the conventional-pipeline decisions), or an explicit (M, T) array of
    feasible starting decisions.
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
    for m, r in enumerate(reps):
        if not ops.feasible(r):
            raise InfeasibleDecisionError(f"representative {m} is infeasible: {r}")
    return reps


def _objective(ops: MetricOps, values: np.ndarray, reps: np.ndarray, assignment: np.ndarray) -> float:
    """Correctly rounded sum (math.fsum) of the per-sample utilities.

    The sum does not depend on how samples are grouped into clusters, and it
    is monotone in every term, so exact ties between representatives can
    never lower the objective by a rounding step.
    """
    return math.fsum(ops.utilities(reps[assignment], values))


def _repair_empty(ops: MetricOps, values: np.ndarray, reps: np.ndarray, assignment: np.ndarray):
    """Re-seed empty clusters from the worst-served samples, then reassign once."""
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

    Raises EmptyClusterError if a cluster has no members and SolverError
    (carrying the cluster index) on solver failure.
    """
    ops = metric_ops(spec)
    reps = np.empty((partition.n_clusters, ops.decision_dim))
    for m in range(partition.n_clusters):
        members = partition.members(m)
        if members.size == 0:
            raise EmptyClusterError(f"cluster {m} has no members", cluster=m)
        warm = None if warm_starts is None else np.asarray(warm_starts)[m]
        try:
            reps[m] = ops.best_representative(data.values, members, warm_start=warm)
        except SolverError as err:
            raise SolverError(f"cluster {m}: {err}", cluster=m) from err
    return reps


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
    q stops the run when its improvement is at most ``config.tol``. With
    ``ops.member_determined`` a cluster whose members and representative are
    unchanged since its last solve is not solved again.
    """
    if config.n_clusters > data.n:
        raise DmocError(f"n_clusters = {config.n_clusters} exceeds N = {data.n}")
    if isinstance(config.init, str) and config.init == "kmeans":
        raise DmocError("init 'kmeans' requires run_dmoc with a MetricSpec")
    values = data.values
    reps = _initial_reps(ops, data, config)

    assignment = ops.assign(values, reps)
    reps, assignment = _repair_empty(ops, values, reps, assignment)
    previous = _objective(ops, values, reps, assignment)

    objectives = []
    converged = False
    solved = {}  # cluster -> (members, representative) after its last solve
    for q in range(1, config.max_iters + 1):
        if q > 1:
            assignment = ops.assign(values, reps)
            reps, assignment = _repair_empty(ops, values, reps, assignment)
        candidates = reps.copy()
        clusters = {}  # cluster -> members, for the clusters solved this iteration
        for m in range(config.n_clusters):
            members = np.nonzero(assignment == m)[0]
            last = solved.get(m)
            if members.size == 0 or (
                last and np.array_equal(last[0], members) and np.array_equal(last[1], reps[m])
            ):
                continue
            try:
                candidates[m] = ops.best_representative(values, members, warm_start=reps[m])
            except SolverError as err:
                raise SolverError(f"cluster {m}: {err}", cluster=m) from err
            clusters[m] = members
        # every sample at its current representative; the solved clusters' members at the candidate
        utilities = ops.utilities(reps[assignment], values)
        rows = np.nonzero(np.isin(assignment, list(clusters)))[0]
        solved_utilities = np.empty_like(utilities)
        if rows.size:
            solved_utilities[rows] = ops.utilities(candidates[assignment[rows]], values[rows])
        for m, members in clusters.items():
            # keep the previous representative unless the solve strictly improved
            # the cluster utility; solver tolerance must never lower the objective
            if math.fsum(solved_utilities[members]) > math.fsum(utilities[members]):
                utilities[members] = solved_utilities[members]
            else:
                candidates[m] = reps[m]
            if ops.member_determined:
                solved[m] = (members, candidates[m].copy())
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
    ops = metric_ops(spec, approx_assignment=approx_assignment)
    if isinstance(config.init, str) and config.init == "kmeans":
        from . import baselines

        start = baselines.kmc_pipeline(spec, data, config.n_clusters, seed=config.seed)
        config = replace(config, init=start.representatives)
    return run_dmoc_ops(ops, data, config)
