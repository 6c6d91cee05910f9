"""Oracles and evaluation metrics: perfect baseline, optimality loss, peak statistics.

The perfect baseline solves the decision problem per sample (the infinite-
cluster limit) and anchors the relative optimality loss of any clustering
scheme. Peak-occurrence entropy summarizes how hard a dataset is to cluster
for peak-power purposes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ClusteringResult,
    DataSet,
    DmocError,
    MetricSpec,
    _count,
    _covers,
    metric_ops,
    prepared_rows,
)
from .engine import EngineConfig, run_dmoc
from .baselines import kmc_pipeline

SCHEMES = ("dmoc", "dmoc-approx", "kmc")


def perfect_decisions(spec: MetricSpec, data: DataSet) -> np.ndarray:
    """Per-sample optimal decisions x*(g_n), stacked as an (N, T) array."""
    ops = metric_ops(spec)
    return ops.perfect_decisions(ops.prepare(data.values))


def perfect_objective(spec: MetricSpec, data: DataSet, memo: dict | None = None) -> float:
    """Total utility when every sample gets its own optimal decision (a correctly rounded sum);
    a sweep's ``memo`` keeps the prepared rows for its runs (``core.prepared_rows``)."""
    ops = metric_ops(spec)
    rows = prepared_rows(ops, data, memo)
    return math.fsum(ops.utilities(ops.perfect_decisions(rows), rows))


def relative_loss(f_perfect: float, f_c: float) -> float:
    """Optimality loss of a scheme against the perfect baseline, in percent.

    Reported as |F_perfect - F_c| / |F_perfect| * 100 so that losses are
    positive for both sign conventions of the utility.
    """
    if f_perfect == 0:
        raise DmocError("relative loss is undefined for a zero perfect objective")
    return abs(f_perfect - f_c) / abs(f_perfect) * 100.0


@dataclass(frozen=True)
class PeakHistogram:
    """Empirical distribution of the per-sample peak time slot."""

    p_hat: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise DmocError("p_hat must be a probability vector")


def peak_histogram(data: DataSet) -> PeakHistogram:
    """Histogram of argmax slots, one count per sample (ties to the lowest slot)."""
    peaks = np.argmax(data.values, axis=1)
    counts = np.bincount(peaks, minlength=data.dim)
    return PeakHistogram(p_hat=counts / data.n, counts=counts)


def peak_entropy(hist: PeakHistogram) -> float:
    """Shannon entropy of the peak-slot distribution in bits (0*log 0 = 0)."""
    p = hist.p_hat[hist.p_hat > 0]
    return float(-(p * np.log2(p)).sum())


def realized_peaks(spec: MetricSpec, result: ClusteringResult, data: DataSet) -> np.ndarray:
    """Weighted peak of the total load per sample: max_t w_t (x_{m(n)}(t) + g_n(t))."""
    if spec.kind != "pcs":
        raise DmocError("realized peaks are defined for the scheduling metric")
    _covers(result.partition, data)
    x = result.representatives[result.partition.assignment]
    return (spec.pcs.weights * (x + data.values)).max(axis=1)


def run_schemes(schemes, spec: MetricSpec, data: DataSet, config: EngineConfig, memo=None) -> dict:
    """``{scheme: ClusteringResult}`` for each named scheme at ``config.n_clusters`` clusters.

    The k-means pipeline runs at most once, with ``config.seed``: it is the
    kmc result, and with ``config.init == "kmeans"`` its decisions are the
    explicit start of every engine run. At p = 2 the approximate (p = 2)
    assignment is the exact one, so dmoc-approx is the dmoc run, made once.
    A sweep passes its one ``memo`` to every call: it keeps the sweep's prepared
    rows and its representatives by member set (``engine.run_dmoc_ops``).
    """
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise DmocError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    kmeans_init = isinstance(config.init, str) and config.init == "kmeans"
    kmc = None
    if kmeans_init or "kmc" in schemes:
        kmc = kmc_pipeline(spec, data, config.n_clusters, seed=config.seed, memo=memo)
    if kmeans_init:
        config = replace(config, init=kmc.representatives)
    exact = spec.kind == "pcs" and spec.pcs.p == 2
    approx = {s: s == "dmoc-approx" and not exact for s in schemes if s != "kmc"}
    runs = {a: run_dmoc(spec, data, config, a, memo) for a in dict.fromkeys(approx.values())}
    return {s: kmc if s == "kmc" else runs[approx[s]] for s in schemes}


def fan_out(fn, items, jobs: int) -> dict:
    """``{item: fn(item)}``, on ``jobs`` threads when jobs > 1; keyed, so jobs never changes it."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return dict(zip(items, pool.map(fn, items)))
    return {item: fn(item) for item in items}


@dataclass(frozen=True)
class LossCurve:
    """Relative optimality loss against the cluster count for one scheme."""

    scheme: str
    points: tuple  # (m, rho_percent)
    objectives: tuple
    f_perfect: float


def loss_curve(
    spec: MetricSpec,
    data: DataSet,
    m_values,
    schemes=SCHEMES,
    seed: int = 0,
    max_iters: int = 10,
    tol: float = 1e-3,
    init="kmeans",
    jobs: int = 1,
) -> list[LossCurve]:
    """Loss-vs-M sweep over clustering schemes.

    The runs at M share seed ``seed + M`` and one ``run_schemes`` call, so
    the k-means pipeline runs once per M. Every run shares one memo, so the
    samples are prepared once per call, by the perfect baseline before any
    run, and each distinct cluster is solved once per call. With
    ``jobs > 1`` the values of M execute in a thread pool; results are keyed,
    and a memo hit equals a fresh solve, so the output is identical for any
    job count. Before any run, each M must be an integer in 1..N, ``seed`` one
    >= 0 and ``jobs`` one >= 1 (``core._count``).
    """
    m_values = [_count(m, "n_clusters", 1, data.n) for m in m_values]
    seed, jobs = _count(seed, "seed", 0), _count(jobs, "jobs", 1)
    memo = {}
    f_perfect = perfect_objective(spec, data, memo)

    def run_at(m):
        config = EngineConfig(n_clusters=m, max_iters=max_iters, tol=tol, seed=seed + m, init=init)
        return {s: r.objective for s, r in run_schemes(schemes, spec, data, config, memo).items()}

    results = fan_out(run_at, m_values, jobs)
    curves = []
    for scheme in schemes:
        objectives = tuple(results[m][scheme] for m in m_values)
        points = tuple((m, relative_loss(f_perfect, f)) for m, f in zip(m_values, objectives))
        curves.append(
            LossCurve(scheme=scheme, points=points, objectives=objectives, f_perfect=f_perfect)
        )
    return curves


def clusters_for_targets(
    spec: MetricSpec,
    data: DataSet,
    targets,
    schemes=("dmoc", "kmc"),
    m_max: int = 20,
    seed: int = 0,
    max_iters: int = 10,
    tol: float = 1e-3,
    jobs: int = 1,
) -> dict:
    """``{(scheme, target): M}``: the smallest M whose worst realized peak is at
    most the target, or None if no M up to ``m_max`` (at most N) reaches it.

    One sweep walks M upward: at each M, one ``run_schemes`` call (seed
    ``seed + M``, k-means start) runs the schemes that still have an open
    target, until every target is answered; the runs share one representative
    memo, as in ``loss_curve``. With ``jobs > 1``, M runs in threaded rounds of
    ``jobs`` values; the answers never depend on jobs. ``m_max`` and ``jobs`` are
    integers >= 1 and ``seed`` one >= 0 (``core._count``); with no target nothing runs.
    """
    if spec.kind != "pcs" or spec.pcs.p != np.inf:
        raise DmocError("the peak-target search requires a pcs spec with p = inf")
    m_max, jobs, seed = _count(m_max, "m_max", 1), _count(jobs, "jobs", 1), _count(seed, "seed", 0)

    def worst_peaks(m):
        config = EngineConfig(
            n_clusters=m, max_iters=max_iters, tol=tol, seed=seed + m, init="kmeans"
        )
        results = run_schemes(pending, spec, data, config, memo)
        return {s: realized_peaks(spec, r, data).max() for s, r in results.items()}

    found, memo, top = {}, {}, min(m_max, data.n)
    pending = tuple(schemes) if len(targets) else ()  # the schemes with an open target
    for first in range(1, top + 1, jobs):
        if not pending:
            break
        peaks = fan_out(worst_peaks, range(first, min(first + jobs, top + 1)), jobs)
        for m, peak in peaks.items():
            for s in pending:
                for t in targets:
                    if (s, t) not in found and peak[s] <= t:
                        found[s, t] = m
        pending = tuple(s for s in pending if any((s, t) not in found for t in targets))
    return {(s, t): found.get((s, t)) for s in schemes for t in targets}
