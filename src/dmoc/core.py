"""Shared domain types, validation, and the metric interface the engine optimizes against.

Cluster indices are 0-based throughout (``0 .. M-1``). All container types are
immutable after construction: their arrays are copied on the way in and marked
read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

logger = logging.getLogger("dmoc")

#: Absolute tolerance applied to every feasibility constraint.
FEASIBILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DmocError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionError(DmocError):
    """A vector or matrix has the wrong shape for the operation."""


class InfeasibleDecisionError(DmocError):
    """A decision vector violates the metric's constraint set."""


class EmptyClusterError(DmocError):
    """A representative was requested for a cluster with no members."""

    def __init__(self, message: str, cluster: int | None = None):
        super().__init__(message)
        self.cluster = cluster


class SolverError(DmocError):
    """A representative solver failed to reach its target accuracy."""

    def __init__(self, message: str, cluster: int | None = None):
        super().__init__(message)
        self.cluster = cluster


class DataFormatError(DmocError):
    """An input file could not be parsed; carries the offending location."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


# ---------------------------------------------------------------------------
# Array helpers
# ---------------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=a.dtype, copy=True)
    a.flags.writeable = False
    return a


def as_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DmocError(f"{name} contains non-finite entries")
    return v


def as_decisions(decisions, length: int | None = None, *, name: str = "decision") -> np.ndarray:
    """Coerce to a finite 2-D float array of decision rows (a 1-D decision is one row),
    each of ``length`` entries when given."""
    x = np.atleast_2d(np.asarray(decisions, dtype=float))
    if x.ndim > 2:
        raise DimensionError(f"{name} rows must form a 1-D or 2-D array, got shape {x.shape}")
    if length is not None and x.shape[1] != length:
        raise DimensionError(f"{name} has length {x.shape[1]}, expected {length}")
    if not np.all(np.isfinite(x)):
        raise DmocError(f"{name} contains non-finite entries")
    return x


def _count(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` as an int in [least, most], else DmocError; a non-integer (a bool, 2.0) raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name}: expected an integer >= {least}, got {value!r}")
    if value < least:
        raise DmocError(f"{name}: expected an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise DmocError(f"{name} = {value} exceeds N = {most}")
    return int(value)


def _indices(a, n: int, name: str) -> np.ndarray:
    """The nonempty 1-D ``a`` as ``intp`` indices, else DmocError naming an entry ``name``: each
    an integer in [0, n), since a negative one would wrap around and a fraction be truncated."""
    a = np.asarray(a)
    exact = a.dtype.kind in "iu"
    f = a if exact else a.astype(float)
    bad = (f < 0) | (f >= n) if exact else ~((f >= 0) & (f < n) & (f == np.floor(f)))
    if not bad.any():
        return f.astype(np.intp, copy=False)
    raise DmocError(f"{name} {a[bad][0]} is not an integer in [0, {n})")


def _covers(partition: Partition, data: DataSet) -> None:
    """DimensionError unless ``partition`` assigns exactly the samples of ``data``."""
    if partition.n != data.n:
        raise DimensionError(f"partition covers {partition.n} samples, dataset has {data.n}")


#: Floats in one block of a row-blocked kernel (64 KB). Temporaries this small stay
#: below glibc's default 128 KB mmap threshold, so each call reuses heap memory
#: instead of faulting in fresh pages.
BLOCK_FLOATS = 8192


def row_blocks(n_rows: int, row_floats: int) -> list:
    """Consecutive slices covering ``range(n_rows)``, each of at least one row and at
    most ``BLOCK_FLOATS // row_floats`` rows (``row_floats``: a row's share of the
    largest temporary). Row-wise results are unchanged by the blocking."""
    step = max(1, BLOCK_FLOATS // max(1, row_floats))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _row_sq_distances(values: np.ndarray, points: np.ndarray, index=None) -> np.ndarray:
    """Squared distance ``((v - p) ** 2).sum()`` of each row v of the (N, d) ``values``, in
    row blocks, to p: the one point ``points`` ((d,) or (1, d)), row i of the (N, d) ``points``,
    or row ``index[i]`` of ``points``, gathered block by block."""
    one = index is None and (points.ndim == 1 or points.shape[0] == 1)
    out = np.empty(values.shape[0])
    for rows in row_blocks(values.shape[0], values.shape[1]):
        point = points if one else points[rows if index is None else index[rows]]
        out[rows] = ((values[rows] - point) ** 2).sum(axis=1)
    return out


def sq_distances(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, M) squared Euclidean distances ``((v - c)**2).sum()``, one center at a time."""
    return np.stack([_row_sq_distances(values, c) for c in centers], axis=1)


def nearest_centers(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest of the (M, d) ``centers`` for each row of the (N, d)
    ``values`` (both finite), ties to the lowest index: exactly
    ``argmin(sq_distances(values, centers), axis=1)``.

    Centers are ranked by the expansion ||v||^2 - 2 v.c + ||c||^2, one matrix
    product per row block (as scikit-learn's ``euclidean_distances``). It differs
    from ``sq_distances`` by at most 2 gamma_{d+3} (||v|| + max ||c||)^2, with
    gamma_n = n u / (1 - n u) for the unit roundoff u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3), in any summation order and
    with or without fused multiply-adds. A row whose two best expanded distances
    are not farther apart than twice that, with margin, is re-measured with
    ``sq_distances``; every other row's nearest center is unique under both forms.
    """
    if centers.shape[0] == 1:
        return np.zeros(values.shape[0], dtype=np.intp)
    v_sq = np.einsum("ij,ij->i", values, values)
    return _nearest_centers(values, centers, v_sq, np.sqrt(v_sq))[0]


def _nearest_centers(values: np.ndarray, centers: np.ndarray, v_sq: np.ndarray, v_norm: np.ndarray):
    """``nearest_centers`` given the rows' squared norms ``v_sq`` and norms
    ``v_norm = sqrt(v_sq)``, plus each row's squared distance to its nearest center:
    the expanded one, within the bound above, or the direct one for a re-measured row."""
    n, dim = values.shape
    out = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    k = (dim + 4) * np.finfo(float).eps / 2
    # the second term covers the absolute rounding error of products that underflow
    bound_scale, bound_floor = 4 * k / (1 - k), 8 * (dim + 4) * np.finfo(float).smallest_subnormal
    reach = math.sqrt(c_sq.max())
    near = np.zeros(n, dtype=bool)
    for rows in row_blocks(n, centers.shape[0]):
        dist = values[rows] @ centers.T
        dist *= -2.0
        dist += v_sq[rows, None]
        dist += c_sq
        at = np.arange(dist.shape[0])
        out[rows] = nearest = dist.argmin(axis=1)
        # a NaN (an overflowed expansion) is the argmin, so its row is re-measured
        best[rows] = dist[at, nearest]
        dist[at, nearest] = np.inf
        bound = bound_scale * (v_norm[rows] + reach) ** 2 + bound_floor
        near[rows] = ~(dist.min(axis=1) - best[rows] > bound)
    if near.any():
        direct = sq_distances(values[near], centers)
        out[near] = direct.argmin(axis=1)
        best[near] = direct.min(axis=1)
    return out, best


def cluster_members(assignment: np.ndarray, clusters) -> list:
    """Sorted member indices (``intp``) of each of ``clusters``, from one stable grouping of
    ``assignment``. The grouping sorts the assignment cast to the narrowest unsigned type
    that holds its largest index: numpy's stable sort is a radix sort for integers of at
    most 16 bits, and a stable sort's order does not depend on the key type."""
    narrow = np.min_scalar_type(int(assignment.max(initial=0)))
    order = np.argsort(assignment.astype(narrow, copy=False), kind="stable")
    grouped = assignment[order]
    starts = np.searchsorted(grouped, clusters, side="left")
    ends = np.searchsorted(grouped, clusters, side="right")
    return [order[s:e] for s, e in zip(starts, ends)]


def cluster_means(values: np.ndarray, groups) -> np.ndarray:
    """(k, d) means of the rows of ``values`` in each of the k ``groups`` of row indices (each nonempty)."""
    return np.stack([values[rows].mean(axis=0) for rows in groups])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSet:
    """A batch of samples stored as one read-only ``(N, d)`` array (row = sample)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"dataset must be 2-D (N, d), got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DmocError(f"dataset must be nonempty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DmocError("dataset contains non-finite entries")
        if np.any(v < 0):
            raise DmocError("dataset contains negative entries")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Partition:
    """Assignment of N samples to ``n_clusters`` clusters, integers in [0, n_clusters) (``_indices``)."""

    assignment: np.ndarray
    n_clusters: int

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if a.ndim != 1 or a.size == 0:
            raise DimensionError("assignment must be a nonempty 1-D index array")
        n_clusters = _count(self.n_clusters, "n_clusters", 1)
        object.__setattr__(self, "assignment", _freeze(_indices(a, n_clusters, "assignment entry")))

    @property
    def n(self) -> int:
        return self.assignment.size

    def members(self, m: int) -> np.ndarray:
        """Indices of the samples assigned to cluster ``m`` (the set N_m)."""
        return np.nonzero(self.assignment == m)[0]

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


@dataclass(frozen=True)
class RtpParams:
    """Pricing-metric parameters: K consumers, T slots, and the cost triplet (a, b, c)."""

    n_consumers: int
    n_slots: int
    alpha: float
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        _count(self.n_consumers, "n_consumers", 1)
        _count(self.n_slots, "n_slots", 1)
        if not self.alpha > 0:
            raise DmocError("alpha must be > 0")
        if self.a < 0 or self.b < 0:
            raise DmocError("a and b must be >= 0")

    @property
    def data_dim(self) -> int:
        return self.n_consumers * self.n_slots

    @property
    def decision_dim(self) -> int:
        return self.n_slots


@dataclass(frozen=True)
class PcsParams:
    """Scheduling-metric parameters: exponent p, slot weights, energy need, and power cap."""

    n_slots: int
    p: float
    energy: float
    x_max: float = 3.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        _count(self.n_slots, "n_slots", 1)
        if not (self.p == math.inf or (self.p >= 1 and float(self.p).is_integer())):
            raise DmocError(f"p must be a positive integer or inf, got {self.p}")
        if not self.energy > 0:
            raise DmocError("energy must be > 0")
        if not self.x_max > 0:
            raise DmocError("x_max must be > 0")
        if self.n_slots * self.x_max < self.energy - FEASIBILITY_TOL:
            raise DmocError(
                f"infeasible constraint set: T*x_max = {self.n_slots * self.x_max} "
                f"< energy = {self.energy}"
            )
        w = np.ones(self.n_slots) if self.weights is None else as_vector(self.weights, name="weights")
        if w.size != self.n_slots:
            raise DimensionError(f"weights has length {w.size}, expected {self.n_slots}")
        if np.any(w < 0):
            raise DmocError("weights must be nonnegative")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def data_dim(self) -> int:
        return self.n_slots

    @property
    def decision_dim(self) -> int:
        return self.n_slots


@dataclass(frozen=True)
class MetricSpec:
    """Tagged description of the decision utility: exactly one of rtp/pcs is present."""

    kind: Literal["rtp", "pcs"]
    rtp: RtpParams | None = None
    pcs: PcsParams | None = None

    def __post_init__(self):
        if self.kind == "rtp":
            if self.rtp is None or self.pcs is not None:
                raise DmocError("kind 'rtp' requires rtp params only")
        elif self.kind == "pcs":
            if self.pcs is None or self.rtp is not None:
                raise DmocError("kind 'pcs' requires pcs params only")
        else:
            raise DmocError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def for_rtp(cls, **kwargs) -> "MetricSpec":
        return cls(kind="rtp", rtp=RtpParams(**kwargs))

    @classmethod
    def for_pcs(cls, **kwargs) -> "MetricSpec":
        return cls(kind="pcs", pcs=PcsParams(**kwargs))

    @property
    def params(self):
        return self.rtp if self.kind == "rtp" else self.pcs

    @property
    def data_dim(self) -> int:
        return self.params.data_dim

    @property
    def decision_dim(self) -> int:
        return self.params.decision_dim


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration objective values of an alternating-optimization run."""

    objectives: tuple
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(float(v) for v in self.objectives))

    @property
    def iterations_run(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True)
class ClusteringResult:
    """Partition plus per-cluster representative decisions and the achieved objective."""

    partition: Partition
    representatives: np.ndarray
    objective: float
    trace: RunTrace

    def __post_init__(self):
        r = np.asarray(self.representatives, dtype=float)
        if r.ndim != 2:
            raise DimensionError("representatives must be a 2-D (M, T) array")
        if r.shape[0] != self.partition.n_clusters:
            raise DimensionError(
                f"{r.shape[0]} representatives for {self.partition.n_clusters} clusters"
            )
        object.__setattr__(self, "representatives", _freeze(r))


# ---------------------------------------------------------------------------
# Metric interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricOps:
    """Bundle of callables describing one decision-utility metric.

    The engine is generic over this interface; the pricing and scheduling
    modules (and the squared-distance metric of k-means) each provide one.
    Every callable works on a whole batch, so each engine step is one call.

    prepare(values) -> rows
        The metric's working form of the (N, d) samples, one row per sample.
        Every other callable takes rows (or a row subset) of its result, so a
        caller holding raw samples prepares them once per run. The identity
        for scheduling; the pricing rows append per-sample sufficient
        statistics (``rtp.sample_rows``).
    utilities(decisions, rows) -> (n,) array
        Utility of each of ``rows`` under ``decisions``: one (T,) decision for
        every row, or an (n, T) array pairing row i with decision i.
    assign(rows, reps) -> (N,) int array
        Index of the best representative for every one of ``rows`` (argmax of
        the utility, ties to the lowest index).
    best_representatives(rows, groups) -> (k, T) array
        Row i: the feasible decision maximizing the summed utility over the rows
        ``groups[i]`` (sorted member indices, at least one). It depends on those
        rows alone, so the engine re-solves only the clusters that a sample
        entered or left or whose representative changed. ``SolverError.cluster``
        is a position in ``groups``.
    perfect_decisions(rows) -> (n, T) array
        Per-row optimal decisions x*(g_n).
    feasible(decisions) -> (k,) bool array
        Constraint check per decision row (a (T,) decision is one row); a row
        of the wrong length raises DimensionError, a non-finite entry DmocError.
    """

    prepare: Callable
    utilities: Callable
    assign: Callable
    best_representatives: Callable
    perfect_decisions: Callable
    feasible: Callable


def metric_ops(spec: MetricSpec, approx_assignment: bool = False) -> MetricOps:
    """Resolve a MetricSpec into the callable bundle for the engine."""
    if spec.kind == "rtp":
        if approx_assignment:
            raise DmocError("approximate assignment is a PCS-only variant")
        from . import rtp

        return rtp.metric_ops(spec.rtp)
    from . import pcs

    return pcs.metric_ops(spec.pcs, approx_assignment=approx_assignment)


def prepared_rows(ops: MetricOps, data: DataSet, memo: dict | None = None) -> np.ndarray:
    """``ops.prepare(data.values)``, made once per ``memo``, the memo of one sweep on
    ``data`` under one metric: its first call stores the rows and every later call returns
    them. The rows are read-only, since every run of the sweep shares them."""
    if memo is None:
        return ops.prepare(data.values)
    if "rows" not in memo:
        rows = ops.prepare(data.values)
        rows.flags.writeable = False
        memo.setdefault("rows", rows)
    return memo["rows"]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def require_feasible(
    ops: MetricOps, decisions, count: int | None = None, *, name: str = "decision"
) -> np.ndarray:
    """The supplied ``decisions`` as rows: at least one, exactly ``count`` when given,
    each of the metric's length and feasible (else InfeasibleDecisionError naming it)."""
    x = np.atleast_2d(np.asarray(decisions, dtype=float))
    ok = ops.feasible(x)
    if count is not None and x.shape[0] != count:
        raise DmocError(f"{name} provides {x.shape[0]} decisions for {count} clusters")
    if x.shape[0] < 1:
        raise DmocError("at least one representative is required")
    if not ok.all():
        m = int(np.argmin(ok))
        raise InfeasibleDecisionError(f"{name} {m} is infeasible: {x[m]}")
    return x


def evaluate_utility(spec: MetricSpec, x, g) -> float:
    """Utility f(x; g) of decision ``x`` for sample ``g`` under ``spec``.

    Raises DimensionError on shape mismatch and InfeasibleDecisionError when
    ``x`` violates the constraint set.
    """
    x = as_vector(x, name="decision")
    g = as_vector(g, name="sample")
    if np.any(g < 0):
        raise DmocError("sample contains negative entries")
    if g.size != spec.data_dim:
        raise DimensionError(f"sample has length {g.size}, expected {spec.data_dim}")
    ops = metric_ops(spec)
    require_feasible(ops, x)
    return float(ops.utilities(x, ops.prepare(g[None, :]))[0])


def total_utility(spec: MetricSpec, result: ClusteringResult, data: DataSet) -> float:
    """Correctly rounded sum (math.fsum) of per-sample utilities at each
    sample's assigned representative; every used representative must be feasible."""
    _covers(result.partition, data)
    reps = result.representatives
    assignment = result.partition.assignment
    ops = metric_ops(spec)
    require_feasible(ops, reps[np.unique(assignment)])
    return math.fsum(ops.utilities(reps[assignment], ops.prepare(data.values)))
