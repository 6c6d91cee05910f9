"""Lp-norm consumption-scheduling metric and its representative solvers.

The decision is a controllable consumption profile ``x`` (length T) subject to
``0 <= x(t) <= x_max`` and ``sum(x) >= E``; a sample ``g`` is the
non-controllable profile. The utility is ``f2 = -||W (x + g)||_p``. The best
cluster rule is the generalized Voronoi rule in this norm; the best
representatives (``solve_representative``, one call for all the clusters that
an engine iteration solves) solve a convex program per cluster by

* an analytic cheapest-slot fill for p = 1,
* one primal-dual interior-point method for every p > 1, on the epigraph LP at
  p = inf and on the convex program over x alone at finite p. All clusters of a
  call are solved as one stack: their members sit in one (N, T) array sorted by
  cluster, per-cluster sums are segment reductions (``np.add.reduceat``), and
  each iteration factors the clusters' T x T Newton matrices with one stacked
  Cholesky. Each cluster takes its own Mehrotra predictor-corrector steps and
  leaves the stack once certified; a cluster whose method fails raises SolverError.

p alone picks the route; each route's tolerances are module constants, and each
cluster's answer depends on its members alone, bit for bit: every reduction over
members runs cluster by cluster, so neither a cluster's place in a stack nor its
neighbours there change a rounding, and a sweep's memo of member sets returns what a
fresh solve would. The engine, not the route, decides which clusters reach a solve
and whether a solve replaces a representative.

The package has no other solver: the test suite checks the p = inf route against
the same epigraph LP solved by HiGHS and against a projected gradient descent on a
softmax-smoothed peak, both in ``tests/oracles.py``.

A single sample's decision (perfect decisions, k-means centroid decisions,
empty-cluster repair, random starts) needs no solver: for p > 1 it is the
water-filling optimum ``x = clip(lam / v - g, 0, x_max)`` with ``v = w**(p/(p-1))``
(v = w at p = inf), computed exactly for a whole (N, T) batch by
``perfect_decisions_pcs``.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .core import (
    DataSet,
    DimensionError,
    EmptyClusterError,
    FEASIBILITY_TOL,
    MetricOps,
    PcsParams,
    SolverError,
    _member_rows,
    as_decisions,
    as_vector,
    row_blocks,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def _profiles(values, decisions, params: PcsParams):
    """Sample rows as an (N, T) array and decisions as given, both checked to have length T."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    x = np.asarray(decisions, dtype=float)
    if v.shape[1] != params.n_slots or x.shape[-1] != params.n_slots:
        raise DimensionError(
            f"profiles must have length {params.n_slots}, got {v.shape[1]} and {x.shape[-1]}"
        )
    return v, x


def weighted_norms(values, reps, params: PcsParams) -> np.ndarray:
    """(N, M) matrix of ||W(x_m + g_n)||_p for sample rows and representative rows,
    filled in row blocks."""
    v, r = _profiles(values, np.atleast_2d(reps), params)
    out = np.empty((v.shape[0], r.shape[0]))
    for rows in row_blocks(v.shape[0], r.size):
        out[rows] = _norms(v[rows, None, :] + r[None, :, :], params)
    return out


def paired_norms(values, decisions, params: PcsParams) -> np.ndarray:
    """(N,) vector of ||W(x_n + g_n)||_p for paired sample and decision rows
    (one (T,) decision pairs with every row)."""
    v, x = _profiles(values, decisions, params)
    return _norms(v + x, params)


def _norms(loads: np.ndarray, params: PcsParams) -> np.ndarray:
    levels = np.abs(params.weights * loads)
    if params.p == math.inf:
        return levels.max(axis=-1)
    return (levels**params.p).sum(axis=-1) ** (1.0 / params.p)


# ---------------------------------------------------------------------------
# Feasible set
# ---------------------------------------------------------------------------

def _levels(points, v, g, x_max: float, need: float) -> np.ndarray:
    """Per row n, the lowest level lam whose fill sum_t clip(lam / v_t - g_nt, 0, x_max)
    meets ``need`` (Boyd & Vandenberghe, Convex Optimization, sec. 5.5.3). The fill is
    monotone and piecewise linear in lam, so lam is interpolated exactly between the two
    of the row's sorted breakpoints ``points[n]`` that bracket ``need``; it is the last one
    when rounding leaves even the full box a hair short.

    The bracket is found by bisection over the sorted breakpoints: about log2(2T) + 2
    fill evaluations, each one (n, T) pass, so O(n T log T) work in all. The computed fill
    is monotone along the sorted breakpoints even under rounding (division, subtraction,
    clip and pairwise addition are each monotone), so bisection finds the bracket that
    evaluating the fill at every breakpoint would, with the same bits."""
    rows = np.arange(points.shape[0])

    def fill(i):
        return np.clip(points[rows, i][:, None] / v - g, 0.0, x_max).sum(axis=1)

    # below counts the breakpoints 1 .. last - 1 whose fill is short of need (a prefix: the
    # fill is monotone), so below + 1 is the first one from 1 on that meets need, or the last
    last = points.shape[1] - 1
    below = np.zeros(rows.size, dtype=np.intp)
    for step in 1 << np.arange((last - 1).bit_length())[::-1]:
        i = np.minimum(below + step, last - 1)
        below = np.where(fill(i) < need, i, below)
    lo, hi, flo, fhi = points[rows, below], points[rows, below + 1], fill(below), fill(below + 1)
    rise = fhi > flo
    return np.where(rise, lo + (need - flo) * (hi - lo) / np.where(rise, fhi - flo, 1.0), hi)


def project_feasible(y, params: PcsParams) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= x_max, sum(x) >= E}, of one point (T,) or
    of each row of a (k, T) batch.

    Where clipping to the box already meets the energy need, that is the projection;
    otherwise the projection lies on the energy hyperplane and is a box-clipped shift
    ``clip(y + lam, 0, x_max)``: lam is the level of the unit-weight fill of g = -y
    (see ``_levels``).
    """
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    x = np.clip(rows, 0.0, params.x_max)
    short = np.nonzero(x.sum(axis=1) < params.energy)[0]
    if short.size:
        ys = rows[short]
        # breakpoints where clip(y + lam) changes slope: entry enters at -y_t, caps at x_max - y_t
        points = np.concatenate([np.maximum(-ys, 0.0), np.maximum(params.x_max - ys, 0.0)], axis=1)
        points.sort(axis=1)
        lam = _levels(points, np.ones(ys.shape[1]), -ys, params.x_max, params.energy)
        out = np.clip(ys + lam[:, None], 0.0, params.x_max)
        deficit = params.energy - out.sum(axis=1)
        low = deficit > 0
        # rounding guard: nudge the shift so the energy constraint holds exactly
        shift = lam[low] + 2.0 * deficit[low] / ys.shape[1]
        out[low] = np.clip(ys[low] + shift[:, None], 0.0, params.x_max)
        x[short] = out
    return x.reshape(y.shape)


def _stacked_members(data, member_indices):
    """The members of each cluster of ``member_indices`` (each sorted), stacked cluster
    by cluster into one (N, T) array, and the (k,) member counts."""
    values = data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data, dtype=float))
    groups = [np.asarray(members) for members in member_indices]
    for i, members in enumerate(groups):
        if members.ndim != 1:
            raise DimensionError(f"cluster {i}: member indices must be one sequence of rows per cluster")
        if members.size == 0:
            raise EmptyClusterError(f"cluster {i}: an empty cluster has no representative", cluster=i)
        groups[i] = np.sort(_member_rows(members, values.shape[0], i))
    return values[np.concatenate(groups)], np.array([members.size for members in groups])


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _cheapest_fills(params: PcsParams) -> np.ndarray:
    """Energy the cheapest feasible schedule puts in its k-th cheapest slot, k = 0..T-1."""
    return np.clip(params.energy - params.x_max * np.arange(params.n_slots), 0.0, params.x_max)


def cheapest_slot_schedule(params: PcsParams) -> np.ndarray:
    """p = 1 optimum: pour all energy into the cheapest slots.

    The cluster objective at p = 1 is ``const + |N_m| * sum_t w_t x_t``, so the
    members are irrelevant; fill the lowest-weight slots (ties to the lowest
    slot index) up to x_max until the energy need is met.
    """
    x = np.zeros(params.n_slots)
    x[np.argsort(params.weights, kind="stable")] = _cheapest_fills(params)
    return x


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, method="highs"):
    """``scipy.optimize.linprog``, imported on the first call. No route calls it: it is
    kept only because the benchmark tracer (``perfbench/tracing.py``) wraps it for its
    ``pcs.lp_*`` spans, and goes when the tracer is retargeted (ROADMAP item 4)."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method=method)


#: The interior-point method retires a cluster once the certified relative gap of its
#: iterate is at most _IPM_TOL. Near the optimum a cluster's Newton matrix can lose
#: definiteness to rounding first; its best iterate is then kept if its gap is at most
#: _IPM_FLOOR, and otherwise the method reports non-convergence, as it does for a
#: cluster still above _IPM_FLOOR after _IPM_MAX_ITERS iterations.
_IPM_TOL = 1e-9
_IPM_FLOOR = 1e-8
#: Gaps are relative to the objective, or to this fraction of its scale,
#: n * max_t w_t (max_n g_nt + x_max), when the objective is smaller.
_IPM_ZERO = 1e-6
_IPM_MAX_ITERS = 100
#: Fraction of the distance to the boundary of the positive orthant taken per step.
_IPM_STEP = 0.9


class _FactorError(Exception):
    """Some matrices of a stack are not numerically positive definite; ``failed`` marks them."""

    def __init__(self, failed: np.ndarray):
        super().__init__(f"{int(failed.sum())} of {failed.size} Newton matrices are not positive definite")
        self.failed = failed


def _inverse_factors(stack: np.ndarray) -> np.ndarray:
    """The inverse L^-1 of the Cholesky factor of each matrix S = L L' of a (k, T, T)
    stack, so that S^-1 = L^-T L^-1. The stacked factorization fails as a whole when
    any one matrix is not numerically positive definite; the matrices are then
    factored one at a time, and _FactorError marks the ones that fail."""
    try:
        return np.linalg.inv(np.linalg.cholesky(stack))
    except np.linalg.LinAlgError:
        failed = np.zeros(stack.shape[0], dtype=bool)
        for i, matrix in enumerate(stack):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                failed[i] = True
        # should no matrix fail alone, the stack as a whole did: retire all of it
        raise _FactorError(failed if failed.any() else ~failed) from None


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """A writable (k, T) view of the diagonals of a contiguous (k, T, T) stack."""
    return stack.reshape(stack.shape[0], -1)[:, :: stack.shape[1] + 1]


def _apply_inverse(inverse: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S^-1 q for each cluster, as the row (L^-1 q)' L^-1, from ``_inverse_factors``."""
    return (np.matmul(inverse, q[:, :, None]).transpose(0, 2, 1) @ inverse)[:, 0, :]


def _relative(excess: np.ndarray, value: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Per cluster, a gap bound ``excess`` relative to the objective ``value`` (see _IPM_ZERO)."""
    out = np.zeros(np.shape(excess))
    return np.divide(excess, np.maximum(value, zero), out=out, where=~(excess <= 0))


class _Stack:
    """The members of k clusters as one (N, T) array, sorted by cluster, and what both
    cluster programs derive from it. A row vector of either program is one flat array
    (the epigraph LP) or one (k, 2T + 1) array (the finite-p program); each program
    reduces one per cluster (``reduce``), combines (k,) per-cluster values a with one,
    v, by a ufunc in place (``spread(ufunc, a, v)``: ufunc(a_i, v) on cluster i's
    entries), spreads per-cluster values over the parts of its point z
    (``spread_parts``), and selects the entries of chosen clusters of z and of a row
    vector (``select``).

    The row vectors of a step live in buffers shaped like the right-hand side b, made
    once per stack (``make_buffers``): ``buffers`` for the values that ``_step`` keeps
    through a step, and ``scratch`` for a value that lives within one pass. A stack
    holds all its members' rows at once, so a fresh temporary per operation would be
    several (N, T) allocations per step, each on pages the allocator maps anew."""

    def __init__(self, G: np.ndarray, counts: np.ndarray, params: PcsParams):
        self.G, self.counts, self.params = G, counts, params
        self.k, self.T = counts.size, G.shape[1]
        self.starts = np.cumsum(counts) - counts
        self.owner = np.repeat(np.arange(self.k), counts)  # each member's cluster
        # per-member work runs segment by segment where a gathered (N, T) copy would cost a pass
        self.slices = [slice(start, start + count) for start, count in zip(self.starts, counts)]
        top = params.weights.max()
        self.w = params.weights / top if top > 0 else params.weights  # x is scale-free
        self.wg = self.w * G
        # row sums of (N, T) arrays as products (row_sums): faster than sum(axis=1)
        self.ones = np.broadcast_to(np.ones(self.T), (self.k, self.T))
        self.fills = _cheapest_fills(params)
        peaks = np.maximum.reduceat(self.wg.max(axis=1), self.starts)
        self.zero = _IPM_ZERO * counts * (peaks + self.w.max() * params.x_max)

    def sums(self, a: np.ndarray) -> np.ndarray:
        """Per-cluster sums of a per-member array."""
        return np.add.reduceat(a, self.starts, axis=0)

    def gram(self, rows: np.ndarray) -> np.ndarray:
        """The (k, T, T) stack of each cluster's rows' rows, for an (N, T) per-member array."""
        out = np.empty((self.k, self.T, self.T))
        for i, members in enumerate(self.slices):
            np.matmul(rows[members].T, rows[members], out=out[i])
        return out

    def weighted_sums(self, u: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per cluster, u'a over its members, for (N,) u and an (N, T) a."""
        out = np.empty((self.k, self.T))
        for i, members in enumerate(self.slices):
            np.matmul(u[members], a[members], out=out[i])
        return out

    def row_products(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Each member's row of an (N, T) a times its cluster's row of a (k, T) v."""
        out = np.empty(a.shape[0])
        for i, members in enumerate(self.slices):
            np.matmul(a[members], v[i], out=out[members])
        return out

    def row_sums(self, a: np.ndarray) -> np.ndarray:
        """Each member's row sum of an (N, T) a, one product per cluster as in row_products:
        a whole-stack product rounds a row by where it sits, and a cluster's sums must not
        depend on the rest of its stack."""
        return self.row_products(a, self.ones)

    def loads(self, wx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The weighted loads w (x_m + g_n) of every member n, for the clusters' w x_m in
        (k, T) wx, into (N, T) ``out``."""
        for i, members in enumerate(self.slices):
            np.add(self.wg[members], wx[i], out=out[members])
        return out

    def make_buffers(self):
        """The step's buffers, shaped like b and made in one allocation: seven that
        ``_step`` keeps through a step, and ``scratch``."""
        *self.buffers, self.scratch = np.empty((8,) + self.b.shape)

    def subset(self, keep: np.ndarray):
        """The same program over the clusters marked ``keep``, with its own buffers."""
        return type(self)(self.G[keep[self.owner]], self.counts[keep], self.params)


def _bound_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The per-cluster rows (1'x, x, -x) of the energy and box constraints, into (k, 2T + 1) ``out``."""
    T = x.shape[1]
    x.sum(axis=1, out=out[:, 0])
    out[:, 1 : T + 1] = x
    np.negative(x, out=out[:, T + 1 :])
    return out


def _bound_cols(y: np.ndarray) -> np.ndarray:
    """The product A'y of the energy and box rows, for (k, 2T + 1) duals."""
    T = (y.shape[1] - 1) // 2
    return y[:, :1] + y[:, 1 : T + 1] - y[:, T + 1 :]


def _bound_row_vector(params: PcsParams, k: int) -> np.ndarray:
    """The right-hand sides (E, 0, -x_max) of the energy and box rows of k clusters."""
    T = params.n_slots
    return np.tile(np.concatenate([[params.energy], np.zeros(T), np.full(T, -params.x_max)]), (k, 1))


class _EpigraphLP(_Stack):
    """The p = inf cluster LPs ``min 1's  s.t.  A (x, s) >= b``, kept in their structure.

    Each cluster's rows are the n*T epigraph rows ``s_n - w_t x_t >= w_t g_nt``, the
    energy row ``1'x >= E``, the lower bounds ``x >= 0`` and the upper bounds
    ``-x >= -x_max``. A row vector (right-hand side, slacks r = A z - b, duals y) is one
    flat array: every member's epigraph rows (N*T), then each cluster's energy and box
    rows ((k, 2T + 1)); ``split`` views one as these two parts. z is (x (k, T), s (N,)).
    """

    def __init__(self, G: np.ndarray, counts: np.ndarray, params: PcsParams):
        super().__init__(G, counts, params)
        self.b = np.concatenate([self.wg.ravel(), _bound_row_vector(params, self.k).ravel()])
        self.wg = self.split(self.b)[0]  # one copy of the weighted loads, as a view of b
        self.sizes = counts * self.T + 2 * self.T + 1
        # each cluster's epigraph rows and its energy and box rows are two contiguous segments
        self.segments = np.concatenate([self.starts * self.T, G.size + np.arange(self.k) * (2 * self.T + 1)])
        self.make_buffers()

    def split(self, v: np.ndarray):
        nt = self.G.size
        return v[:nt].reshape(-1, self.T), v[nt:].reshape(self.k, -1)

    def reduce(self, ufunc, v: np.ndarray) -> np.ndarray:
        both = ufunc.reduceat(v, self.segments)
        return ufunc(both[: self.k], both[self.k :])

    def spread(self, ufunc, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """ufunc(a_i, v) on each cluster i's entries of the row vector v, in place: one scalar
        op per cluster's epigraph rows, one broadcast over the energy and box rows."""
        epi, bounds = self.split(v)
        for i, members in enumerate(self.slices):
            ufunc(a[i], epi[members], out=epi[members])
        ufunc(a[:, None], bounds, out=bounds)
        return v

    def spread_parts(self, a: np.ndarray):
        return a[:, None], a[self.owner]

    def select(self, keep: np.ndarray):
        rows = self.spread(np.logical_and, keep, np.ones(self.b.size, dtype=bool))
        return keep, keep[self.owner], rows

    def rows(self, x: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The product A (x, s), into the row vector ``out``."""
        epi, bounds = self.split(out)
        wx = self.w * x
        for i, members in enumerate(self.slices):
            np.subtract(s[members, None], wx[i], out=epi[members])
        _bound_rows(x, bounds)
        return out

    def cols(self, y: np.ndarray):
        """The product A'y, as its x part and its s part."""
        epi, bounds = self.split(y)
        return _bound_cols(bounds) - self.w * self.sums(epi), self.row_sums(epi)

    def factor(self, d: np.ndarray):
        """Factor each cluster's normal matrix A'DA, D = diag(d) > 0, by eliminating s.

        A'DA has the diagonal s-block sigma_n = sum_t d_nt and the coupling block
        -w_t d_nt, so its Schur complement on x is the T x T matrix
        ``S = W L W + diag(d_lo + d_hi) + d_E 11'`` with L = sum_n (diag(d_n) sigma_n
        - d_n d_n') / sigma_n, a sum of graph Laplacians. L's diagonal is summed from
        its off-diagonal entries, which avoids the cancellation in
        ``sum_n d_nt - d_nt^2 / sigma_n`` when one slot holds a member's peak.
        Raises _FactorError when some S is not numerically positive definite.
        """
        epi, bounds = self.split(d)
        T = self.T
        sigma = self.row_sums(epi)
        scaled = np.multiply(epi, (1.0 / np.sqrt(sigma))[:, None], out=self.split(self.scratch)[0])
        coupling = self.gram(scaled)
        _diagonal(coupling)[:] = 0.0
        schur = -(self.w[:, None] * coupling * self.w)
        _diagonal(schur)[:] = self.w**2 * coupling.sum(axis=2) + bounds[:, 1 : T + 1] + bounds[:, T + 1 :]
        schur += bounds[:, :1, None]
        return epi, sigma, _inverse_factors(schur)

    def solve(self, factored, rx: np.ndarray, rs: np.ndarray):
        """Solve A'DA (dx, ds) = (rx, rs) with factors from ``factor``."""
        epi, sigma, inverse = factored
        dx = _apply_inverse(inverse, rx + self.w * self.weighted_sums(rs / sigma, epi))
        return dx, (rs + self.row_products(epi, self.w * dx)) / sigma

    def linearize(self, z, y: np.ndarray, d: np.ndarray):
        """The dual residual A'y - c, with c = (0, 1), and the factored A'DA."""
        rdx, rds = self.cols(y)
        rds -= 1.0
        return (rdx, rds), self.factor(d)

    def start(self):
        """Mehrotra's starting point: least-squares primal, least-norm dual, shifted inside."""
        ones = self.buffers[0]  # free until the first step
        ones.fill(1.0)
        unit = self.factor(ones)
        x, s = self.solve(unit, *self.cols(self.b))
        dual = self.solve(unit, np.zeros((self.k, self.T)), np.ones(self.G.shape[0]))
        y = self.rows(*dual, np.empty_like(self.b))
        r = self.rows(x, s, np.empty_like(self.b))
        r -= self.b
        self.spread(np.add, np.maximum(-1.5 * self.reduce(np.minimum, r), 0.0), r)
        self.spread(np.add, np.maximum(-1.5 * self.reduce(np.minimum, y), 0.0), y)
        ry = self.reduce(np.add, np.multiply(r, y, out=self.scratch))
        shift_r, shift_y = 0.5 * ry / self.reduce(np.add, y), 0.5 * ry / self.reduce(np.add, r)
        return (x, s), self.spread(np.add, shift_r, r), self.spread(np.add, shift_y, y)

    def gap(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Certified relative duality gaps of feasible points x (k, T) and the epigraph duals in y.

        Scaled to sum 1, each member's duals are slot weights under which its peak
        is at least the weighted mean level; the cheapest feasible schedule at the
        summed slot prices then bounds the cluster's optimum from below. The objective
        is never negative, and counts as zero (see _IPM_ZERO) when tiny.
        """
        # column-major loads: their row maxima are a fast reduction
        loads = self.loads(self.w * x, self.scratch[: self.G.size].reshape(self.T, -1).T)
        peaks = self.sums(loads.max(axis=1))
        epi = self.split(y)[0]
        scale = 1.0 / self.row_sums(epi)
        prices = np.sort(self.w * self.weighted_sums(scale, epi), axis=1)
        # row-wise sums, not a (k, T) product, which rounds a row by its place in the stack
        priced = np.multiply(epi, self.wg, out=self.split(self.scratch)[0])
        bound = self.sums(scale * self.row_sums(priced)) + (prices * self.fills).sum(axis=1)
        return _relative(peaks - bound, peaks, self.zero)


class _NormSum(_Stack):
    """The finite-p cluster programs ``min f(x) = sum_n ||W(x + g_n)||_p  s.t.  A x >= b``.

    Each cluster's 2T + 1 rows are the energy row ``1'x >= E``, the lower bounds
    ``x >= 0`` and the upper bounds ``-x >= -x_max``; a row vector is (k, 2T + 1) and z
    is (x (k, T),). The start is strictly feasible and the steps keep it so, which keeps
    every load W(x + g_n) nonnegative.
    """

    def __init__(self, G: np.ndarray, counts: np.ndarray, params: PcsParams):
        super().__init__(G, counts, params)
        self.p, self.x_max = params.p, params.x_max
        self.b = _bound_row_vector(params, self.k)
        self.sizes = 2 * self.T + 1
        self.make_buffers()
        self.known = None, None  # the last certified points and their derivatives

    def reduce(self, ufunc, v: np.ndarray) -> np.ndarray:
        return ufunc.reduce(v, axis=1)

    def spread(self, ufunc, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        return ufunc(a[:, None], v, out=v)

    def spread_parts(self, a: np.ndarray):
        return (a[:, None],)

    def select(self, keep: np.ndarray):
        return keep, keep

    def subset(self, keep: np.ndarray):
        out = super().subset(keep)
        x, known = self.known
        if x is not None:
            value, grad, diagonal, rows = known
            out.known = x[keep], (value[keep], grad[keep], diagonal[keep], rows[keep[self.owner]])
        return out

    def rows(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _bound_rows(x, out)

    def cols(self, y: np.ndarray):
        return (_bound_cols(y),)

    def derivatives(self, x: np.ndarray):
        """Per cluster, f(x), its gradient sum_n a_n with a_n = w (u_n/N_n)^(p-1), and the
        parts of its Hessian sum_n (p-1)/N_n [diag(w^2 (u_n/N_n)^(p-2)) - a_n a_n']: the
        diagonal and the member rows sqrt((p-1)/N_n) a_n. Here u_n = W(x + g_n) and
        N_n = ||u_n||_p; a member with N_n = 0 contributes nothing (0 lies in its
        subdifferential there)."""
        u = self.loads(self.w * x, np.empty(self.G.shape))
        norms = self.row_sums(u**self.p) ** (1.0 / self.p)
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        ratio = u * inverse[:, None]
        bent = ratio ** (self.p - 2)
        a = self.w * (bent * ratio)
        curvature = (self.p - 1) * inverse
        rows = np.sqrt(curvature)[:, None] * a
        return self.sums(norms), self.sums(a), self.w**2 * self.weighted_sums(curvature, bent), rows

    def linearize(self, z, y: np.ndarray, d: np.ndarray):
        """The dual residual A'y - grad f and the factored Newton matrices
        ``grad^2 f + A'DA = grad^2 f + diag(d_lo + d_hi) + d_E 11'``."""
        T = self.T
        x, known = self.known  # the certified projections, mostly the iterates themselves
        _, grad, diagonal, rows = known if np.array_equal(x, z[0]) else self.derivatives(z[0])
        newton = -self.gram(rows)
        _diagonal(newton)[:] += diagonal + d[:, 1 : T + 1] + d[:, T + 1 :]
        newton += d[:, :1, None]
        return (self.cols(y)[0] - grad,), _inverse_factors(newton)

    def solve(self, inverse: np.ndarray, rx: np.ndarray):
        return (_apply_inverse(inverse, rx),)

    def start(self):
        """A central feasible point: x halfway between the even spread E/T and x_max in
        every slot; duals y = mu / r that answer the gradient there on average. None when
        rounding leaves x no positive slack (E is T x_max to rounding)."""
        x = np.full((self.k, self.T), 0.5 * (self.params.energy / self.T + self.x_max))
        r = self.rows(x, np.empty_like(self.b))
        r -= self.b
        if r.min() <= 0:
            return None
        y = (self.derivatives(x)[1].mean(axis=1) * r.mean(axis=1))[:, None] / r
        return (x,), r, y

    def gap(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Relative Frank-Wolfe gaps grad f(x)'x - min over the feasible set of grad f(x)'v
        (Jaggi, ICML 2013), which bound f(x) - f* for feasible x; the minimum is the
        cheapest fill in gradient order (the gradient is nonnegative)."""
        self.known = x, self.derivatives(x)
        value, grad, _, _ = self.known[1]
        cheapest = (np.sort(grad, axis=1) * self.fills).sum(axis=1)
        return _relative((grad * x).sum(axis=1) - cheapest, value, self.zero)


def _step_length(problem, inverse: np.ndarray, dv: np.ndarray, fraction: float) -> np.ndarray:
    """Per cluster, min(1, fraction * alpha) for the largest alpha with v + alpha dv >= 0,
    given v > 0 as ``inverse`` = 1 / v (alpha is inf when no entry decreases)."""
    fall = -problem.reduce(np.minimum, np.multiply(dv, inverse, out=problem.scratch))
    return fraction / np.maximum(fall, fraction)


def _step(problem, z, r: np.ndarray, y: np.ndarray):
    """One predictor-corrector step (Mehrotra, SIAM J. Optim. 2(4), 1992) on every
    cluster of the stack ``min f(z)  s.t.  A z - r = b, r >= 0`` with duals y >= 0; z is
    a tuple of parts. Each cluster has its own centering target and step lengths, as if
    it were solved alone. The row vectors live in the stack's buffers, and r and y are
    updated in place."""
    rp, inv_r, inv_y, d, d_rp, rc, dr = problem.buffers
    scratch = problem.scratch
    problem.rows(*z, rp)  # primal residual A z - r - b
    rp -= r
    rp -= problem.b
    np.divide(1.0, r, out=inv_r)
    np.divide(1.0, y, out=inv_y)
    np.multiply(y, inv_r, out=d)
    rd, factored = problem.linearize(z, y, d)
    np.multiply(d, rp, out=d_rp)

    def newton():
        # move the residuals to zero and the products r*y by rc:
        # (grad^2 f + A'DA) dz = rd + A'(rc/r - d rp), dr = A dz + rp, dy = rc/r - d dr;
        # dr goes to its buffer, and dy replaces rc
        np.multiply(rc, inv_r, out=rc)
        np.subtract(rc, d_rp, out=scratch)
        dz = problem.solve(factored, *(a + b for a, b in zip(rd, problem.cols(scratch))))
        np.add(problem.rows(*dz, dr), rp, out=dr)
        np.subtract(rc, np.multiply(d, dr, out=scratch), out=rc)
        return dz

    def reach(fraction=_IPM_STEP):
        return _step_length(problem, inv_r, dr, fraction), _step_length(problem, inv_y, rc, fraction)

    total = problem.reduce(np.add, np.multiply(r, y, out=rc))
    np.negative(rc, out=rc)
    newton()
    ap, ad = reach(1.0)
    # the sum of the products (r + ap dr)(y + ad dy), expanded
    moved = total + ap * problem.reduce(np.add, np.multiply(dr, y, out=scratch))
    moved += ad * problem.reduce(np.add, np.multiply(r, rc, out=scratch))
    drdy = np.multiply(dr, rc, out=dr)
    moved += ap * ad * problem.reduce(np.add, drdy)
    # the corrector's target: the centering term less the products r*y (made again, in
    # place of dy) and the predictor's dr*dy
    problem.spread(np.subtract, total / problem.sizes * (moved / total) ** 3, np.multiply(r, y, out=rc))
    rc -= drdy
    dz = newton()
    ap, ad = reach()
    z = tuple(a + s * b for a, s, b in zip(z, problem.spread_parts(ap), dz))
    r += problem.spread(np.multiply, ap, dr)
    y += problem.spread(np.multiply, ad, rc)
    return z, r, y


def _drop(problem, state, keep: np.ndarray):
    """The stack and its iterate restricted to the clusters marked ``keep``. The old
    stack's buffers go first, so that two stacks' buffers are never held at once."""
    *parts, rows = problem.select(keep)
    z, r, y = state
    del problem.buffers, problem.scratch
    return problem.subset(keep), (tuple(a[m] for a, m in zip(z, parts)), r[rows], y[rows])


def _solve_stack(G: np.ndarray, counts: np.ndarray, params: PcsParams):
    """The interior point on a stack of clusters (p > 1, E < T x_max): each cluster's
    best certified projection (k, T) and its certified gap (k,), inf for none."""
    k, T = counts.size, params.n_slots
    problem = (_EpigraphLP if params.p == math.inf else _NormSum)(G, counts, params)
    state = problem.start()
    if state is None:
        # E is so close to T x_max that _NormSum has no interior start: the full box
        # is optimal to rounding
        return np.full((k, T), params.x_max), np.zeros(k)
    best_gap, best_x = np.full(k, math.inf), np.empty((k, T))
    taken = np.zeros(k, dtype=int)  # each cluster's step count
    live, steps = np.arange(k), 0
    while live.size and steps < _IPM_MAX_ITERS:
        feasible = project_feasible(state[0][0], params)
        gap = problem.gap(feasible, state[2])
        better = gap < best_gap[live]
        best_gap[live[better]], best_x[live[better]] = gap[better], feasible[better]
        out = (gap <= _IPM_TOL) | ~np.isfinite(gap)
        while True:
            taken[live[out]] = steps
            live = live[~out]
            if not live.size:
                break  # the stack is done: nothing to compact
            if out.any():
                problem, state = _drop(problem, state, ~out)
            try:
                state = _step(problem, *state)
                steps += 1
                break
            except _FactorError as err:
                out = err.failed  # rounding ended these clusters' progress; judge their best iterates
    taken[live] = steps
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "interior point (p = %s): %d clusters, %d members, %d stacked steps; "
            "steps per cluster %s; gaps %s",
            params.p, k, G.shape[0], steps, taken.tolist(), " ".join(f"{g:.1e}" for g in best_gap),
            extra={"stack": {"members": counts.tolist(), "steps": taken.tolist(), "gaps": best_gap.tolist()}},
        )
    return best_x, best_gap


def solve_representative(data, member_indices, params: PcsParams) -> np.ndarray:
    """Best representative consumption profile of each cluster, from its members alone.

    ``member_indices`` is a sequence of k clusters' member index sequences (integer
    rows of ``data``; any other index raises DmocError); the result is (k, T), one row
    per cluster. At p = 1 each row is the cheapest-slot fill, and at E >= T x_max the
    full box. For p > 1 the clusters are solved as one stack by Mehrotra's
    predictor-corrector method (Mehrotra, SIAM J. Optim. 2(4), 1992), on the epigraph
    LP (``_EpigraphLP``) at p = inf and on the program over x alone (``_NormSum``) at
    finite p. The members sit in one (N, T) array, sorted by cluster, and each
    iteration factors the clusters' T x T Newton matrices as one (k, T, T) stack, so
    an iteration costs a few passes over the members and a few stacked operations. Its
    row vectors go into buffers made once per stack (and anew when certified clusters
    leave it), so a step allocates no member-sized array at p = inf. Each cluster
    keeps its own step lengths and leaves the stack once its iterate's projection
    onto the feasible set is certified (by the LP dual at p = inf, by the Frank-Wolfe
    gap at finite p) within a relative _IPM_TOL, so each returned profile is feasible and within _IPM_TOL
    (at worst _IPM_FLOOR) of its cluster's optimum. A cluster for which the method
    does not get there raises SolverError; ``SolverError.cluster`` is the lowest such
    position in ``member_indices``. Whether a result replaces a cluster's
    representative is the engine's decision, not the solver's. Each call logs one
    DEBUG record under ``dmoc.pcs``.
    """
    G, counts = _stacked_members(data, member_indices)
    k, T = counts.size, params.n_slots
    if params.p == 1:
        return np.tile(cheapest_slot_schedule(params), (k, 1))
    # the full box is the only feasible point at E = T x_max
    if params.energy >= T * params.x_max:
        return np.full((k, T), params.x_max)
    out, gaps = _solve_stack(G, counts, params)
    failed = np.nonzero(~(gaps <= _IPM_FLOOR))[0]
    if failed.size:
        raise SolverError(
            f"interior-point method stopped at relative duality gap {gaps[failed[0]]:.2e}",
            cluster=int(failed[0]),
        )
    return out


def perfect_decision_pcs(g, params: PcsParams) -> np.ndarray:
    """Per-sample optimal profile x*(g) (see ``perfect_decisions_pcs``)."""
    return perfect_decisions_pcs(as_vector(g, name="profile")[None, :], params)[0]


def perfect_decisions_pcs(values, params: PcsParams) -> np.ndarray:
    """Per-row optimal profiles x*(g_n), as an (N, T) array, in one exact batch.

    At p = 1 the optimum ignores g: it is the cheapest-slot fill. For p > 1 it is the
    weighted water-filling optimum x = clip(lam / v - g, 0, x_max) at the level lam of
    ``_levels``, with breakpoints v_t g_t (slot t starts filling) and v_t (g_t + x_max)
    (slot t is full). At finite p, the KKT condition of the norm's p-th power
    sum_t (w_t (x_t + g_t))^p on a slot inside the box, p w_t^p (x_t + g_t)^(p-1) = mu,
    gives x_t + g_t = lam / v_t with v_t = w_t^(p/(p-1)); at p = inf, v = w, and the
    peak max_t w_t (x_t + g_t) is optimal. w is scaled to max 1 before the power, so v
    cannot overflow. Slots with zero or subnormal scaled v are filled to x_max first:
    lam / v cannot resolve their fill, and a full one adds at most w_t (g_t + x_max) to
    the peak (its p-th power to the cost).
    """
    G = np.atleast_2d(np.asarray(values, dtype=float))
    if G.shape[1] != params.n_slots:
        raise DimensionError(f"profiles must have length {params.n_slots}, got {G.shape[1]}")
    if params.p == 1:
        return np.tile(cheapest_slot_schedule(params), (G.shape[0], 1))
    v = (params.weights / max(params.weights.max(), np.finfo(float).tiny)) ** (1 + 1 / (params.p - 1))
    pos = v >= np.finfo(float).tiny
    x = np.full(G.shape, params.x_max)
    need = params.energy - params.x_max * np.count_nonzero(~pos)
    if need <= 0 or not pos.any():
        x[:, pos] = 0.0
        return x
    vp, gp = v[pos], G[:, pos]
    points = np.concatenate([vp * gp, vp * (gp + params.x_max)], axis=1)
    points.sort(axis=1)
    # lam / v may overflow for tiny weights; the clip to x_max absorbs it
    with np.errstate(over="ignore"):
        lam = _levels(points, vp, gp, params.x_max, need)
        x[:, pos] = np.clip(lam[:, None] / vp - gp, 0.0, params.x_max)
    return x


# ---------------------------------------------------------------------------
# Engine interface
# ---------------------------------------------------------------------------

def metric_ops(params: PcsParams, approx_assignment: bool = False) -> MetricOps:
    """Callable bundle for the engine; approx_assignment forces p = 2 clusters.
    ``best_representatives`` is ``solve_representative``."""
    assign_params = dataclasses.replace(params, p=2) if approx_assignment else params

    def feasible(decisions) -> np.ndarray:
        x = as_decisions(decisions, params.n_slots, name="profile")
        return (
            np.all(x >= -FEASIBILITY_TOL, axis=1)
            & np.all(x <= params.x_max + FEASIBILITY_TOL, axis=1)
            & (x.sum(axis=1) >= params.energy - FEASIBILITY_TOL)
        )

    return MetricOps(
        prepare=lambda values: values,
        utilities=lambda x, values: -paired_norms(values, x, params),
        assign=lambda values, reps: np.argmin(weighted_norms(values, reps, assign_params), axis=1),
        best_representatives=lambda values, groups: solve_representative(values, groups, params),
        perfect_decisions=lambda values: perfect_decisions_pcs(values, params),
        feasible=feasible,
    )
