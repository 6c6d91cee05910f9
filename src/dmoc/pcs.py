"""Lp-norm consumption-scheduling metric and its representative solvers.

The decision is a controllable consumption profile ``x`` (length T) subject to
``0 <= x(t) <= x_max`` and ``sum(x) >= E``; a sample ``g`` is the
non-controllable profile. The utility is ``f2 = -||W (x + g)||_p``. The best
cluster rule is the generalized Voronoi rule in this norm; the best
representative (``solve_representative``) solves a convex program by

* an analytic cheapest-slot fill for p = 1,
* one primal-dual interior-point method for every p > 1, on the epigraph LP at
  p = inf and on the convex program over x alone at finite p; each Newton step
  is a T x T Cholesky solve, and its failure is a SolverError.

p alone picks the route; each route's tolerances are module constants, and its
answer depends on the members alone. The engine, not the route, decides whether
a solve replaces a representative.

``epigraph_lp_representative`` solves the same p = inf LP with HiGHS. It is the
reference solver, imported on use: no route calls it, and scipy is needed only
by it (the test suite cross-checks it and the interior point against an
independent projected gradient descent on a softmax-smoothed peak, in
``tests/oracles.py``).

A single sample's decision (perfect decisions, k-means centroid decisions,
empty-cluster repair, random starts) needs no solver: for p > 1 it is the
water-filling optimum ``x = clip(lam / v - g, 0, x_max)`` with ``v = w**(p/(p-1))``
(v = w at p = inf), computed exactly for a whole (N, T) batch by
``perfect_decisions_pcs``.
"""

from __future__ import annotations

import dataclasses
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
    as_decisions,
    as_vector,
    cluster_members,
    row_blocks,
)


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

#: Rows per block of _levels: bounds its (rows, 2T, T) fill table to about 10 MB at T = 24.
_FILL_ROWS = 1024


def _levels(points, v, g, x_max: float, need: float) -> np.ndarray:
    """Per row n, the lowest level lam whose fill sum_t clip(lam / v_t - g_nt, 0, x_max)
    meets ``need`` (Boyd & Vandenberghe, Convex Optimization, sec. 5.5.3). The fill is
    monotone and piecewise linear in lam, so lam is interpolated exactly between the
    row's sorted breakpoints ``points[n]``; it is the last one when rounding leaves even
    the full box a hair short."""
    lam = np.empty(points.shape[0])
    for s in range(0, points.shape[0], _FILL_ROWS):
        pts, gs = points[s : s + _FILL_ROWS], g[s : s + _FILL_ROWS]
        fills = np.clip(pts[:, :, None] / v - gs[:, None, :], 0.0, x_max).sum(axis=2)
        i = np.clip((fills < need).sum(axis=1), 1, pts.shape[1] - 1)
        r = np.arange(pts.shape[0])
        lo, hi, flo, fhi = pts[r, i - 1], pts[r, i], fills[r, i - 1], fills[r, i]
        rise = fhi > flo
        lam[s : s + _FILL_ROWS] = np.where(
            rise, lo + (need - flo) * (hi - lo) / np.where(rise, fhi - flo, 1.0), hi
        )
    return lam


def project_feasible(y, params: PcsParams) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= x_max, sum(x) >= E}.

    If clipping to the box already meets the energy need, that is the
    projection; otherwise the projection lies on the energy hyperplane and is
    a box-clipped shift ``clip(y + lam, 0, x_max)``: lam is the level of the
    unit-weight fill of g = -y (see ``_levels``).
    """
    y = np.asarray(y, dtype=float)
    x = np.clip(y, 0.0, params.x_max)
    if x.sum() >= params.energy:
        return x
    # breakpoints where clip(y + lam) changes slope: entry enters at -y_t, caps at x_max - y_t
    points = np.unique(np.concatenate([np.maximum(-y, 0.0), np.maximum(params.x_max - y, 0.0)]))
    lam = _levels(points[None, :], np.ones(y.size), -y[None, :], params.x_max, params.energy)[0]
    out = np.clip(y + lam, 0.0, params.x_max)
    deficit = params.energy - out.sum()
    if deficit > 0:
        # rounding guard: nudge the shift so the energy constraint holds exactly
        out = np.clip(y + lam + 2.0 * deficit / y.size, 0.0, params.x_max)
    return out


def _member_values(data, member_indices) -> np.ndarray:
    members = np.asarray(sorted(member_indices), dtype=int)
    if members.size == 0:
        raise EmptyClusterError("cannot compute a representative for an empty cluster")
    values = data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data, dtype=float))
    return values[members]


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
    """``scipy.optimize.linprog``, imported on the first call so that importing
    dmoc does not import scipy. A module-level name, so that tests and the
    benchmark tracer (``perfbench/tracing.py``) can wrap it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method=method)


def epigraph_lp_representative(data, member_indices, params: PcsParams) -> np.ndarray:
    """Reference solver at p = inf: minimize sum_n t_n with w_tau(x + g_n) <= t_n.

    Variables are (x, t_1..t_n). Nonnegative data lets the absolute values in
    the norm be dropped from the epigraph constraints. Solved with HiGHS, so
    it needs scipy; no solver route calls it.
    """
    from scipy import sparse

    if params.p != math.inf:
        raise ValueError("the epigraph LP applies only at p = inf")
    G = _member_values(data, member_indices)
    n, T = G.shape
    w = params.weights

    # epigraph rows: w_tau * x_tau - t_n <= -w_tau * g_n,tau
    rows = np.repeat(np.arange(n * T), 2)
    cols = np.empty(2 * n * T, dtype=int)
    vals = np.empty(2 * n * T)
    tau = np.tile(np.arange(T), n)
    cols[0::2] = tau
    vals[0::2] = w[tau]
    cols[1::2] = T + np.repeat(np.arange(n), T)
    vals[1::2] = -1.0
    # energy row: -sum_t x_t <= -E
    rows = np.concatenate([rows, np.full(T, n * T)])
    cols = np.concatenate([cols, np.arange(T)])
    vals = np.concatenate([vals, -np.ones(T)])

    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(n * T + 1, T + n))
    b_ub = np.concatenate([(-w * G).ravel(), [-params.energy]])
    c = np.concatenate([np.zeros(T), np.ones(n)])
    bounds = [(0.0, params.x_max)] * T + [(0.0, None)] * n

    res = linprog(c, A_ub=a_ub.tocsr(), b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"epigraph LP failed: {res.message}")
    return np.clip(res.x[:T], 0.0, params.x_max)


#: The interior-point method returns once the certified relative gap of its
#: iterate is at most _IPM_TOL. Near the optimum the Newton matrix can lose
#: definiteness to rounding first; the best iterate is then kept if its gap is at
#: most _IPM_FLOOR, and otherwise the method reports non-convergence, as it does
#: after _IPM_MAX_ITERS iterations.
_IPM_TOL = 1e-9
_IPM_FLOOR = 1e-8
#: Gaps are relative to the objective, or to this fraction of its scale,
#: n * max_t w_t (max_n g_nt + x_max), when the objective is smaller.
_IPM_ZERO = 1e-6
_IPM_MAX_ITERS = 100
#: Fraction of the distance to the boundary of the positive orthant taken per step.
_IPM_STEP = 0.9
#: Centrality correctors (Gondzio, Comput. Optim. Appl. 6, 1996) tried per iteration,
#: only while the primal or the dual step length is below _IPM_SHORT_STEP.
_IPM_CORRECTORS = 2
_IPM_SHORT_STEP = 0.5


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha * dv >= 0 for v > 0 (inf when no entry decreases)."""
    fall = -float((dv / v).min())
    return 1.0 / fall if fall > 0 else math.inf


def _relative(excess: float, value: float, zero: float) -> float:
    """A gap bound ``excess`` relative to the objective ``value`` (see _IPM_ZERO)."""
    return 0.0 if excess <= 0 else excess / max(value, zero)


class _EpigraphLP:
    """The p = inf cluster LP ``min 1's  s.t.  A (x, s) >= b``, kept in its structure.

    The rows are, in this order: the n*T epigraph rows ``s_n - w_t x_t >= w_t g_nt``,
    the energy row ``1'x >= E``, the lower bounds ``x >= 0`` and the upper bounds
    ``-x >= -x_max``. Row vectors (right-hand side, slacks r = A z - b, duals y) are
    flat arrays; ``split`` views one as (epigraph (n, T), energy, lower (T), upper (T)).
    """

    def __init__(self, G: np.ndarray, params: PcsParams):
        self.n, self.T = G.shape
        top = params.weights.max()
        self.w = params.weights / top if top > 0 else params.weights  # x is scale-free
        self.b = np.concatenate(
            [(self.w * G).ravel(), [params.energy], np.zeros(self.T), np.full(self.T, -params.x_max)]
        )
        self.wg = self.split(self.b)[0]
        self.fills = _cheapest_fills(params)
        self.zero = _IPM_ZERO * self.n * (self.wg.max() + self.w.max() * params.x_max)

    def split(self, v: np.ndarray):
        nt, T = self.n * self.T, self.T
        return v[:nt].reshape(self.n, T), v[nt], v[nt + 1 : nt + 1 + T], v[nt + 1 + T :]

    def rows(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The product A (x, s)."""
        out = np.empty(self.b.size)
        epi, _, lower, upper = self.split(out)
        np.subtract(s[:, None], self.w * x, out=epi)
        out[self.n * self.T] = x.sum()
        lower[:] = x
        np.negative(x, out=upper)
        return out

    def cols(self, y: np.ndarray):
        """The product A'y, as its x part and its s part."""
        epi, energy, lower, upper = self.split(y)
        return energy + lower - upper - self.w * epi.sum(axis=0), epi.sum(axis=1)

    def factor(self, d: np.ndarray):
        """Factor the normal matrix A'DA, D = diag(d) > 0, by eliminating s.

        A'DA has the diagonal s-block sigma_n = sum_t d_nt and the coupling block
        -w_t d_nt, so its Schur complement on x is the T x T matrix
        ``S = W L W + diag(d_lo + d_hi) + d_E 11'`` with L = sum_n (diag(d_n) sigma_n
        - d_n d_n') / sigma_n, a sum of graph Laplacians. L's diagonal is summed from
        its off-diagonal entries, which avoids the cancellation in
        ``sum_n d_nt - d_nt^2 / sigma_n`` when one slot holds a member's peak.
        Raises numpy.linalg.LinAlgError when S is not numerically positive definite.
        """
        epi, d_energy, d_lower, d_upper = self.split(d)
        sigma = epi.sum(axis=1)
        scaled = epi / np.sqrt(sigma)[:, None]
        coupling = scaled.T @ scaled
        np.fill_diagonal(coupling, 0.0)
        schur = -(self.w[:, None] * coupling * self.w)
        np.fill_diagonal(schur, self.w**2 * coupling.sum(axis=1) + d_lower + d_upper)
        schur += d_energy
        inverse = np.linalg.inv(np.linalg.cholesky(schur))  # S^-1 = inverse' inverse
        return epi, sigma, inverse

    def solve(self, factored, rx: np.ndarray, rs: np.ndarray):
        """Solve A'DA (dx, ds) = (rx, rs) with a factor from ``factor``."""
        epi, sigma, inverse = factored
        u = rs / sigma
        dx = (inverse @ (rx + self.w * (u @ epi))) @ inverse
        return dx, (rs + epi @ (self.w * dx)) / sigma

    def linearize(self, z, y: np.ndarray, d: np.ndarray):
        """The dual residual A'y - c, with c = (0, 1), and the factored A'DA."""
        rdx, rds = self.cols(y)
        rds -= 1.0
        return (rdx, rds), self.factor(d)

    def start(self):
        """Mehrotra's starting point: least-squares primal, least-norm dual, shifted inside."""
        unit = self.factor(np.ones(self.b.size))
        x, s = self.solve(unit, *self.cols(self.b))
        y = self.rows(*self.solve(unit, np.zeros(self.T), np.ones(self.n)))
        r = self.rows(x, s) - self.b
        r += max(-1.5 * r.min(), 0.0)
        y += max(-1.5 * y.min(), 0.0)
        ry = r @ y
        return (x, s), r + 0.5 * ry / y.sum(), y + 0.5 * ry / r.sum()

    def gap(self, x: np.ndarray, y: np.ndarray) -> float:
        """Certified relative duality gap of a feasible x and the epigraph duals in y.

        Scaled to sum 1, each member's duals are slot weights under which its peak
        is at least the weighted mean level; the cheapest feasible schedule at the
        summed slot prices then bounds the optimum from below. The objective is
        never negative, and counts as zero (see _IPM_ZERO) when tiny.
        """
        peaks = (self.w * x + self.wg).max(axis=1).sum()
        epi = self.split(y)[0]
        scale = 1.0 / epi.sum(axis=1)
        bound = scale @ (epi * self.wg).sum(axis=1) + np.sort(self.w * (scale @ epi)) @ self.fills
        return _relative(peaks - bound, peaks, self.zero)


class _NormSum:
    """The finite-p cluster program ``min f(x) = sum_n ||W(x + g_n)||_p  s.t.  A x >= b``.

    The 2T + 1 rows are the energy row ``1'x >= E``, the lower bounds ``x >= 0`` and
    the upper bounds ``-x >= -x_max``. The start is strictly feasible and the steps
    keep it so, which keeps every load W(x + g_n) nonnegative.
    """

    def __init__(self, G: np.ndarray, params: PcsParams):
        n, self.T = G.shape
        top = params.weights.max()
        self.w = params.weights / top if top > 0 else params.weights  # x is scale-free
        self.wg, self.p, self.x_max = self.w * G, params.p, params.x_max
        self.b = np.concatenate([[params.energy], np.zeros(self.T), np.full(self.T, -params.x_max)])
        self.fills = _cheapest_fills(params)
        self.zero = _IPM_ZERO * n * (self.wg.max() + self.w.max() * params.x_max)
        self.known = None, None  # the last certified point and its derivatives

    def rows(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([[x.sum()], x, -x])

    def cols(self, y: np.ndarray):
        return (y[0] + y[1 : self.T + 1] - y[self.T + 1 :],)

    def derivatives(self, x: np.ndarray):
        """f(x), its gradient sum_n a_n with a_n = w (u_n/N_n)^(p-1), and the parts of its
        Hessian sum_n (p-1)/N_n [diag(w^2 (u_n/N_n)^(p-2)) - a_n a_n']: the diagonal and
        the rows sqrt((p-1)/N_n) a_n. Here u_n = W(x + g_n) and N_n = ||u_n||_p; a member
        with N_n = 0 contributes nothing (0 lies in its subdifferential there)."""
        u = self.wg + self.w * x
        norms = (u**self.p).sum(axis=1) ** (1.0 / self.p)
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        ratio = u * inverse[:, None]
        bent = ratio ** (self.p - 2)
        a = self.w * (bent * ratio)
        curvature = (self.p - 1) * inverse
        rows = np.sqrt(curvature)[:, None] * a
        return norms.sum(), a.sum(axis=0), self.w**2 * (curvature @ bent), rows

    def linearize(self, z, y: np.ndarray, d: np.ndarray):
        """The dual residual A'y - grad f and the factored Newton matrix
        ``grad^2 f + A'DA = grad^2 f + diag(d_lo + d_hi) + d_E 11'``."""
        T = self.T
        x, known = self.known  # the certified projection, mostly the iterate itself
        _, grad, diagonal, rows = known if np.array_equal(x, z[0]) else self.derivatives(z[0])
        newton = -(rows.T @ rows)
        newton[np.diag_indices(T)] += diagonal + d[1 : T + 1] + d[T + 1 :]
        newton += d[0]
        return (self.cols(y)[0] - grad,), np.linalg.inv(np.linalg.cholesky(newton))

    def solve(self, inverse: np.ndarray, rx: np.ndarray):
        return ((inverse @ rx) @ inverse,)

    def start(self):
        """A central feasible point: x halfway between the even spread E/T and x_max in
        every slot; duals y = mu / r that answer the gradient there on average. None when
        rounding leaves x no positive slack (E is T x_max to rounding)."""
        x = np.full(self.T, 0.5 * (self.b[0] / self.T + self.x_max))
        r = self.rows(x) - self.b
        if r.min() <= 0:
            return None
        y = self.derivatives(x)[1].mean() * r.mean() / r
        return (x,), r, y

    def gap(self, x: np.ndarray, y: np.ndarray) -> float:
        """Relative Frank-Wolfe gap grad f(x)'x - min over the feasible set of grad f(x)'v
        (Jaggi, ICML 2013), which bounds f(x) - f* for a feasible x; the minimum is the
        cheapest fill in gradient order (the gradient is nonnegative)."""
        self.known = x, self.derivatives(x)
        value, grad, _, _ = self.known[1]
        return _relative(grad @ x - np.sort(grad) @ self.fills, value, self.zero)


def _step(problem, z, r: np.ndarray, y: np.ndarray):
    """One predictor-corrector step (Mehrotra) with centrality correctors (Gondzio)
    on ``min f(z)  s.t.  A z - r = b, r >= 0`` with duals y >= 0; z is a tuple of parts."""
    rp = problem.rows(*z) - r - problem.b  # primal residual A z - r - b
    d = y / r
    rd, factored = problem.linearize(z, y, d)
    rest = (0.0,) * len(z)

    def newton(rc, rp=0.0, rd=rest):
        # move the residuals to zero and the products r*y by rc:
        # (grad^2 f + A'DA) dz = rd + A'(rc/r - d rp), dr = A dz + rp, dy = rc/r - d dr
        q = problem.cols(rc / r - d * rp)
        dz = problem.solve(factored, *(a + b for a, b in zip(rd, q)))
        dr = problem.rows(*dz) + rp
        return *dz, dr, rc / r - d * dr

    def reach(v):
        return min(1.0, _IPM_STEP * _max_step(r, v[-2])), min(1.0, _IPM_STEP * _max_step(y, v[-1]))

    ry = r * y
    mu = ry.mean()
    *_, dr, dy = newton(-ry, rp, rd)
    ap, ad = min(1.0, _max_step(r, dr)), min(1.0, _max_step(y, dy))
    target = mu * ((r + ap * dr) @ (y + ad * dy) / ry.size / mu) ** 3
    v = newton(target - ry - dr * dy, rp, rd)
    ap, ad = reach(v)
    for _ in range(_IPM_CORRECTORS):
        if min(ap, ad) >= _IPM_SHORT_STEP:
            break
        # pull the products r*y of a step 0.3 longer into [0.1, 10] x target
        trial = (r + min(1.0, ap + 0.3) * v[-2]) * (y + min(1.0, ad + 0.3) * v[-1])
        fix = np.maximum(np.clip(trial, 0.1 * target, 10.0 * target) - trial, -10.0 * target)
        corrected = [a + c for a, c in zip(v, newton(fix))]
        cap, cad = reach(corrected)
        if cap + cad < ap + ad + 0.03:
            break  # kept only if it lengthens the steps by a tenth of the trial
        v, ap, ad = corrected, cap, cad
    *dz, dr, dy = v
    return tuple(a + ap * b for a, b in zip(z, dz)), r + ap * dr, y + ad * dy


def solve_representative(data, member_indices, params: PcsParams) -> np.ndarray:
    """Best representative consumption profile for a cluster, from its members alone.

    At p = 1 it is the cheapest-slot fill. For p > 1 it is solved by Mehrotra's
    predictor-corrector method (Mehrotra, SIAM J. Optim. 2(4), 1992) with Gondzio's
    centrality correctors, which keep the iteration count nearly flat in the member
    count, on the epigraph LP of ``epigraph_lp_representative`` at p = inf and on the
    program over x alone (``_NormSum``) at finite p. Each Newton system is a T x T
    Cholesky solve, so an iteration costs a few passes over the (n, T) member array.
    Every iterate's projection onto the feasible set is certified (by the LP dual at
    p = inf, by the Frank-Wolfe gap at finite p), so the returned profile is feasible
    and within a relative _IPM_TOL (at worst _IPM_FLOOR) of the optimum; otherwise the
    method raises SolverError. Whether the result replaces a cluster's representative
    is the engine's decision, not the solver's.
    """
    G = _member_values(data, member_indices)
    if params.p == 1:
        return cheapest_slot_schedule(params)
    T = G.shape[1]
    problem = (_EpigraphLP if params.p == math.inf else _NormSum)(G, params)
    best_gap, best_x = math.inf, None
    try:
        # the full box is the only feasible point at E = T x_max, and optimal to rounding
        # when E is so close to it that _NormSum has no interior start (None)
        start = problem.start() if params.energy < T * params.x_max else None
        if start is None:
            return np.full(T, params.x_max)
        z, r, y = start
        for _ in range(_IPM_MAX_ITERS):
            feasible = project_feasible(z[0], params)
            gap = problem.gap(feasible, y)
            if gap < best_gap:
                best_gap, best_x = gap, feasible
            if gap <= _IPM_TOL or not np.isfinite(gap):
                break
            z, r, y = _step(problem, z, r, y)
    except np.linalg.LinAlgError:
        pass  # rounding ended the progress; judge the best iterate
    if best_gap <= _IPM_FLOOR:
        return best_x
    raise SolverError(f"interior-point method stopped at relative duality gap {best_gap:.2e}")


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
    points = np.sort(np.concatenate([vp * gp, vp * (gp + params.x_max)], axis=1), axis=1)
    # lam / v may overflow for tiny weights; the clip to x_max absorbs it
    with np.errstate(over="ignore"):
        lam = _levels(points, vp, gp, params.x_max, need)
        x[:, pos] = np.clip(lam[:, None] / vp - gp, 0.0, params.x_max)
    return x


# ---------------------------------------------------------------------------
# Engine interface
# ---------------------------------------------------------------------------

def metric_ops(params: PcsParams, approx_assignment: bool = False) -> MetricOps:
    """Callable bundle for the engine; approx_assignment forces p = 2 clusters."""
    assign_params = dataclasses.replace(params, p=2) if approx_assignment else params

    def feasible(decisions) -> np.ndarray:
        x = as_decisions(decisions, params.n_slots, name="profile")
        return (
            np.all(x >= -FEASIBILITY_TOL, axis=1)
            & np.all(x <= params.x_max + FEASIBILITY_TOL, axis=1)
            & (x.sum(axis=1) >= params.energy - FEASIBILITY_TOL)
        )

    def best_representatives(values, assignment, clusters) -> np.ndarray:
        reps = np.empty((len(clusters), params.n_slots))
        for i, (m, members) in enumerate(zip(clusters, cluster_members(assignment, clusters))):
            try:
                reps[i] = solve_representative(values, members, params)
            except SolverError as err:
                raise SolverError(f"cluster {m}: {err}", cluster=int(m)) from err
        return reps

    return MetricOps(
        prepare=lambda values: values,
        utilities=lambda x, values: -paired_norms(values, x, params),
        assign=lambda values, reps: np.argmin(weighted_norms(values, reps, assign_params), axis=1),
        best_representatives=best_representatives,
        perfect_decisions=lambda values: perfect_decisions_pcs(values, params),
        feasible=feasible,
    )
