"""Lp-norm consumption-scheduling metric and its representative solvers.

The decision is a controllable consumption profile ``x`` (length T) subject to
``0 <= x(t) <= x_max`` and ``sum(x) >= E``; a sample ``g`` is the
non-controllable profile. The utility is ``f2 = -||W (x + g)||_p``. The best
cluster rule is the generalized Voronoi rule in this norm; the best
representative solves a convex program handled here by

* an analytic cheapest-slot fill for p = 1,
* the epigraph LP for p = inf, solved by a primal-dual interior-point method
  written for its structure (``interior_point_representative``: each Newton
  step is a T x T Cholesky solve); its failure is a SolverError,
* projected subgradient with Polyak-style adaptive level steps for finite
  p >= 2.

p alone picks the route; each route's tolerances are module constants.

``epigraph_lp_representative`` solves the same p = inf LP with HiGHS. It is the
reference solver, imported on use: no route calls it, and scipy is needed only
by it (the test suite cross-checks it and the interior point against an
independent projected gradient descent on a softmax-smoothed peak, in
``tests/oracles.py``).

A single sample's p = inf decision (perfect decisions, k-means centroid
decisions, empty-cluster repair, random starts) needs no LP: it is the
weighted water-filling optimum ``x = clip(lam / w - g, 0, x_max)``, computed
exactly for a whole (N, T) batch by ``water_fill_decisions``.
"""

from __future__ import annotations

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


def weighted_norms(values, reps, params: PcsParams, p: float | None = None) -> np.ndarray:
    """(N, M) matrix of ||W(x_m + g_n)||_p for sample rows and representative rows."""
    v, r = _profiles(values, np.atleast_2d(reps), params)
    return _norms(v[:, None, :] + r[None, :, :], params, params.p if p is None else p)


def paired_norms(values, decisions, params: PcsParams) -> np.ndarray:
    """(N,) vector of ||W(x_n + g_n)||_p for paired sample and decision rows
    (one (T,) decision pairs with every row)."""
    v, x = _profiles(values, decisions, params)
    return _norms(v + x, params, params.p)


def _norms(loads: np.ndarray, params: PcsParams, p: float) -> np.ndarray:
    levels = np.abs(params.weights * loads)
    if p == math.inf:
        return levels.max(axis=-1)
    return (levels**p).sum(axis=-1) ** (1.0 / p)


def f2(x, g, params: PcsParams) -> float:
    """Scheduling utility: minus the weighted Lp norm of the total load x + g."""
    return float(-weighted_norms(g, x, params)[0, 0])


# ---------------------------------------------------------------------------
# Feasible set
# ---------------------------------------------------------------------------

def project_feasible(y, params: PcsParams) -> np.ndarray:
    """Euclidean projection onto {0 <= x <= x_max, sum(x) >= E}.

    If clipping to the box already meets the energy need, that is the
    projection; otherwise the projection lies on the energy hyperplane and is
    a box-clipped shift ``clip(y + lam, 0, x_max)``. The shifted-sum function
    is piecewise linear in lam, so lam is located exactly from its sorted
    breakpoints.
    """
    y = np.asarray(y, dtype=float)
    x = np.clip(y, 0.0, params.x_max)
    if x.sum() >= params.energy:
        return x
    # breakpoints where clip(y + lam) changes slope: entry enters at -y_t, caps at x_max - y_t
    points = np.unique(np.concatenate([np.maximum(-y, 0.0), np.maximum(params.x_max - y, 0.0)]))
    sums = np.clip(y[None, :] + points[:, None], 0.0, params.x_max).sum(axis=1)
    # the last breakpoint when rounding leaves even the full box a hair short
    i = min(int(np.searchsorted(sums, params.energy, side="left")), points.size - 1)
    if i == 0:
        lam = points[0]
    else:
        lo, hi = points[i - 1], points[i]
        flo, fhi = sums[i - 1], sums[i]
        lam = hi if fhi == flo else lo + (params.energy - flo) * (hi - lo) / (fhi - flo)
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

def cheapest_slot_schedule(params: PcsParams) -> np.ndarray:
    """p = 1 optimum: pour all energy into the cheapest slots.

    The cluster objective at p = 1 is ``const + |N_m| * sum_t w_t x_t``, so the
    members are irrelevant; greedily fill the lowest-weight slots (ties to the
    lowest slot index) up to x_max until the energy need is met.
    """
    x = np.zeros(params.n_slots)
    remaining = params.energy
    for t in np.argsort(params.weights, kind="stable"):
        if remaining <= 0:
            break
        x[t] = min(params.x_max, remaining)
        remaining -= x[t]
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


#: The interior-point method returns once the certified relative duality gap of
#: its iterate is at most _IPM_TOL. Near the optimum the Newton matrix can lose
#: definiteness to rounding first; the best iterate is then kept if its gap is at
#: most _IPM_FLOOR, and otherwise the method reports non-convergence, as it does
#: after _IPM_MAX_ITERS iterations.
_IPM_TOL = 1e-9
_IPM_FLOOR = 1e-8
#: Gaps are relative to the objective, or to this fraction of its largest possible
#: value, n * max_t w_t (max_n g_nt + x_max), when the objective is smaller.
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
        # energy put in the k-th cheapest slot by the cheapest feasible schedule
        self.fills = np.clip(params.energy - params.x_max * np.arange(self.T), 0.0, params.x_max)
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

    def start(self):
        """Mehrotra's starting point: least-squares primal, least-norm dual, shifted inside."""
        unit = self.factor(np.ones(self.b.size))
        x, s = self.solve(unit, *self.cols(self.b))
        y = self.rows(*self.solve(unit, np.zeros(self.T), np.ones(self.n)))
        r = self.rows(x, s) - self.b
        r += max(-1.5 * r.min(), 0.0)
        y += max(-1.5 * y.min(), 0.0)
        ry = r @ y
        return x, s, r + 0.5 * ry / y.sum(), y + 0.5 * ry / r.sum()

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
        excess = peaks - bound
        if excess <= 0:
            return 0.0
        return excess / max(peaks, self.zero)

    def step(self, x, s, r, y):
        """One predictor-corrector step (Mehrotra) with centrality correctors (Gondzio)."""
        rp = self.rows(x, s) - r - self.b  # primal residual A z - r - b
        rdx, rds = self.cols(y)  # dual residual A'y - c, with c = (0, 1)
        rds -= 1.0
        d = y / r
        factored = self.factor(d)

        def newton(rc, rp=0.0, rdx=0.0, rds=0.0):
            # move the residuals to zero and the products r*y by rc:
            # A'DA dz = rd + A'(rc/r - d rp), dr = A dz + rp, dy = rc/r - d dr
            qx, qs = self.cols(rc / r - d * rp)
            dx, ds = self.solve(factored, rdx + qx, rds + qs)
            dr = self.rows(dx, ds) + rp
            return dx, ds, dr, rc / r - d * dr

        def reach(v):
            return min(1.0, _IPM_STEP * _max_step(r, v[2])), min(1.0, _IPM_STEP * _max_step(y, v[3]))

        ry = r * y
        mu = ry.mean()
        dx, ds, dr, dy = newton(-ry, rp, rdx, rds)
        ap, ad = min(1.0, _max_step(r, dr)), min(1.0, _max_step(y, dy))
        target = mu * ((r + ap * dr) @ (y + ad * dy) / ry.size / mu) ** 3
        v = newton(target - ry - dr * dy, rp, rdx, rds)
        ap, ad = reach(v)
        for _ in range(_IPM_CORRECTORS):
            if min(ap, ad) >= _IPM_SHORT_STEP:
                break
            # pull the products r*y of a step 0.3 longer into [0.1, 10] x target
            trial = (r + min(1.0, ap + 0.3) * v[2]) * (y + min(1.0, ad + 0.3) * v[3])
            fix = np.maximum(np.clip(trial, 0.1 * target, 10.0 * target) - trial, -10.0 * target)
            corrected = [a + c for a, c in zip(v, newton(fix))]
            cap, cad = reach(corrected)
            if cap + cad < ap + ad + 0.03:
                break  # kept only if it lengthens the steps by a tenth of the trial
            v, ap, ad = corrected, cap, cad
        dx, ds, dr, dy = v
        return x + ap * dx, s + ap * ds, r + ap * dr, y + ad * dy


def interior_point_representative(data, member_indices, params: PcsParams) -> np.ndarray:
    """p = inf representative by a primal-dual interior-point method on the epigraph LP.

    Solves the LP of ``epigraph_lp_representative`` with Mehrotra's predictor-corrector
    method (Mehrotra, SIAM J. Optim. 2(4), 1992) from his starting point, adding
    Gondzio's centrality correctors, which keep the iteration count nearly flat in
    the member count. Each Newton system reduces to a T x T Cholesky solve (see
    ``_EpigraphLP.factor``), so an iteration costs a few passes over the (n, T)
    member array. Every iterate's projection onto the feasible set is checked
    against a dual lower bound, so the returned profile is feasible and its
    objective is within a relative _IPM_TOL (at worst _IPM_FLOOR) of the optimum.
    Raises SolverError otherwise.
    """
    if params.p != math.inf:
        raise ValueError("the epigraph LP applies only at p = inf")
    G = _member_values(data, member_indices)
    T = G.shape[1]
    if params.energy >= T * params.x_max:
        return np.full(T, params.x_max)  # the only feasible point; the LP has no interior
    lp = _EpigraphLP(G, params)
    best_gap, best_x = math.inf, None
    try:
        x, s, r, y = lp.start()
        for _ in range(_IPM_MAX_ITERS):
            feasible = project_feasible(x, params)
            gap = lp.gap(feasible, y)
            if gap < best_gap:
                best_gap, best_x = gap, feasible
            if gap <= _IPM_TOL or not np.isfinite(gap):
                break
            x, s, r, y = lp.step(x, s, r, y)
    except np.linalg.LinAlgError:
        pass  # rounding ended the progress; judge the best iterate
    if best_gap <= _IPM_FLOOR:
        return best_x
    raise SolverError(f"interior-point method stopped at relative duality gap {best_gap:.2e}")


#: The level subgradient method stops once its relative level gap is at most
#: _SUBGRADIENT_TOL; _SUBGRADIENT_C0 scales its initial level gap. It raises
#: SolverError after _SUBGRADIENT_MAX_ITERS iterations.
_SUBGRADIENT_TOL = 1e-5
_SUBGRADIENT_C0 = 0.1
_SUBGRADIENT_MAX_ITERS = 100000


def _value_and_subgradient(
    x: np.ndarray, G: np.ndarray, params: PcsParams
) -> tuple[float, np.ndarray]:
    """Cluster objective sum_n ||W(x + g_n)||_p and one subgradient at x, for finite p.

    Inputs are nonnegative so the absolute values inside the norm drop out.
    """
    w = params.weights
    p = params.p
    levels = w * (x + G)
    norms = (levels**p).sum(axis=1) ** (1.0 / p)
    safe = norms > 0
    grad = np.zeros_like(x)
    if np.any(safe):
        ratio = levels[safe] ** (p - 1) / norms[safe, None] ** (p - 1)
        grad = (w * ratio).sum(axis=0)
    return float(norms.sum()), grad


def projected_subgradient_representative(
    data, member_indices, params: PcsParams, warm_start=None
) -> np.ndarray:
    """Finite-p representative: projected subgradient with adaptive level steps.

    Rounds keep a fixed reference value f_ref and step toward the level
    f_ref - delta; a descent of delta/2 doubles delta (escapes crawling
    descents), while an exhausted path or iteration budget halves it (the
    level is unreachable or the iterates oscillate). Stops when the relative
    level gap reaches _SUBGRADIENT_TOL; raises SolverError when the iteration
    budget runs out first.
    """
    if params.p == math.inf:
        raise ValueError("the level subgradient method applies only at finite p")
    G = _member_values(data, member_indices)
    T = params.n_slots
    x0 = np.full(T, params.energy / T) if warm_start is None else np.asarray(warm_start, dtype=float)
    x = project_feasible(x0, params)
    f_x, grad = _value_and_subgradient(x, G, params)
    x_best, f_best = x.copy(), f_x

    f_ref = f_best
    delta = max(_SUBGRADIENT_TOL, _SUBGRADIENT_C0 * max(1.0, abs(f_best)))
    path = 0.0
    round_iters = 0
    budget = 0.25 * params.x_max * math.sqrt(T)
    round_cap = 150 + 25 * T
    converged = False
    for _ in range(_SUBGRADIENT_MAX_ITERS):
        gn2 = float(grad @ grad)
        if gn2 <= 1e-30:
            converged = True
            break
        step = (f_x - (f_ref - delta)) / gn2
        x_new = project_feasible(x - step * grad, params)
        move = float(np.linalg.norm(x_new - x))
        path += move
        round_iters += 1
        x = x_new
        f_x, grad = _value_and_subgradient(x, G, params)
        if f_x < f_best:
            f_best, x_best = f_x, x.copy()
        if f_x <= f_ref - 0.5 * delta:
            f_ref, delta = f_x, 2.0 * delta
            path, round_iters = 0.0, 0
        elif (
            path > budget
            or round_iters > round_cap
            or move <= 1e-14 * (1.0 + float(np.linalg.norm(x)))
        ):
            delta *= 0.5
            f_ref = f_best
            path, round_iters = 0.0, 0
            if delta <= _SUBGRADIENT_TOL * (1.0 + abs(f_best)):
                converged = True
                break
    if not converged:
        raise SolverError(
            f"projected subgradient exhausted {_SUBGRADIENT_MAX_ITERS} iterations "
            f"with level gap {delta:.3e} above tolerance"
        )
    return x_best


def solve_representative(data, member_indices, params: PcsParams, warm_start=None) -> np.ndarray:
    """Best representative consumption profile for a cluster.

    Dispatches on p: the cheapest-slot fill at p = 1, the interior-point
    method on the epigraph LP at p = inf, the level subgradient method
    otherwise; a solver failure raises SolverError. When a feasible warm
    start is supplied the returned profile is never worse than it (the better
    of the two is kept), which keeps alternating optimization monotone.
    """
    G = _member_values(data, member_indices)
    if params.p == 1:
        x = cheapest_slot_schedule(params)
    elif params.p == math.inf:
        x = interior_point_representative(G, range(G.shape[0]), params)
    else:
        x = projected_subgradient_representative(G, range(G.shape[0]), params, warm_start=warm_start)
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if paired_norms(G, warm, params).sum() <= paired_norms(G, x, params).sum():
            return warm.copy()
    return x


#: Rows per block of water_fill_decisions: bounds its (rows, 2T, T) fill table
#: to about 10 MB at T = 24.
_FILL_ROWS = 1024


def water_fill_decisions(values, params: PcsParams) -> np.ndarray:
    """Per-row p = inf optimum by weighted water-filling, exact and batched.

    Row g gets x = clip(lam / w - g, 0, x_max) with lam the lowest level whose
    fill meets the energy need (Boyd & Vandenberghe, Convex Optimization,
    sec. 5.5.3); its peak max_t w_t (x_t + g_t) is the single-sample optimum.
    The fill is piecewise linear in lam, with breakpoints w_t g_t (slot t
    starts filling) and w_t (g_t + x_max) (slot t is full), so lam is
    interpolated exactly between sorted breakpoints, as in project_feasible.
    Zero-weight slots cost nothing and are filled to x_max first, and so are
    slots whose scaled weight is subnormal: lam / w cannot resolve their fill,
    and a full one adds at most w_t (g_t + x_max) to the peak.
    """
    G = np.atleast_2d(np.asarray(values, dtype=float))
    if G.shape[1] != params.n_slots:
        raise DimensionError(f"profiles must have length {params.n_slots}, got {G.shape[1]}")
    w = params.weights / max(params.weights.max(), np.finfo(float).tiny)  # x is scale-free
    pos = w >= np.finfo(float).tiny
    x = np.full(G.shape, params.x_max)
    need = params.energy - params.x_max * np.count_nonzero(~pos)
    if need <= 0 or not pos.any():
        x[:, pos] = 0.0
        return x
    wp, gp = w[pos], G[:, pos]
    points = np.sort(np.concatenate([wp * gp, wp * (gp + params.x_max)], axis=1), axis=1)
    lam = np.empty(G.shape[0])
    # lam / w may overflow for tiny weights; the clip to x_max absorbs it
    with np.errstate(over="ignore"):
        for s in range(0, G.shape[0], _FILL_ROWS):
            pts, g = points[s : s + _FILL_ROWS], gp[s : s + _FILL_ROWS]
            fills = np.clip(pts[:, :, None] / wp - g[:, None, :], 0.0, params.x_max).sum(axis=2)
            # first breakpoint whose (monotone) fill meets the need; the last one when
            # rounding leaves even the full box a hair short
            i = np.clip((fills < need).sum(axis=1), 1, pts.shape[1] - 1)
            r = np.arange(pts.shape[0])
            lo, hi, flo, fhi = pts[r, i - 1], pts[r, i], fills[r, i - 1], fills[r, i]
            rise = fhi > flo
            lam[s : s + _FILL_ROWS] = np.where(
                rise, lo + (need - flo) * (hi - lo) / np.where(rise, fhi - flo, 1.0), hi
            )
        x[:, pos] = np.clip(lam[:, None] / wp - gp, 0.0, params.x_max)
    return x


def valley_fill_decision(g, energy: float, x_max: float) -> np.ndarray:
    """Water-filling for one sample at p = inf with unit weights."""
    g = as_vector(g, name="profile")
    if g.size * x_max < energy - FEASIBILITY_TOL:
        raise SolverError(f"energy {energy} exceeds capacity {g.size * x_max}")
    params = PcsParams(n_slots=g.size, p=math.inf, energy=energy, x_max=x_max)
    return water_fill_decisions(g, params)[0]


def perfect_decision_pcs(g, params: PcsParams) -> np.ndarray:
    """Per-sample optimal profile x*(g) (see ``perfect_decisions_pcs``)."""
    return perfect_decisions_pcs(as_vector(g, name="profile")[None, :], params)[0]


def perfect_decisions_pcs(values, params: PcsParams) -> np.ndarray:
    """Per-row optimal profiles x*(g_n), as an (N, T) array.

    At p = inf these are the water-filling optima, computed in one batch;
    otherwise each is a singleton-cluster representative.
    """
    G = np.atleast_2d(np.asarray(values, dtype=float))
    if params.p == math.inf:
        return water_fill_decisions(G, params)
    return np.stack([solve_representative(g[None, :], [0], params) for g in G])


# ---------------------------------------------------------------------------
# Engine interface
# ---------------------------------------------------------------------------

def metric_ops(params: PcsParams, approx_assignment: bool = False) -> MetricOps:
    """Callable bundle for the engine; approx_assignment forces p = 2 clusters."""
    assign_p = 2 if approx_assignment else None

    def feasible(decisions) -> np.ndarray:
        x = as_decisions(decisions, name="profile")
        return (
            (x.shape[1] == params.n_slots)
            & np.all(x >= -FEASIBILITY_TOL, axis=1)
            & np.all(x <= params.x_max + FEASIBILITY_TOL, axis=1)
            & (x.sum(axis=1) >= params.energy - FEASIBILITY_TOL)
        )

    def best_representatives(values, assignment, clusters, warm_starts) -> np.ndarray:
        reps = np.empty((len(clusters), params.n_slots))
        for i, (m, members) in enumerate(zip(clusters, cluster_members(assignment, clusters))):
            warm = None if warm_starts is None else warm_starts[i]
            try:
                reps[i] = solve_representative(values, members, params, warm_start=warm)
            except SolverError as err:
                raise SolverError(f"cluster {m}: {err}", cluster=int(m)) from err
        return reps

    return MetricOps(
        utilities=lambda x, values: -paired_norms(values, x, params),
        assign=lambda values, reps: np.argmin(
            weighted_norms(values, reps, params, p=assign_p), axis=1
        ),
        best_representatives=best_representatives,
        perfect_decisions=lambda values: perfect_decisions_pcs(values, params),
        feasible=feasible,
        # the cheapest-slot fill and the epigraph LP see only the members
        member_determined=params.p in (1, math.inf),
    )
