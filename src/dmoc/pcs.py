"""Lp-norm consumption-scheduling metric and its representative solvers.

The decision is a controllable consumption profile ``x`` (length T) subject to
``0 <= x(t) <= x_max`` and ``sum(x) >= E``; a sample ``g`` is the
non-controllable profile. The utility is ``f2 = -||W (x + g)||_p``. The best
cluster rule is the generalized Voronoi rule in this norm; the best
representative solves a convex program handled here by

* an analytic cheapest-slot fill for p = 1,
* an epigraph LP (scipy HiGHS) for p = inf, cross-checked by an independent
  iterative route (projected gradient on a softmax-smoothed peak),
* projected subgradient with Polyak-style adaptive level steps for finite
  p >= 2.

A single sample's p = inf decision (perfect decisions, k-means centroid
decisions, empty-cluster repair, random starts) needs no LP: it is the
weighted water-filling optimum ``x = clip(lam / w - g, 0, x_max)``, computed
exactly for a whole (N, T) batch by ``water_fill_decisions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import (
    DataSet,
    DimensionError,
    EmptyClusterError,
    FEASIBILITY_TOL,
    MetricOps,
    PcsParams,
    SolverError,
    as_vector,
)


@dataclass(frozen=True)
class PcsSolverConfig:
    """Configuration for the representative solvers.

    method: "auto" picks the epigraph LP at p = inf and the projected
    subgradient at finite p; "epigraph_lp" and "subgradient" force a route.
    step_c0 scales the initial level gap of the subgradient method and
    objective_tol is the relative level gap below which it declares
    convergence. At p = inf the max subgradient is replaced by a softmax
    gradient: smoothing_mu > 0 fixes its temperature, smoothing_mu = 0 ties
    the temperature to the current level gap (recommended; unsmoothed
    subgradients zigzag between tied peak slots and stall near constrained
    optima).
    """

    method: str = "auto"
    max_iters: int = 100000
    step_c0: float = 0.1
    objective_tol: float = 1e-5
    smoothing_mu: float = 0.0

    def __post_init__(self):
        if self.method not in ("auto", "epigraph_lp", "subgradient"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.objective_tol > 0:
            raise ValueError("objective_tol must be positive")
        if not self.step_c0 > 0:
            raise ValueError("step_c0 must be positive")
        if self.smoothing_mu < 0:
            raise ValueError("smoothing_mu must be >= 0")


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def weighted_norms(values, reps, params: PcsParams, p: float | None = None) -> np.ndarray:
    """(N, M) matrix of ||W(x_m + g_n)||_p for sample rows and representative rows."""
    p = params.p if p is None else p
    v = np.atleast_2d(np.asarray(values, dtype=float))
    r = np.atleast_2d(np.asarray(reps, dtype=float))
    if v.shape[1] != params.n_slots or r.shape[1] != params.n_slots:
        raise DimensionError(
            f"profiles must have length {params.n_slots}, "
            f"got {v.shape[1]} and {r.shape[1]}"
        )
    levels = np.abs(params.weights * (v[:, None, :] + r[None, :, :]))
    if p == math.inf:
        return levels.max(axis=-1)
    return (levels**p).sum(axis=-1) ** (1.0 / p)


def f2(x, g, params: PcsParams) -> float:
    """Scheduling utility: minus the weighted Lp norm of the total load x + g."""
    return float(-weighted_norms(g, x, params)[0, 0])


def assign_cluster_pcs(g, reps, params: PcsParams) -> int:
    """Index of the representative minimizing ||W(x_m + g)||_p (ties to lowest)."""
    return int(np.argmin(weighted_norms(g, reps, params)[0]))


def assign_cluster_approx(g, reps, params: PcsParams) -> int:
    """Approximate rule: force p = 2 so the clusters are plain Voronoi regions."""
    return int(np.argmin(weighted_norms(g, reps, params, p=2)[0]))


def _cluster_objective(x: np.ndarray, members_values: np.ndarray, params: PcsParams) -> float:
    """Sum over members of ||W(x + g_n)||_p (the quantity the solvers minimize)."""
    return float(weighted_norms(members_values, x, params)[:, 0].sum())


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
    i = int(np.searchsorted(sums, params.energy, side="left"))
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


def _check_members(member_indices) -> np.ndarray:
    members = np.asarray(sorted(member_indices), dtype=int)
    if members.size == 0:
        raise EmptyClusterError("cannot compute a representative for an empty cluster")
    return members


def _member_values(data, member_indices) -> np.ndarray:
    values = data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data, dtype=float))
    return values[_check_members(member_indices)]


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


def epigraph_lp_representative(data, member_indices, params: PcsParams) -> np.ndarray:
    """Reference solver at p = inf: minimize sum_n t_n with w_tau(x + g_n) <= t_n.

    Variables are (x, t_1..t_n). Nonnegative data lets the absolute values in
    the norm be dropped from the epigraph constraints. Solved with HiGHS.
    """
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


def _value_and_subgradient(
    x: np.ndarray, G: np.ndarray, params: PcsParams, mu: float
) -> tuple[float, np.ndarray]:
    """Cluster objective sum_n ||W(x + g_n)||_p and one subgradient at x.

    Inputs are nonnegative so the absolute values inside the norm drop out.
    With mu > 0 at p = inf the subgradient of the max is replaced by a softmax
    gradient of temperature mu (the reported value stays exact).
    """
    w = params.weights
    levels = w * (x + G)
    if params.p == math.inf:
        value = float(levels.max(axis=1).sum())
        if mu > 0:
            z = (levels - levels.max(axis=1, keepdims=True)) / mu
            soft = np.exp(z)
            soft /= soft.sum(axis=1, keepdims=True)
            return value, (soft * w).sum(axis=0)
        grad = np.zeros_like(x)
        top = levels.argmax(axis=1)
        np.add.at(grad, top, w[top])
        return value, grad
    p = params.p
    norms = (levels**p).sum(axis=1) ** (1.0 / p)
    safe = norms > 0
    grad = np.zeros_like(x)
    if np.any(safe):
        ratio = levels[safe] ** (p - 1) / norms[safe, None] ** (p - 1)
        grad = (w * ratio).sum(axis=0)
    return float(norms.sum()), grad


def _smoothed_peak_value_grad(x, G, w, mu):
    """Softmax-smoothed peak objective and its gradient (upper bound on the max)."""
    v = w * (x + G)
    m = v.max(axis=1, keepdims=True)
    z = np.exp((v - m) / mu)
    s = z.sum(axis=1, keepdims=True)
    return float((m + mu * np.log(s)).sum()), ((z / s) * w).sum(axis=0)


def _peak_descent(G, params: PcsParams, cfg: PcsSolverConfig, warm_start) -> np.ndarray:
    """p = inf iterative route: projected gradient on a softmax-smoothed peak.

    Continuation shrinks the smoothing temperature geometrically until the
    smoothing error is below the requested relative tolerance; each stage runs
    backtracking projected-gradient steps. Unsmoothed subgradients of the max
    zigzag between tied peak slots and stall near constrained optima, so the
    smoothed surrogate is the default (a fixed smoothing_mu > 0 caps the
    continuation instead).
    """
    w = params.weights
    T = params.n_slots
    n = G.shape[0]
    ln_t = math.log(max(2, T))
    x0 = np.full(T, params.energy / T) if warm_start is None else np.asarray(warm_start, dtype=float)
    x = project_feasible(x0, params)
    f_best = _cluster_objective(x, G, params)
    x_best = x.copy()

    eps = cfg.objective_tol * (1.0 + abs(f_best))
    mu_final = cfg.smoothing_mu if cfg.smoothing_mu > 0 else eps / (2.0 * n * ln_t)
    mu = max(mu_final, cfg.step_c0 * 0.2 * (1.0 + abs(f_best)) / (n * ln_t))
    step = 1.0
    iters = 0
    while True:
        f_mu, grad = _smoothed_peak_value_grad(x, G, w, mu)
        for _ in range(200 * T):
            if iters >= cfg.max_iters:
                raise SolverError(
                    f"projected subgradient exhausted {cfg.max_iters} iterations "
                    f"at smoothing {mu:.3e}"
                )
            iters += 1
            while True:
                y = project_feasible(x - step * grad, params)
                d = y - x
                dn2 = float(d @ d)
                f_y, grad_y = _smoothed_peak_value_grad(y, G, w, mu)
                if f_y <= f_mu + float(grad @ d) + dn2 / (2.0 * step) + 1e-12 or dn2 <= 1e-24:
                    break
                step *= 0.5
            x, f_mu, grad = y, f_y, grad_y
            f_true = _cluster_objective(x, G, params)
            if f_true < f_best:
                f_best, x_best = f_true, x.copy()
            step *= 1.3
            if dn2 <= (1e-10 * (1.0 + float(np.linalg.norm(x)))) ** 2:
                break
        if mu <= mu_final * (1.0 + 1e-9):
            return x_best
        mu = max(mu_final, mu / 5.0)


def _level_subgradient(G, params: PcsParams, cfg: PcsSolverConfig, warm_start) -> np.ndarray:
    """Finite-p iterative route: projected subgradient with adaptive level steps.

    Rounds keep a fixed reference value f_ref and step toward the level
    f_ref - delta; a descent of delta/2 doubles delta (escapes crawling
    descents), while an exhausted path or iteration budget halves it (the
    level is unreachable or the iterates oscillate). Stops when the relative
    level gap reaches objective_tol.
    """
    T = params.n_slots
    x0 = np.full(T, params.energy / T) if warm_start is None else np.asarray(warm_start, dtype=float)
    x = project_feasible(x0, params)
    f_x, grad = _value_and_subgradient(x, G, params, 0.0)
    x_best, f_best = x.copy(), f_x

    f_ref = f_best
    delta = max(cfg.objective_tol, cfg.step_c0 * max(1.0, abs(f_best)))
    path = 0.0
    round_iters = 0
    budget = 0.25 * params.x_max * math.sqrt(T)
    round_cap = 150 + 25 * T
    converged = False
    for _ in range(cfg.max_iters):
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
        f_x, grad = _value_and_subgradient(x, G, params, 0.0)
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
            if delta <= cfg.objective_tol * (1.0 + abs(f_best)):
                converged = True
                break
    if not converged:
        raise SolverError(
            f"projected subgradient exhausted {cfg.max_iters} iterations "
            f"with level gap {delta:.3e} above tolerance"
        )
    return x_best


def projected_subgradient_representative(
    data,
    member_indices,
    params: PcsParams,
    solver: PcsSolverConfig | None = None,
    warm_start=None,
) -> np.ndarray:
    """Iterative route for the convex representative program (p >= 2 or inf).

    Dispatches to the smoothed projected-gradient continuation at p = inf and
    to adaptive-level projected subgradient steps at finite p. Raises
    SolverError when the iteration budget runs out first.
    """
    cfg = solver or PcsSolverConfig()
    G = _member_values(data, member_indices)
    if params.p == math.inf:
        return _peak_descent(G, params, cfg, warm_start)
    return _level_subgradient(G, params, cfg, warm_start)


def solve_representative(
    data,
    member_indices,
    params: PcsParams,
    solver: PcsSolverConfig | None = None,
    warm_start=None,
) -> np.ndarray:
    """Best representative consumption profile for a cluster.

    Dispatches on p and the configured method; when a feasible warm start is
    supplied the returned profile is never worse than it (the better of the
    two is kept), which keeps alternating optimization monotone.
    """
    cfg = solver or PcsSolverConfig()
    G = _member_values(data, member_indices)
    if params.p == 1:
        x = cheapest_slot_schedule(params)
    elif cfg.method == "epigraph_lp" or (cfg.method == "auto" and params.p == math.inf):
        if params.p != math.inf:
            raise ValueError("the epigraph LP applies only at p = inf")
        x = epigraph_lp_representative(G, range(G.shape[0]), params)
    else:
        x = projected_subgradient_representative(
            G, range(G.shape[0]), params, solver=cfg, warm_start=warm_start
        )
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if _cluster_objective(warm, G, params) <= _cluster_objective(x, G, params):
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
    Zero-weight slots cost nothing and are filled to x_max first.
    """
    G = np.atleast_2d(np.asarray(values, dtype=float))
    if G.shape[1] != params.n_slots:
        raise DimensionError(f"profiles must have length {params.n_slots}, got {G.shape[1]}")
    w = params.weights / max(params.weights.max(), np.finfo(float).tiny)  # x is scale-free
    pos = w > 0
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


def perfect_decision_pcs(g, params: PcsParams, solver: PcsSolverConfig | None = None) -> np.ndarray:
    """Per-sample optimal profile x*(g).

    At p = inf this is the water-filling optimum unless the subgradient route
    is forced; otherwise it is a singleton-cluster representative.
    """
    g = as_vector(g, name="profile")
    if params.p == math.inf and (solver or PcsSolverConfig()).method != "subgradient":
        return water_fill_decisions(g, params)[0]
    return solve_representative(g[None, :], [0], params, solver=solver)


# ---------------------------------------------------------------------------
# Engine interface
# ---------------------------------------------------------------------------

def metric_ops(
    params: PcsParams,
    solver: PcsSolverConfig | None = None,
    approx_assignment: bool = False,
) -> MetricOps:
    """Callable bundle for the engine; approx_assignment forces p = 2 clusters."""
    cfg = solver or PcsSolverConfig()
    assign_p = 2 if approx_assignment else None

    def feasible(x) -> bool:
        x = as_vector(x, name="profile")
        return (
            x.size == params.n_slots
            and bool(np.all(x >= -FEASIBILITY_TOL))
            and bool(np.all(x <= params.x_max + FEASIBILITY_TOL))
            and x.sum() >= params.energy - FEASIBILITY_TOL
        )

    return MetricOps(
        decision_dim=params.decision_dim,
        data_dim=params.data_dim,
        utilities=lambda x, values: -weighted_norms(values, x, params)[:, 0],
        assign=lambda values, reps: np.argmin(
            weighted_norms(values, reps, params, p=assign_p), axis=1
        ),
        best_representative=lambda values, members, warm_start=None: solve_representative(
            values, members, params, solver=cfg, warm_start=warm_start
        ),
        perfect_decision=lambda g: perfect_decision_pcs(g, params, solver=cfg),
        feasible=feasible,
        # the cheapest-slot fill and the epigraph LP see only the members
        member_determined=params.p == 1 or (params.p == math.inf and cfg.method != "subgradient"),
    )
