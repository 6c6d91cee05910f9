"""Independent reference computations used to pin expected values.

These stay deliberately naive (grids, enumeration, finite differences, the
epigraph LP with HiGHS, smoothed gradient descent, level subgradient steps,
the Lloyd loop as first written) and never call the solver paths they are
used to check: nothing here imports ``dmoc.pcs``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from dmoc import baselines
from dmoc.core import EmptyClusterError, Partition, row_blocks, sq_distances
from dmoc.engine import _repair_empty


def project_feasible(y, params):
    """Euclidean projection of one point y (T,) onto {0 <= x <= x_max, sum(x) >= E}.

    If clip(y, 0, x_max) meets E, it is the projection. Otherwise the projection is
    clip(y + lam, 0, x_max) at the lam >= 0 where its sum reaches E. That sum is
    piecewise linear and nondecreasing in lam, with kinks where an entry enters the
    box (lam = -y_t) and where it caps (lam = x_max - y_t): it is evaluated at every
    kink at once, and lam solves the one linear segment that reaches E.
    """
    y = np.asarray(y, dtype=float)
    x = np.clip(y, 0.0, params.x_max)
    if x.sum() >= params.energy:
        return x
    kinks = np.concatenate([-y, params.x_max - y])
    lams = np.concatenate([[0.0], np.sort(kinks[kinks > 0.0])])
    sums = np.clip(y + lams[:, None], 0.0, params.x_max).sum(axis=1)
    reach = np.nonzero(sums >= params.energy)[0]
    if not reach.size:  # rounding leaves even the last kink a hair short: the full box
        return np.clip(y + lams[-1], 0.0, params.x_max)
    j = reach[0]  # sums[0] < E <= sums[j]
    lam = lams[j - 1] + (params.energy - sums[j - 1]) * (lams[j] - lams[j - 1]) / (sums[j] - sums[j - 1])
    return np.clip(y + lam, 0.0, params.x_max)


def epigraph_lp_representative(values, member_indices, params):
    """The p = inf representative of the members ``values[member_indices]`` by HiGHS:
    minimize sum_n t_n over (x, t_1..t_n) with w_tau (x_tau + g_n,tau) <= t_n,
    0 <= x <= x_max and sum(x) >= E. Nonnegative data lets the absolute values of the
    norm be dropped from the epigraph constraints."""
    if params.p != math.inf:
        raise ValueError("the epigraph LP applies only at p = inf")
    members = np.sort(np.asarray(list(member_indices), dtype=int))
    if members.size == 0:
        raise EmptyClusterError("an empty cluster has no representative", cluster=0)
    G = np.atleast_2d(np.asarray(values, dtype=float))[members]
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
        raise RuntimeError(f"epigraph LP failed: {res.message}")
    return np.clip(res.x[:T], 0.0, params.x_max)


def pcs_cluster_objective(x, members_values, weights, p) -> float:
    """Direct evaluation of sum_n ||W(x + g_n)||_p."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for g in np.atleast_2d(members_values):
        levels = np.abs(np.asarray(weights) * (x + g))
        total += levels.max() if p == math.inf else (levels**p).sum() ** (1.0 / p)
    return total


def peak_descent_representative(members_values, params):
    """p = inf cluster representative by projected gradient on a softmax-smoothed peak.

    An iterative route independent of the epigraph LP: it minimizes the upper
    bound ``sum_n m_n + mu log sum_t exp((w_t (x_t + g_nt) - m_n) / mu)`` of the
    summed peaks by backtracking projected-gradient steps, shrinking the
    temperature mu geometrically until the smoothing error is below a relative
    1e-5. Unsmoothed subgradients of the max zigzag between tied peak slots and
    stall near constrained optima. Returns the best iterate in the true
    objective.
    """
    G = np.atleast_2d(np.asarray(members_values, dtype=float))
    w = params.weights
    n, T = G.shape
    ln_t = math.log(max(2, T))

    def peaks(x):
        return float((w * (x + G)).max(axis=1).sum())

    def smoothed(x, mu):
        v = w * (x + G)
        m = v.max(axis=1, keepdims=True)
        z = np.exp((v - m) / mu)
        s = z.sum(axis=1, keepdims=True)
        return float((m + mu * np.log(s)).sum()), ((z / s) * w).sum(axis=0)

    x = project_feasible(np.full(T, params.energy / T), params)
    f_best = peaks(x)
    x_best = x.copy()
    mu_final = 1e-5 * (1.0 + abs(f_best)) / (2.0 * n * ln_t)
    mu = max(mu_final, 0.02 * (1.0 + abs(f_best)) / (n * ln_t))
    step = 1.0
    iters = 0
    while True:
        f_mu, grad = smoothed(x, mu)
        for _ in range(200 * T):
            iters += 1
            if iters > 100000:
                raise RuntimeError("peak descent exhausted 100000 iterations")
            while True:
                y = project_feasible(x - step * grad, params)
                d = y - x
                dn2 = float(d @ d)
                f_y, grad_y = smoothed(y, mu)
                if f_y <= f_mu + float(grad @ d) + dn2 / (2.0 * step) + 1e-12 or dn2 <= 1e-24:
                    break
                step *= 0.5
            x, f_mu, grad = y, f_y, grad_y
            f_true = peaks(x)
            if f_true < f_best:
                f_best, x_best = f_true, x.copy()
            step *= 1.3
            if dn2 <= (1e-10 * (1.0 + float(np.linalg.norm(x)))) ** 2:
                break
        if mu <= mu_final * (1.0 + 1e-9):
            return x_best
        mu = max(mu_final, mu / 5.0)


def subgradient_representative(members_values, params, tol=1e-5, max_iters=100000):
    """Finite-p cluster representative by projected subgradient with adaptive level steps.

    Independent of the interior point: rounds keep a fixed reference value f_ref
    and step toward the level f_ref - delta; a descent of delta/2 doubles delta
    (escapes crawling descents), while an exhausted path or iteration budget
    halves it (the level is unreachable or the iterates oscillate). Stops when
    the relative level gap reaches ``tol``. Returns the best iterate, which is
    feasible.
    """
    if params.p == math.inf:
        raise ValueError("the level subgradient method applies only at finite p")
    G = np.atleast_2d(np.asarray(members_values, dtype=float))
    w, p, T = params.weights, params.p, params.n_slots

    def value_and_subgradient(x):
        levels = w * (x + G)
        norms = (levels**p).sum(axis=1) ** (1.0 / p)
        safe = norms > 0
        grad = np.zeros_like(x)
        if np.any(safe):
            grad = (w * levels[safe] ** (p - 1) / norms[safe, None] ** (p - 1)).sum(axis=0)
        return float(norms.sum()), grad

    x = project_feasible(np.full(T, params.energy / T), params)
    f_x, grad = value_and_subgradient(x)
    x_best, f_best = x.copy(), f_x
    f_ref = f_best
    delta = max(tol, 0.1 * max(1.0, abs(f_best)))
    path, round_iters = 0.0, 0
    budget = 0.25 * params.x_max * math.sqrt(T)
    round_cap = 150 + 25 * T
    for _ in range(max_iters):
        gn2 = float(grad @ grad)
        if gn2 <= 1e-30:
            return x_best
        x_new = project_feasible(x - (f_x - (f_ref - delta)) / gn2 * grad, params)
        move = float(np.linalg.norm(x_new - x))
        path += move
        round_iters += 1
        x = x_new
        f_x, grad = value_and_subgradient(x)
        if f_x < f_best:
            f_best, x_best = f_x, x.copy()
        if f_x <= f_ref - 0.5 * delta:
            f_ref, delta = f_x, 2.0 * delta
            path, round_iters = 0.0, 0
        elif path > budget or round_iters > round_cap or move <= 1e-14 * (1.0 + float(np.linalg.norm(x))):
            delta *= 0.5
            f_ref = f_best
            path, round_iters = 0.0, 0
            if delta <= tol * (1.0 + abs(f_best)):
                return x_best
    raise RuntimeError(f"projected subgradient exhausted {max_iters} iterations")


def grid_min_pcs(members_values, weights, p, energy, x_max, step=0.01):
    """Brute-force minimum of the representative program on a T=2 grid."""
    members_values = np.atleast_2d(members_values)
    assert members_values.shape[1] == 2, "grid oracle is for T = 2"
    axis = np.round(np.arange(0.0, x_max + step / 2, step), 10)
    best_obj, best_x = math.inf, None
    for x1 in axis:
        for x2 in axis:
            if x1 + x2 < energy - 1e-12:
                continue
            obj = pcs_cluster_objective((x1, x2), members_values, weights, p)
            if obj < best_obj:
                best_obj, best_x = obj, (x1, x2)
    return best_obj, np.asarray(best_x)


def table_levels(points, v, g, x_max, need):
    """Water-fill levels by the table search: the fill sum_t clip(lam / v_t - g_nt, 0, x_max)
    of every row n at every one of its sorted breakpoints ``points[n]`` at once, through an
    (n, 2T, T) table, then the same interpolation in the bracketing pair as
    ``dmoc.pcs._levels``, which it pins bit for bit."""
    fills = np.clip(points[:, :, None] / v - g[:, None, :], 0.0, x_max).sum(axis=2)
    i = np.clip((fills < need).sum(axis=1), 1, points.shape[1] - 1)
    r = np.arange(points.shape[0])
    lo, hi, flo, fhi = points[r, i - 1], points[r, i], fills[r, i - 1], fills[r, i]
    rise = fhi > flo
    return np.where(rise, lo + (need - flo) * (hi - lo) / np.where(rise, fhi - flo, 1.0), hi)


def maximize_1d(fun, lo, hi, points=401, rounds=5):
    """Iterated-zoom grid maximizer; robust to kinks, accurate to ~(hi-lo)*1e-10."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = np.array([fun(x) for x in xs])
        i = int(np.argmax(vals))
        width = (hi - lo) / (points - 1)
        lo, hi = max(lo, xs[i] - width), min(hi, xs[i] + width)
    return 0.5 * (lo + hi)


def rtp_numeric_representative(members_values, params, x_hi=None):
    """Numeric maximizer of the summed pricing utility, slot by slot.

    The cluster utility is separable across slots, so each price coordinate is
    maximized independently with the zoom grid. Evaluates the utility straight
    from its definition (best-response loads and quadratic cost).
    """
    members = np.atleast_2d(members_values)
    K, T, alpha = params.n_consumers, params.n_slots, params.alpha
    slots = members.reshape(members.shape[0], T, K)
    hi = float(members.max()) * 1.5 + 1.0 if x_hi is None else x_hi

    def slot_utility(t, x):
        total = 0.0
        for sample in slots:
            g = sample[t]
            ell = np.where(x > g, 0.0, (g - x) / alpha)
            u = np.where(ell <= g / alpha, g * ell - 0.5 * alpha * ell**2, g**2 / (2 * alpha))
            load = ell.sum()
            total += u.sum() - params.a * load**2 - params.b * load - params.c
        return total

    return np.array([maximize_1d(lambda x, t=t: slot_utility(t, x), 0.0, hi) for t in range(T)])


def best_two_partition_inertia(values):
    """Exhaustive best 2-cluster inertia for small N (<= 12)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    best = math.inf
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = values[mask], values[~mask]
        if len(a) == 0 or len(b) == 0:
            continue
        inertia = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def partition_nearest_centers(values, centers):
    """``core.nearest_centers`` as first written: the row norms computed on every
    call, the runner-up taken by ``np.partition``, and every row whose gap is not
    above the kernel's margin (or is NaN) re-measured with the direct distances."""
    n, dim = values.shape
    out = np.zeros(n, dtype=np.intp)
    if centers.shape[0] == 1:
        return out
    v_sq = np.einsum("ij,ij->i", values, values)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    k = (dim + 4) * np.finfo(float).eps / 2
    bound_scale, bound_floor = 4 * k / (1 - k), 8 * (dim + 4) * np.finfo(float).smallest_subnormal
    reach = math.sqrt(c_sq.max())
    near = np.zeros(n, dtype=bool)
    for rows in row_blocks(n, centers.shape[0]):
        dist = values[rows] @ centers.T
        dist *= -2.0
        dist += v_sq[rows, None]
        dist += c_sq
        out[rows] = dist.argmin(axis=1)
        two = np.partition(dist, 1, axis=1)
        bound = bound_scale * (np.sqrt(v_sq[rows]) + reach) ** 2 + bound_floor
        near[rows] = ~(two[:, 1] - two[:, 0] > bound)
    if near.any():
        out[near] = sq_distances(values[near], centers).argmin(axis=1)
    return out


def one_shot_inertia(values, centroids, assignment):
    """Sum over rows of the squared distance to the assigned centroid, from one (N, d)
    array: the row-blocked kernel must give the same bits."""
    return float(((values - centroids[assignment]) ** 2).sum(axis=1).sum())


def reference_kmeans(data, n_clusters, seed, max_iters=100, init=None):
    """Lloyd's loop from a k-means++ start (or the centroids ``init``) with the exact
    inertia after every assignment step (and at the moved centroids when the cap ends the
    run), on ``partition_nearest_centers``. Every update step recomputes the mean of every
    nonempty cluster, each from a boolean mask of its rows. Returns a
    ``baselines.KmeansResult`` and, per assignment step, ``(centroids, repaired, moved)``:
    the centroids it assigned against, whether an empty-cluster repair reassigned rows,
    and how many rows changed cluster (None in the first step)."""
    values = data.values
    if init is None:
        centroids = baselines.kmeans_pp_init(values, n_clusters, np.random.default_rng(seed))
    else:
        centroids = np.array(init, dtype=float)
    ops = dataclasses.replace(
        baselines.squared_distance_ops(data.dim), assign=partition_nearest_centers
    )
    assignment, trace, steps = None, [], []
    for _ in range(max_iters):
        nearest = partition_nearest_centers(values, centroids)
        before = centroids
        centroids, new_assignment = _repair_empty(ops, values, centroids, nearest)
        inertia = one_shot_inertia(values, centroids, new_assignment)
        trace.append(inertia)
        moved = None if assignment is None else int(np.count_nonzero(new_assignment != assignment))
        steps.append((before, new_assignment is not nearest, moved))
        if moved == 0:
            break
        assignment = new_assignment
        centroids = centroids.copy()
        for m in np.unique(assignment):
            centroids[m] = values[assignment == m].mean(axis=0)
    else:
        inertia = one_shot_inertia(values, centroids, assignment)
    result = baselines.KmeansResult(
        centroids, Partition(assignment, n_clusters), inertia, tuple(trace)
    )
    return result, steps


def finite_difference_gradient(fun, x, h=1e-6):
    """Central differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return grad
