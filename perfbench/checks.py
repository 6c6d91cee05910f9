"""Output checks computed by the benchmark itself, without calling dmoc.

Each checker raises ``CheckError`` with a reason when an output is wrong.
The reference values come from independent computations written here
(water-filling, per-slot price maximization from the utility's definition)
or from properties the method must have (losses are nonnegative, DMOC from
the k-means start never loses to the k-means pipeline).
"""

from __future__ import annotations

import math

import numpy as np

F_PERFECT_RTOL = 1e-6


class CheckError(Exception):
    pass


def water_fill_peaks(values: np.ndarray, weights: np.ndarray, energy: float, x_max: float) -> np.ndarray:
    """Per-sample optimal weighted peak ``min_x max_t w_t (x_t + g_t)``, for weights > 0.

    The optimum fills every slot up to a common level lam: x_t =
    clip(lam / w_t - g_t, 0, x_max), with lam the smallest level whose fill
    meets the energy need. lam is bisected for all rows at once.
    """
    g = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("water-filling reference needs positive weights")
    lo = np.zeros(g.shape[0])
    hi = (w * (g + x_max)).max(axis=1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        short = np.clip(mid[:, None] / w - g, 0.0, x_max).sum(axis=1) < energy
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    x = np.clip(hi[:, None] / w - g, 0.0, x_max)
    return (w * (x + g)).max(axis=1)


def _slot_welfare(price: np.ndarray, g: np.ndarray, alpha: float, a: float, b: float, c: float) -> np.ndarray:
    """Provider utility of one slot at each price, from its definition.

    Each consumer buys the load maximizing its benefit minus its bill: zero
    when the price exceeds its satisfaction parameter, else (g - price) /
    alpha. Its benefit is g*l - alpha/2*l^2 (saturating at g^2 / (2 alpha)),
    and the provider pays a*L^2 + b*L + c for the total load L.
    """
    load = np.maximum(g - price[..., None], 0.0) / alpha
    benefit = np.where(load <= g / alpha, g * load - 0.5 * alpha * load**2, g**2 / (2.0 * alpha))
    total = load.sum(axis=-1)
    return benefit.sum(axis=-1) - a * total**2 - b * total - c


def rtp_perfect_objective(values: np.ndarray, n_consumers: int, n_slots: int, alpha, a, b, c) -> float:
    """Sum over samples and slots of the best provider utility over prices >= 0.

    Between consecutive satisfaction parameters the set of buying consumers is
    fixed and the slot utility is a concave quadratic in the price; its
    stationary point (clipped into the piece) and the piece ends are the only
    candidates for the maximum, so the maximization is exact.
    """
    g = np.asarray(values, dtype=float).reshape(-1, n_slots, n_consumers)
    g = np.sort(g, axis=-1)
    best = np.full(g.shape[:2], -np.inf)
    for first in range(n_consumers + 1):
        # consumers first..K-1 buy when the price lies in [g[first-1], g[first]]
        lo = g[..., first - 1] if first > 0 else np.zeros(g.shape[:2])
        hi = g[..., first] if first < n_consumers else np.full(g.shape[:2], np.inf)
        buyers = n_consumers - first
        s = g[..., first:].sum(axis=-1)
        stationary = (2.0 * a * s / alpha + b) / (1.0 + 2.0 * a * buyers / alpha)
        for price in (lo, np.clip(stationary, lo, hi)):
            price = np.maximum(price, 0.0)
            best = np.maximum(best, _slot_welfare(price, g, alpha, a, b, c))
    return float(best.sum())


def check_f_perfect(f_perfect: float, expected: float) -> None:
    if not math.isclose(f_perfect, expected, rel_tol=F_PERFECT_RTOL, abs_tol=0.0):
        raise CheckError(f"f_perfect {f_perfect!r} differs from the independent value {expected!r}")


def check_curves(rows, schemes, m_values, expected_f_perfect: float) -> None:
    """Check one sweep's (scheme, m, objective, rho_percent, f_perfect) rows.

    One row per (scheme, M), one shared f_perfect equal to the independent
    value, objectives no better than perfect, losses nonnegative and
    consistent with the objectives, and DMOC at least as good as k-means at
    every M.
    """
    keys = [(r[0], int(r[1])) for r in rows]
    wanted = [(s, m) for s in schemes for m in m_values]
    if sorted(keys) != sorted(wanted) or len(set(keys)) != len(keys):
        raise CheckError(f"expected one row per (scheme, M) in {wanted}, got {keys}")
    f_values = {float(r[4]) for r in rows}
    if len(f_values) != 1:
        raise CheckError(f"rows disagree on f_perfect: {sorted(f_values)}")
    f_perfect = f_values.pop()
    check_f_perfect(f_perfect, expected_f_perfect)
    scale = abs(f_perfect)
    objective = {}
    for scheme, m, obj, rho, _ in rows:
        obj, rho = float(obj), float(rho)
        objective[(scheme, int(m))] = obj
        if not (math.isfinite(obj) and math.isfinite(rho)):
            raise CheckError(f"{scheme} M={m}: non-finite output")
        if rho < 0:
            raise CheckError(f"{scheme} M={m}: negative loss {rho}")
        if obj > f_perfect + 1e-9 * scale:
            raise CheckError(f"{scheme} M={m}: objective {obj} beats the perfect baseline {f_perfect}")
        if not math.isclose(rho, (f_perfect - obj) / scale * 100.0, rel_tol=1e-6, abs_tol=1e-5):
            raise CheckError(f"{scheme} M={m}: loss {rho} does not match its objective {obj}")
    if "dmoc" in schemes and "kmc" in schemes:
        for m in m_values:
            if objective[("dmoc", m)] < objective[("kmc", m)]:
                raise CheckError(
                    f"dominance fails at M={m}: dmoc {objective[('dmoc', m)]} "
                    f"< kmc {objective[('kmc', m)]}"
                )


def mean_loss(rows, scheme: str) -> float:
    """Mean relative loss, in percent, of one scheme over the swept M."""
    return float(np.mean([float(r[3]) for r in rows if r[0] == scheme]))
