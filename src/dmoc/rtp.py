"""Real-time pricing metric and its closed-form clustering rules.

The provider picks a per-slot price profile ``x`` (length T). A sample ``g``
stacks the satisfaction parameters of K consumers over T slots as
``(g_1(1), ..., g_K(1), ..., g_1(T), ..., g_K(T))``. Welfare is the sum of
consumer utilities at their best-response loads minus a quadratic procurement
cost ``a*L^2 + b*L + c`` per slot. Both the best assignment rule and the best
representative price admit closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataSet,
    DimensionError,
    EmptyClusterError,
    FEASIBILITY_TOL,
    MetricOps,
    RtpParams,
    as_decisions,
    cluster_means,
    logger,
    nearest_centers,
    row_blocks,
)


def consumer_utility(ell, g, alpha: float):
    """Quadratic consumer benefit, saturating at load g/alpha.

    u(ell; g) = g*ell - (alpha/2)*ell**2 for ell <= g/alpha, else g**2/(2*alpha).
    Accepts scalars or arrays (broadcast).
    """
    ell = np.asarray(ell, dtype=float)
    g = np.asarray(g, dtype=float)
    quad = g * ell - 0.5 * alpha * ell**2
    sat = g**2 / (2.0 * alpha)
    out = np.where(ell <= g / alpha, quad, sat)
    return float(out) if out.ndim == 0 else out


def best_response_load(x, g, alpha: float):
    """Load the consumer picks at price x: zero when over-priced, else (g - x)/alpha."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    out = np.where(x > g, 0.0, (g - x) / alpha)
    return float(out) if out.ndim == 0 else out


def _stack_to_slots(g: np.ndarray, params: RtpParams) -> np.ndarray:
    """Reshape a stacked sample (or batch) to (..., T, K)."""
    if g.shape[-1] != params.data_dim:
        raise DimensionError(
            f"sample has length {g.shape[-1]}, expected K*T = {params.data_dim}"
        )
    return g.reshape(*g.shape[:-1], params.n_slots, params.n_consumers)


def f1_batch(x, values: np.ndarray, params: RtpParams) -> np.ndarray:
    """Welfare-minus-cost utility for each sample row: of the one price profile
    ``x`` (T,), or of row i of an (n, T) ``x`` for sample row i. Computed in row
    blocks; an over-priced batch logs one warning per call."""
    x = as_decisions(x, params.n_slots, name="price profile")
    g = _stack_to_slots(np.atleast_2d(np.asarray(values, dtype=float)), params)
    n = g.shape[0] if x.shape[0] == 1 else x.shape[0]
    if g.shape[0] not in (1, n):
        raise DimensionError(f"{x.shape[0]} price profiles for {g.shape[0]} samples")
    out = np.empty(n)
    over_priced = False
    for rows in row_blocks(n, params.data_dim):
        price = (x if x.shape[0] == 1 else x[rows])[..., None]
        g_rows = g if g.shape[0] == 1 else g[rows]
        over_priced = over_priced or bool(np.any(price > g_rows))
        ell = best_response_load(price, g_rows, params.alpha)
        u = consumer_utility(ell, g_rows, params.alpha)
        load = ell.sum(axis=-1)
        per_slot = u.sum(axis=-1) - params.a * load**2 - params.b * load - params.c
        out[rows] = per_slot.sum(axis=-1)
    if over_priced:
        logger.warning(
            "over-pricing: price exceeds a satisfaction parameter; load clamped to 0"
        )
    return out


@dataclass(frozen=True)
class RtpDerivedConstants:
    """Auxiliary scalars of the quadratic completion: a_tilde, kappa, beta."""

    a_tilde: float
    kappa: float
    beta: float
    n_slots: int


def derived_constants(params: RtpParams) -> RtpDerivedConstants:
    """a_tilde = K^2/alpha^2 * (a + alpha/(2K)), kappa = a*K/(alpha^2*a_tilde), beta = b*K/(2*alpha*a_tilde)."""
    K, alpha = params.n_consumers, params.alpha
    a_tilde = (K**2 / alpha**2) * (params.a + alpha / (2.0 * K))
    kappa = params.a * K / (alpha**2 * a_tilde)
    beta = params.b * K / (2.0 * alpha * a_tilde)
    return RtpDerivedConstants(a_tilde=a_tilde, kappa=kappa, beta=beta, n_slots=params.n_slots)


def transform_dataset(values, params: RtpParams, constants: RtpDerivedConstants | None = None) -> np.ndarray:
    """Affine transform applied row-wise: (N, K*T) -> (N, T)."""
    c = derived_constants(params) if constants is None else constants
    v = np.atleast_2d(np.asarray(values, dtype=float))
    slot_sums = _stack_to_slots(v, params).sum(axis=-1)
    return c.kappa * slot_sums + c.beta


def assign_batch(values, reps, params: RtpParams) -> np.ndarray:
    """Closed-form assignment: nearest representative in the transformed space
    (ties to the lowest index)."""
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    return nearest_centers(transform_dataset(values, params), reps)


def _values_of(data) -> np.ndarray:
    return data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data, dtype=float))


def _optimal_price(gbar: np.ndarray, params: RtpParams) -> np.ndarray:
    """x*(t) = (a * gbar(t) + alpha*b/(2K)) / (a + alpha/(2K)), for any batch shape of gbar."""
    if params.a == 0 and params.b == 0:
        raise ValueError("representative price is undefined when a = 0 and b = 0")
    half = params.alpha / (2.0 * params.n_consumers)
    return (params.a * gbar + half * params.b) / (params.a + half)


def closed_form_representative(data, member_indices, params: RtpParams) -> np.ndarray:
    """Best representative price profile for a cluster.

    x*(t) = (a * gbar(t) + alpha*b/(2K)) / (a + alpha/(2K)) where gbar(t) is the
    cluster-average satisfaction parameter at slot t. Requires a > 0 or b > 0.
    """
    members = np.asarray(list(member_indices), dtype=int)
    if members.size == 0:
        raise EmptyClusterError("cannot compute a representative for an empty cluster")
    gbar = _stack_to_slots(_values_of(data)[members], params).mean(axis=-1).mean(axis=0)
    return _optimal_price(gbar, params)


def closed_form_representatives(data, assignment, clusters, params: RtpParams) -> np.ndarray:
    """(k, T) array of ``closed_form_representative`` for each of ``clusters``, whose
    members are the rows with ``assignment == clusters[i]``."""
    slot_means = _stack_to_slots(_values_of(data), params).mean(axis=-1)
    return _optimal_price(cluster_means(slot_means, assignment, clusters), params)


def perfect_prices(values, params: RtpParams) -> np.ndarray:
    """Per-row optimal price profiles, as an (N, T) array: each row is its own cluster."""
    return _optimal_price(_stack_to_slots(_values_of(values), params).mean(axis=-1), params)


def generate_rtp_scenario(
    n_consumers: int = 5,
    n_slots: int = 24,
    n_samples: int = 365,
    seed: int = 0,
    g_low: float = 2.0,
    g_high: float = 3.0,
) -> DataSet:
    """Synthetic satisfaction parameters: i.i.d. uniform on [g_low, g_high]."""
    if g_low > g_high:
        raise ValueError(f"g_low = {g_low} exceeds g_high = {g_high}")
    if g_low < 0:
        raise ValueError("satisfaction parameters must be nonnegative")
    rng = np.random.default_rng(seed)
    values = rng.uniform(g_low, g_high, size=(n_samples, n_consumers * n_slots))
    return DataSet(values)


def metric_ops(params: RtpParams) -> MetricOps:
    """Callable bundle for the engine (closed-form assignment and representatives)."""

    def feasible(decisions) -> np.ndarray:
        x = as_decisions(decisions, params.n_slots, name="price profile")
        return np.all(x >= -FEASIBILITY_TOL, axis=1)

    return MetricOps(
        utilities=lambda x, values: f1_batch(x, values, params),
        assign=lambda values, reps: assign_batch(values, reps, params),
        best_representatives=lambda values, assignment, clusters: (
            closed_form_representatives(values, assignment, clusters, params)
        ),
        perfect_decisions=lambda values: perfect_prices(values, params),
        feasible=feasible,
    )
