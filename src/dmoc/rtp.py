"""Real-time pricing metric and its closed-form clustering rules.

The provider picks a per-slot price profile ``x`` (length T). A sample ``g``
stacks the satisfaction parameters of K consumers over T slots as
``(g_1(1), ..., g_K(1), ..., g_1(T), ..., g_K(T))``. Welfare is the sum of
consumer utilities at their best-response loads minus a quadratic procurement
cost ``a*L^2 + b*L + c`` per slot. Both the best assignment rule and the best
representative price admit closed forms.

When no price exceeds any consumer's parameter, a sample enters the utility,
the assignment and the tariffs only through its per-slot sums, its per-slot
minima (the regime test) and its squared norm. ``sample_rows`` computes these
once per run (``MetricOps.prepare``) and the ``row_*`` rules read them. The four
raw-sample forms ``f1_batch``, ``assign_batch``, ``transform_dataset`` and
``closed_form_representative`` are those rules on ``sample_rows`` of their samples.
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
    _indices,
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


def sample_rows(values, params: RtpParams) -> np.ndarray:
    """The samples in the metric's working form, one row per sample: one
    (N, K*T + 2T + 1) array ``[g | S | m | q]`` of the stacked sample g, its
    per-slot sums S_t = sum_k g_t,k, its per-slot minima m_t = min_k g_t,k and
    its squared norm q = ||g||^2. Every pricing rule reads a sample through these."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise DimensionError(f"samples must form a 2-D (N, K*T) array, got shape {v.shape}")
    slots = _stack_to_slots(v, params)
    width, t = params.data_dim, params.n_slots
    rows = np.empty((v.shape[0], width + 2 * t + 1))
    rows[:, :width] = v
    rows[:, width : width + t] = slots.sum(axis=-1)
    # one consumer at a time, in place: a reduction over the short K axis is several times slower
    least = rows[:, width + t : width + 2 * t]
    least[...] = slots[..., 0]
    for k in range(1, params.n_consumers):
        np.minimum(least, slots[..., k], out=least)
    np.einsum("ij,ij->i", v, v, out=rows[:, -1])
    return rows


def _row_parts(rows, params: RtpParams) -> tuple:
    """Views (g, S, m, q) of ``sample_rows`` output (or a row subset of it)."""
    width, t = params.data_dim, params.n_slots
    if rows.ndim != 2 or rows.shape[1] != width + 2 * t + 1:
        raise DimensionError(
            f"sample rows have shape {rows.shape}, expected (n, K*T + 2T + 1) = "
            f"(n, {width + 2 * t + 1}); raw samples go through sample_rows first"
        )
    return rows[:, :width], rows[:, width : width + t], rows[:, width + t : width + 2 * t], rows[:, -1]


def _direct_utilities(x: np.ndarray, g: np.ndarray, params: RtpParams, which=None) -> np.ndarray:
    """Utility of (price, sample) pairs from the consumer responses, in row blocks:
    of the one price profile in ``x`` (1, T) or of row i of ``x`` for sample row i,
    for every pair or for the pairs ``which`` (an index array), gathered block by block."""
    g = _stack_to_slots(g, params)
    n = max(g.shape[0], x.shape[0]) if which is None else which.size
    out = np.empty(n)
    for block in row_blocks(n, params.data_dim):
        rows = block if which is None else which[block]
        price = (x if x.shape[0] == 1 else x[rows])[..., None]
        # a contiguous block: the ufunc loops run slower on the strided g columns of the rows
        g_rows = g if g.shape[0] == 1 else np.ascontiguousarray(g[rows])
        ell = best_response_load(price, g_rows, params.alpha)
        u = consumer_utility(ell, g_rows, params.alpha)
        load = ell.sum(axis=-1)
        per_slot = u.sum(axis=-1) - params.a * load**2 - params.b * load - params.c
        out[block] = per_slot.sum(axis=-1)
    return out


def row_utilities(x, rows: np.ndarray, params: RtpParams) -> np.ndarray:
    """Welfare-minus-cost utility for each of the ``sample_rows``: of the one price
    profile ``x`` (T,), or of row i of an (n, T) ``x`` for row i.

    A pair priced within every slot's consumers (0 <= x_t <= m_t) has
    ||g||^2/(2 alpha) - sum_t [K x_t^2/(2 alpha) + a L_t^2 + b L_t + c] with the
    load L_t = (S_t - K x_t)/alpha, O(T) work. Every other pair (over-priced, or a
    negative price, where the consumer saturates) goes through the consumer
    responses on the g columns, and a batch with no pair inside goes there
    whole; an over-priced batch logs one warning per call.
    """
    x = as_decisions(x, params.n_slots, name="price profile")
    g, sums, least, squares = _row_parts(rows, params)
    n = rows.shape[0] if x.shape[0] == 1 else x.shape[0]
    if rows.shape[0] not in (1, n):
        raise DimensionError(f"{x.shape[0]} price profiles for {rows.shape[0]} samples")
    outside = np.flatnonzero(~((x >= 0) & (x <= least)).all(axis=1))
    if outside.size == n:
        out = _direct_utilities(x, g, params)
    else:
        k, alpha = params.n_consumers, params.alpha
        load = (sums - k * x) / alpha
        per_slot = k * x**2 / (2.0 * alpha) + params.a * load**2 + params.b * load + params.c
        out = squares / (2.0 * alpha) - per_slot.sum(axis=1)
        if outside.size:
            out[outside] = _direct_utilities(x, g, params, outside)
    if outside.size and np.any(x > least):
        logger.warning("over-pricing: price exceeds a satisfaction parameter; load clamped to 0")
    return out


def f1_batch(x, values: np.ndarray, params: RtpParams) -> np.ndarray:
    """``row_utilities`` of raw (n, K*T) samples (or one (K*T,) sample)."""
    return row_utilities(x, sample_rows(np.atleast_2d(values), params), params)


@dataclass(frozen=True)
class RtpDerivedConstants:
    """Auxiliary scalars of the quadratic completion: a_tilde, kappa, beta."""

    a_tilde: float
    kappa: float
    beta: float


def derived_constants(params: RtpParams) -> RtpDerivedConstants:
    """a_tilde = K^2/alpha^2 * (a + alpha/(2K)), kappa = a*K/(alpha^2*a_tilde), beta = b*K/(2*alpha*a_tilde)."""
    K, alpha = params.n_consumers, params.alpha
    a_tilde = (K**2 / alpha**2) * (params.a + alpha / (2.0 * K))
    kappa = params.a * K / (alpha**2 * a_tilde)
    beta = params.b * K / (2.0 * alpha * a_tilde)
    return RtpDerivedConstants(a_tilde=a_tilde, kappa=kappa, beta=beta)


def _transformed_sums(rows: np.ndarray, params: RtpParams) -> np.ndarray:
    """kappa * S + beta of the ``sample_rows``, (n, T): the space of the closed-form assignment."""
    c = derived_constants(params)
    return c.kappa * _row_parts(rows, params)[1] + c.beta


def transform_dataset(values, params: RtpParams) -> np.ndarray:
    """Affine transform applied row-wise: (N, K*T) -> (N, T), kappa * S + beta."""
    return _transformed_sums(sample_rows(np.atleast_2d(values), params), params)


def row_assignment(rows: np.ndarray, reps, params: RtpParams) -> np.ndarray:
    """Closed-form assignment of the ``sample_rows``: nearest representative to
    kappa * S + beta (ties to the lowest index)."""
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    return nearest_centers(_transformed_sums(rows, params), reps)


def assign_batch(values, reps, params: RtpParams) -> np.ndarray:
    """``row_assignment`` of raw (N, K*T) samples (or one (K*T,) sample)."""
    return row_assignment(sample_rows(np.atleast_2d(values), params), reps, params)


def _optimal_price(gbar: np.ndarray, params: RtpParams) -> np.ndarray:
    """x*(t) = (a * gbar(t) + alpha*b/(2K)) / (a + alpha/(2K)), for any batch shape of gbar."""
    if params.a == 0 and params.b == 0:
        raise ValueError("representative price is undefined when a = 0 and b = 0")
    half = params.alpha / (2.0 * params.n_consumers)
    return (params.a * gbar + half * params.b) / (params.a + half)


def closed_form_representative(data, member_indices, params: RtpParams) -> np.ndarray:
    """Best representative price profile for a cluster.

    x*(t) = (a * gbar(t) + alpha*b/(2K)) / (a + alpha/(2K)) where gbar(t) is the
    cluster-average satisfaction parameter at slot t. Requires a > 0 or b > 0, and
    member indices that are integer rows of ``data`` (DmocError otherwise).
    """
    members = np.asarray(list(member_indices))
    if members.size == 0:
        raise EmptyClusterError("cannot compute a representative for an empty cluster")
    values = data.values if isinstance(data, DataSet) else np.atleast_2d(np.asarray(data, dtype=float))
    rows = sample_rows(values[_indices(members, values.shape[0], "cluster 0: member index")], params)
    return row_representatives(rows, [np.arange(members.size)], params)[0]


def row_representatives(rows: np.ndarray, groups, params: RtpParams) -> np.ndarray:
    """(k, T) array of ``closed_form_representative`` for each of the k clusters, whose
    members are the ``sample_rows`` indexed by ``groups[i]``: the optimal price of the
    cluster mean of S / K."""
    slot_means = _row_parts(rows, params)[1] / params.n_consumers
    return _optimal_price(cluster_means(slot_means, groups), params)


def row_prices(rows: np.ndarray, params: RtpParams) -> np.ndarray:
    """Per-row optimal price profiles of the ``sample_rows``, as an (N, T) array:
    each row is its own cluster."""
    return _optimal_price(_row_parts(rows, params)[1] / params.n_consumers, params)


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
    """Callable bundle for the engine (closed-form assignment and representatives),
    working on ``sample_rows``."""

    def feasible(decisions) -> np.ndarray:
        x = as_decisions(decisions, params.n_slots, name="price profile")
        return np.all(x >= -FEASIBILITY_TOL, axis=1)

    return MetricOps(
        prepare=lambda values: sample_rows(values, params),
        utilities=lambda x, rows: row_utilities(x, rows, params),
        assign=lambda rows, reps: row_assignment(rows, reps, params),
        best_representatives=lambda rows, groups: row_representatives(rows, groups, params),
        perfect_decisions=lambda rows: row_prices(rows, params),
        feasible=feasible,
    )
