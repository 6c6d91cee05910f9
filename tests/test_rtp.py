import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmoc.core import (
    BLOCK_FLOATS,
    DimensionError,
    DmocError,
    EmptyClusterError,
    RtpParams,
    cluster_means,
    cluster_members,
    nearest_centers,
)
from dmoc import rtp

from oracles import rtp_numeric_representative


def params(**kwargs):
    defaults = dict(n_consumers=1, n_slots=1, alpha=0.5, a=0.0, b=0.0, c=0.0)
    defaults.update(kwargs)
    return RtpParams(**defaults)


def f1_one_shot(x, values, p):
    """The utility from the consumer responses, in one batch expression."""
    g = values.reshape(values.shape[0], p.n_slots, p.n_consumers)
    price = np.atleast_2d(x)[..., None]
    ell = np.where(price > g, 0.0, (g - price) / p.alpha)
    quad, sat = g * ell - 0.5 * p.alpha * ell**2, g**2 / (2.0 * p.alpha)
    u = np.where(ell <= g / p.alpha, quad, sat)
    load = ell.sum(axis=-1)
    return (u.sum(axis=-1) - p.a * load**2 - p.b * load - p.c).sum(axis=-1)


def f1_literal(x, g, p):
    """The utility of one price profile for one stacked sample, consumer by consumer."""
    total = 0.0
    for t in range(p.n_slots):
        load = 0.0
        welfare = 0.0
        for k in range(p.n_consumers):
            gk = g[t * p.n_consumers + k]
            ell = 0.0 if x[t] > gk else (gk - x[t]) / p.alpha
            welfare += rtp.consumer_utility(ell, gk, p.alpha)
            load += ell
        total += welfare - p.a * load**2 - p.b * load - p.c
    return total


class TestConsumerSide:
    def test_utility_interior(self):
        assert rtp.consumer_utility(1.0, 2.0, 0.5) == 1.75

    def test_utility_saturated(self):
        assert rtp.consumer_utility(5.0, 2.0, 0.5) == 4.0

    def test_utility_zero_load(self):
        assert rtp.consumer_utility(0.0, 2.0, 0.5) == 0.0

    def test_utility_continuous_at_kink(self):
        # at ell = g/alpha both branches equal g^2/(2 alpha) exactly
        g, alpha = 2.0, 0.5
        kink = g / alpha
        quad = g * kink - 0.5 * alpha * kink**2
        assert rtp.consumer_utility(kink, g, alpha) == quad == g**2 / (2 * alpha)

    def test_best_response(self):
        assert rtp.best_response_load(1.0, 2.0, 0.5) == 2.0
        assert rtp.best_response_load(3.0, 2.0, 0.5) == 0.0
        assert rtp.best_response_load(2.0, 2.0, 0.5) == 0.0


class TestF1:
    def test_free_price_single_consumer(self):
        assert rtp.f1_batch([0.0], [2.0], params())[0] == 4.0

    def test_constant_cost(self):
        assert rtp.f1_batch([0.0], [2.0], params(c=10.0))[0] == -6.0

    def test_price_equal_to_g_kills_consumption(self):
        p = params(n_consumers=2, n_slots=3, c=7.0)
        g = np.full(6, 2.5)
        assert rtp.f1_batch(np.full(3, 2.5), g, p)[0] == pytest.approx(-3 * 7.0)

    def test_malformed_prices_rejected(self):
        p = params(n_consumers=2, n_slots=3)
        g = np.full(6, 2.5)
        for x in (np.ones(2), np.ones((1, 2, 3))):
            with pytest.raises(DimensionError):
                rtp.f1_batch(x, g, p)
        with pytest.raises(DmocError, match="non-finite"):
            rtp.f1_batch([1.0, np.nan, 1.0], g, p)

    def test_overpricing_clamps_and_warns(self, caplog):
        with caplog.at_level("WARNING", logger="dmoc"):
            value = rtp.f1_batch([3.0], [2.0], params())[0]
        assert value == 0.0
        assert any("over-pricing" in r.message for r in caplog.records)

    def test_blocked_batch_equals_one_shot(self):
        one_shot = f1_one_shot
        p = params(n_consumers=5, n_slots=24, a=0.3, b=0.1, c=10.0)
        n = 3 * (BLOCK_FLOATS // p.data_dim) + 5
        rng = np.random.default_rng(12)
        values = rng.uniform(2.0, 3.0, size=(n, p.data_dim))
        shared = rng.uniform(1.5, 2.5, size=24)  # over-prices some consumers
        paired = rng.uniform(1.5, 2.5, size=(n, 24))
        for x in (shared, paired):
            np.testing.assert_array_equal(rtp.f1_batch(x, values, p), one_shot(x, values, p))
        # paired prices for one sample
        one = values[:1]
        np.testing.assert_array_equal(rtp.f1_batch(paired, one, p), one_shot(paired, one, p))
        with pytest.raises(DimensionError, match="price profiles for"):
            rtp.f1_batch(paired[:-1], values, p)

    def test_overpriced_batch_warns_once_per_call(self, caplog):
        p = params(n_consumers=5, n_slots=24)
        values = np.full((5 * (BLOCK_FLOATS // p.data_dim) + 1, p.data_dim), 2.0)
        with caplog.at_level("WARNING", logger="dmoc"):
            rtp.f1_batch(np.full(24, 3.0), values, p)
            rtp.f1_batch(np.full(24, 1.0), values, p)
        assert sum("over-pricing" in r.message for r in caplog.records) == 1

    def test_matches_literal_loop_implementation(self):
        # pins the consumer-fastest stacking (g_1(1)..g_K(1), g_1(2), ...)
        p = params(n_consumers=3, n_slots=4, a=0.1, b=0.2, c=5.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = rng.uniform(0.0, 3.5, size=4)
            g = rng.uniform(0.0, 4.0, size=12)
            assert rtp.f1_batch(x, g, p)[0] == pytest.approx(f1_literal(x, g, p), abs=1e-12)


@st.composite
def priced_samples(draw):
    """Parameters, samples g in [0, 4] and one price profile per sample whose slots
    sit inside the regime (0 <= x_t <= min_k g), on its edges (x_t = min_k g, x_t = 0),
    just outside it (x_t = -1e-10) or over-price a consumer (x_t = g of any consumer,
    or up to 4.5)."""
    k, t, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p = RtpParams(
        n_consumers=k, n_slots=t, alpha=draw(st.floats(0.01, 4.0)),
        a=draw(st.floats(0.0, 4.0)), b=draw(st.floats(0.0, 4.0)), c=draw(st.floats(0.0, 4.0)),
    )
    unit = st.floats(0.0, 1.0)
    g = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=n * k * t, max_size=n * k * t)))
    slots = g.reshape(n, t, k)
    least = slots.min(axis=-1)
    x = np.empty((n, t))
    for i in range(n):
        for s in range(t):
            kind = draw(st.sampled_from(("inside", "least", "zero", "negative", "any g", "high")))
            x[i, s] = {
                "inside": lambda: draw(unit) * least[i, s],
                "least": lambda: least[i, s],
                "zero": lambda: 0.0,
                "negative": lambda: -1e-10,
                "any g": lambda: slots[i, s, draw(st.integers(0, k - 1))],
                "high": lambda: 4.5 * draw(unit),
            }[kind]()
    return p, g.reshape(n, k * t), x


class TestSampleRows:
    def test_layout(self):
        p = params(n_consumers=3, n_slots=4)
        values = np.random.default_rng(1).uniform(0.0, 4.0, size=(7, 12))
        rows = rtp.sample_rows(values, p)
        slots = values.reshape(7, 4, 3)
        assert rows.shape == (7, 12 + 2 * 4 + 1)
        np.testing.assert_array_equal(rows[:, :12], values)
        np.testing.assert_array_equal(rows[:, 12:16], slots.sum(axis=-1))
        np.testing.assert_array_equal(rows[:, 16:20], slots.min(axis=-1))
        np.testing.assert_allclose(rows[:, 20], (values**2).sum(axis=1), rtol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(priced_samples())
    def test_row_utility_matches_literal_loop_inside_and_one_shot_outside(self, case):
        p, values, x = case
        rows = rtp.sample_rows(values, p)
        u = rtp.row_utilities(x, rows, p)
        slots = values.reshape(values.shape[0], p.n_slots, p.n_consumers)
        inside = ((x >= 0) & (x <= slots.min(axis=-1))).all(axis=1)
        for i in np.flatnonzero(inside):
            load = (slots[i].sum(axis=-1) - p.n_consumers * x[i]) / p.alpha
            # the size of the terms that cancel in the utility
            scale = (values[i] ** 2).sum() / (2 * p.alpha) + (
                p.n_consumers * x[i] ** 2 / (2 * p.alpha) + p.a * load**2 + p.b * load + p.c
            ).sum()
            assert abs(u[i] - f1_literal(x[i], values[i], p)) <= 1e-12 * scale
        np.testing.assert_array_equal(u[~inside], f1_one_shot(x, values, p)[~inside])
        # one shared price profile, and paired profiles for one sample
        np.testing.assert_array_equal(
            rtp.row_utilities(x[0], rows, p), [rtp.row_utilities(x[0], r[None], p)[0] for r in rows]
        )
        np.testing.assert_array_equal(
            rtp.row_utilities(x, rows[:1], p), [rtp.row_utilities(y, rows[:1], p)[0] for y in x]
        )

    def test_blocked_outside_pairs_equal_one_shot(self, caplog):
        p = params(n_consumers=5, n_slots=24, a=0.3, b=0.2, c=10.0)
        rng = np.random.default_rng(4)
        n = 3 * (BLOCK_FLOATS // p.data_dim) + 5
        values = rng.uniform(2.0, 3.0, size=(n, p.data_dim))
        rows = rtp.sample_rows(values, p)
        for outside in (np.ones(n, dtype=bool), rng.random(n) < 0.4):
            # in-regime prices, with one slot over-priced for every consumer on the outside rows
            x = rng.uniform(0.0, 1.9, size=(n, 24))
            x[outside, rng.integers(24)] = 3.5
            caplog.clear()
            with caplog.at_level("WARNING", logger="dmoc"):
                u = rtp.row_utilities(x, rows, p)
            np.testing.assert_array_equal(u[outside], f1_one_shot(x, values, p)[outside])
            assert sum("over-pricing" in r.message for r in caplog.records) == 1
            assert np.all(np.isfinite(u))

    def test_rules_on_rows_are_bit_identical_to_the_slot_means(self):
        p = params(n_consumers=5, n_slots=24, a=0.3, b=0.2, c=10.0)
        rng = np.random.default_rng(9)
        values = rng.uniform(2.0, 3.0, size=(2 * (BLOCK_FLOATS // p.data_dim) + 3, p.data_dim))
        rows = rtp.sample_rows(values, p)
        slot_means = values.reshape(-1, 24, 5).mean(axis=-1)
        reps = rng.uniform(1.0, 2.0, size=(7, 24))
        c = rtp.derived_constants(p)
        transformed = c.kappa * values.reshape(-1, 24, 5).sum(axis=-1) + c.beta
        np.testing.assert_array_equal(rtp.transform_dataset(values, p), transformed)
        np.testing.assert_array_equal(rtp.transform_dataset(values[3], p), transformed[3:4])
        assignment = rtp.row_assignment(rows, reps, p)
        np.testing.assert_array_equal(assignment, nearest_centers(transformed, reps))
        clusters = np.unique(assignment)
        groups = cluster_members(assignment, clusters)
        expected = rtp._optimal_price(cluster_means(slot_means, groups), p)
        np.testing.assert_array_equal(rtp.row_representatives(rows, groups, p), expected)
        # the per-cluster entry point, with members in any order and repeated
        for m, price in zip(clusters, expected):
            members = np.flatnonzero(assignment == m)
            np.testing.assert_array_equal(rtp.closed_form_representative(values, members, p), price)
            np.testing.assert_array_equal(
                rtp.closed_form_representative(values, np.r_[members[::-1], members[0]], p),
                rtp._optimal_price(slot_means[np.r_[members[::-1], members[0]]].mean(axis=0), p),
            )
        np.testing.assert_array_equal(rtp.row_prices(rows, p), rtp._optimal_price(slot_means, p))

    def test_raw_samples_rejected_by_the_ops(self):
        p = params(n_consumers=3, n_slots=4, a=0.1)
        ops = rtp.metric_ops(p)
        values = np.random.default_rng(2).uniform(2.0, 3.0, size=(5, 12))
        x = np.ones(4)
        for call in (
            lambda v: ops.utilities(x, v),
            lambda v: ops.assign(v, x[None]),
            lambda v: ops.best_representatives(v, [np.arange(5)]),
            ops.perfect_decisions,
        ):
            with pytest.raises(DimensionError, match="sample rows have shape"):
                call(values)
            call(ops.prepare(values))
        with pytest.raises(DimensionError, match="2-D"):
            ops.prepare(values[0])
        with pytest.raises(DimensionError, match=r"expected K\*T = 12"):
            rtp.sample_rows(values[:, :10], p)


class TestDerivedConstants:
    def test_reference_values(self):
        c = rtp.derived_constants(params(n_consumers=5, n_slots=4, a=0.1))
        assert c.a_tilde == pytest.approx(15.0)
        assert c.kappa == pytest.approx(0.5 / 3.75)
        assert c.beta == 0.0

    def test_zero_b_zero_beta(self):
        assert rtp.derived_constants(params(a=0.3)).beta == 0.0

    def test_zero_a_zero_kappa(self):
        assert rtp.derived_constants(params(b=0.4)).kappa == 0.0


class TestAffineTransform:
    def test_slot_sums(self):
        # consumer-fastest layout: slot 1 holds (1, 3), slot 2 holds (2, 2), both summing to 4
        p = params(n_consumers=2, n_slots=2, a=0.1, b=0.3)
        c = rtp.derived_constants(p)
        out = rtp.transform_dataset([1.0, 3.0, 2.0, 2.0], p)[0]
        np.testing.assert_allclose(out, c.kappa * np.array([4.0, 4.0]) + c.beta)
        out = rtp.transform_dataset([1.0, 2.0, 3.0, 5.0], p)[0]
        np.testing.assert_allclose(out, c.kappa * np.array([3.0, 8.0]) + c.beta)

    def test_zero_kappa_gives_constant(self):
        p = params(n_consumers=3, n_slots=2, b=1.0)
        c = rtp.derived_constants(p)
        out = rtp.transform_dataset(np.arange(6, dtype=float), p)[0]
        np.testing.assert_allclose(out, np.full(2, c.beta))

    def test_identity_case(self):
        # one consumer: each slot's sum is the sample entry itself
        p = params(n_consumers=1, n_slots=3, a=0.2, b=0.1)
        c = rtp.derived_constants(p)
        g = np.array([0.7, 1.1, 2.9])
        np.testing.assert_allclose(rtp.transform_dataset(g, p)[0], c.kappa * g + c.beta)


class TestAssignment:
    def test_exact_match(self):
        p = params(n_consumers=2, n_slots=2, a=0.1)
        c = rtp.derived_constants(p)
        g = np.array([1.0, 3.0, 2.0, 2.0])
        z = rtp.transform_dataset(g, p)[0]
        reps = np.array([z, z + 3.0])
        assert rtp.assign_batch(g, reps, p)[0] == 0

    def test_single_rep(self):
        p = params(n_consumers=2, n_slots=2, a=0.1)
        assert rtp.assign_batch(np.ones(4), np.ones((1, 2)), p)[0] == 0

    def test_ties_go_to_the_lowest_index(self):
        p = params(n_consumers=2, n_slots=2, a=0.1)
        g = np.array([[1.0, 3.0, 2.0, 2.0], [2.0, 2.0, 3.0, 3.0]])
        z = rtp.transform_dataset(g, p)
        reps = np.array([z[1] + 0.5, z[0], z[0], z[1], z[1]])
        np.testing.assert_array_equal(rtp.assign_batch(g, reps, p), [1, 3])

    def test_argmax_equivalence_with_direct_f1(self):
        p = params(n_consumers=3, n_slots=2, a=0.15, b=0.05, c=1.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rng.uniform(2.0, 3.0, size=6)
            reps = rng.uniform(0.1, 1.9, size=(4, 2))
            direct = int(np.argmax([rtp.f1_batch(x, g, p)[0] for x in reps]))
            assert rtp.assign_batch(g, reps, p)[0] == direct


class TestClosedFormRepresentative:
    def test_single_member_value(self):
        p = params(n_consumers=2, n_slots=1, a=0.1)
        x = rtp.closed_form_representative(np.array([[2.0, 3.0]]), [0], p)
        assert x[0] == pytest.approx(0.25 / 0.225)

    def test_matches_numeric_maximizer(self):
        p = params(n_consumers=2, n_slots=2, a=0.12, b=0.3, c=2.0)
        rng = np.random.default_rng(4)
        members = rng.uniform(2.0, 3.0, size=(5, 4))
        closed = rtp.closed_form_representative(members, range(5), p)
        numeric = rtp_numeric_representative(members, p)
        np.testing.assert_allclose(closed, numeric, atol=1e-6)

    def test_small_a_limit_is_b(self):
        p = params(n_consumers=5, n_slots=3, a=1e-8, b=0.7)
        members = np.random.default_rng(2).uniform(2.0, 3.0, size=(4, 15))
        x = rtp.closed_form_representative(members, range(4), p)
        np.testing.assert_allclose(x, 0.7, atol=1e-6)

    def test_large_k_tracks_cluster_average(self):
        k = 10_000
        p = params(n_consumers=k, n_slots=1, a=0.1)
        g = np.random.default_rng(3).uniform(2.0, 3.0, size=(1, k))
        x = rtp.closed_form_representative(g, [0], p)
        gbar = g.mean()
        assert 0.999 <= x[0] / gbar <= 1.001

    def test_empty_members(self):
        with pytest.raises(EmptyClusterError):
            rtp.closed_form_representative(np.ones((2, 2)), [], params(n_consumers=2, a=0.1, n_slots=1))

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            rtp.closed_form_representative(np.ones((1, 1)), [0], params())

    @pytest.mark.parametrize("index", [-1, 10, 1.5])
    def test_member_index_outside_the_rows_rejected(self, index):
        # a negative index would wrap around to the last row and 1.5 be truncated to row 1
        values = np.random.default_rng(5).uniform(2.0, 3.0, size=(10, 2))
        with pytest.raises(DmocError, match=rf"cluster 0: member index {index} is not"):
            rtp.closed_form_representative(values, [0, index], params(n_consumers=2, a=0.1, n_slots=1))


class TestScenario:
    def test_degenerate_support(self):
        data = rtp.generate_rtp_scenario(2, 3, 10, seed=0, g_low=2.5, g_high=2.5)
        assert np.all(data.values == 2.5)

    def test_sample_mean(self):
        data = rtp.generate_rtp_scenario(10, 10, 1000, seed=1, g_low=2.0, g_high=3.0)
        n_entries = data.values.size
        se = np.sqrt(1.0 / 12.0) / np.sqrt(n_entries)
        assert abs(data.values.mean() - 2.5) < 3 * se

    def test_seed_reproducibility(self):
        a = rtp.generate_rtp_scenario(3, 4, 20, seed=9)
        b = rtp.generate_rtp_scenario(3, 4, 20, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_inverted_support(self):
        with pytest.raises(ValueError):
            rtp.generate_rtp_scenario(2, 2, 5, seed=0, g_low=3.0, g_high=2.0)

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rtp.generate_rtp_scenario(2, 2, 5, seed=0, g_low=-1.0, g_high=2.0)


class TestDecompositionProperty:
    def test_f1_plus_quadratic_term_is_price_invariant(self):
        # the completed square leaves a price-independent remainder
        p = params(n_consumers=4, n_slots=3, a=0.2, b=0.1, c=3.0)
        c = rtp.derived_constants(p)
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = rng.uniform(2.0, 3.0, size=12)
            z = rtp.transform_dataset(g, p)[0]
            x1, x2 = rng.uniform(0.0, 1.9, size=(2, 3))
            lhs = rtp.f1_batch(x1, g, p)[0] + c.a_tilde * ((z - x1) ** 2).sum()
            rhs = rtp.f1_batch(x2, g, p)[0] + c.a_tilde * ((z - x2) ** 2).sum()
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_closed_form_beats_perturbations(self):
        p = params(n_consumers=3, n_slots=2, a=0.15, b=0.2, c=1.5)
        rng = np.random.default_rng(5)
        members = rng.uniform(2.0, 3.0, size=(6, 6))
        star = rtp.closed_form_representative(members, range(6), p)
        best = rtp.f1_batch(star, members, p).sum()
        for _ in range(100):
            delta = rng.normal(size=2)
            perturbed = np.clip(star + 1e-3 * delta, 0.0, None)
            value = rtp.f1_batch(perturbed, members, p).sum()
            assert value <= best + 1e-12
