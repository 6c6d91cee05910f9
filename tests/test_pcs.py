import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmoc.core import DimensionError, EmptyClusterError, MetricSpec, PcsParams, SolverError
from dmoc import EngineConfig, cli, pcs, run_dmoc
from dmoc.data import gen_synthetic_pcs, save_profiles

from oracles import (
    finite_difference_gradient,
    grid_min_pcs,
    pcs_cluster_objective,
    peak_descent_representative,
)


def params(**kwargs):
    defaults = dict(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)
    defaults.update(kwargs)
    return PcsParams(**defaults)


class TestF2:
    def test_peak(self):
        assert pcs.f2([1.0, 0.0], [2.0, 1.0], params()) == -3.0

    def test_total_energy(self):
        assert pcs.f2([1.0, 0.0], [2.0, 1.0], params(p=1)) == -4.0

    def test_euclidean(self):
        assert pcs.f2([0.0, 0.0], [3.0, 4.0], params(p=2)) == -5.0

    @given(st.floats(0.1, 5.0))
    def test_weight_scaling_covariance(self, gamma):
        base = params(weights=[1.0, 0.5])
        scaled = params(weights=[gamma, 0.5 * gamma])
        x, g = [1.0, 1.0], [2.0, 0.5]
        assert pcs.f2(x, g, scaled) == pytest.approx(gamma * pcs.f2(x, g, base))


def assign(g, reps, p, approx=False):
    """The engine's assignment rule (approx: the p = 2 surrogate) for one sample."""
    return int(pcs.metric_ops(p, approx_assignment=approx).assign(np.atleast_2d(g), reps)[0])


class TestAssignment:
    def test_peaks_complement(self):
        reps = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert assign([0.0, 3.0], reps, params()) == 0

    def test_identical_reps_tie_break(self):
        reps = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert assign([0.5, 0.5], reps, params()) == 0

    def test_p2_is_nearest_in_levels(self):
        p2 = params(p=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            reps = rng.uniform(0, 2, size=(3, 2))
            g = rng.uniform(0, 3, size=2)
            by_norm = int(np.argmin([np.linalg.norm(x + g) for x in reps]))
            assert assign(g, reps, p2) == by_norm

    def test_approx_example(self):
        reps = np.array([[2.0, 0.0], [0.0, 2.0]])
        # ||(2,3)||_2 = sqrt(13) < ||(0,5)||_2 = 5
        assert assign([0.0, 3.0], reps, params(), approx=True) == 0

    def test_approx_coincides_at_p2(self):
        p2 = params(p=2)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            reps = rng.uniform(0, 2, size=(4, 2))
            g = rng.uniform(0, 3, size=2)
            assert assign(g, reps, p2, approx=True) == assign(g, reps, p2)

    def test_single_rep(self):
        assert assign([1.0, 1.0], np.ones((1, 2)), params(), approx=True) == 0

    def test_weight_scaling_keeps_argmin(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.uniform(0.1, 2.0, size=2)
            gamma = float(rng.uniform(0.2, 4.0))
            reps = rng.uniform(0, 2, size=(3, 2))
            g = rng.uniform(0, 3, size=2)
            a = assign(g, reps, params(weights=w))
            b = assign(g, reps, params(weights=gamma * w))
            assert a == b


class TestCheapestSlot:
    def test_unique_minimum_weight(self):
        p = params(n_slots=3, p=1, energy=2.0, x_max=3.0, weights=[2.0, 1.0, 3.0])
        np.testing.assert_array_equal(pcs.cheapest_slot_schedule(p), [0.0, 2.0, 0.0])

    def test_tie_goes_to_lowest_slot(self):
        p = params(n_slots=3, p=1, energy=1.0, x_max=3.0, weights=[1.0, 1.0, 2.0])
        np.testing.assert_array_equal(pcs.cheapest_slot_schedule(p), [1.0, 0.0, 0.0])

    def test_spill_into_next_cheapest(self):
        p = params(n_slots=3, p=1, energy=5.0, x_max=2.0, weights=[3.0, 1.0, 2.0])
        np.testing.assert_array_equal(pcs.cheapest_slot_schedule(p), [1.0, 2.0, 2.0])

    def test_members_are_irrelevant(self):
        p = params(n_slots=2, p=1, energy=1.5, x_max=2.0, weights=[1.0, 4.0])
        a = pcs.solve_representative(np.array([[3.0, 0.0]]), [0], p)
        b = pcs.solve_representative(np.array([[0.0, 3.0], [1.0, 1.0]]), [0, 1], p)
        np.testing.assert_array_equal(a, b)


class TestEpigraphLP:
    def test_single_member(self):
        x = pcs.epigraph_lp_representative(np.array([[3.0, 0.0]]), [0], params())
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-9)
        assert pcs_cluster_objective(x, [[3.0, 0.0]], [1.0, 1.0], math.inf) == pytest.approx(3.0)

    def test_two_member_objective_matches_grid(self):
        members = np.array([[3.0, 0.0], [0.0, 3.0]])
        x = pcs.epigraph_lp_representative(members, [0, 1], params())
        obj = pcs_cluster_objective(x, members, [1.0, 1.0], math.inf)
        grid_obj, _ = grid_min_pcs(members, [1.0, 1.0], math.inf, 2.0, 2.0)
        assert obj == pytest.approx(8.0, abs=1e-9)
        assert obj == pytest.approx(grid_obj, abs=1e-9)

    def test_saturated_energy(self):
        p = params(n_slots=3, energy=6.0, x_max=2.0)
        x = pcs.epigraph_lp_representative(np.array([[1.0, 0.5, 2.0]]), [0], p)
        np.testing.assert_allclose(x, np.full(3, 2.0), atol=1e-9)

    def test_random_t2_instances_match_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            members = rng.uniform(0.0, 3.0, size=(n, 2))
            w = rng.uniform(0.5, 1.5, size=2)
            p = params(weights=w)
            x = pcs.epigraph_lp_representative(members, range(n), p)
            lp_obj = pcs_cluster_objective(x, members, w, math.inf)
            grid_obj, _ = grid_min_pcs(members, w, math.inf, p.energy, p.x_max)
            assert lp_obj <= grid_obj + 1e-9
            assert grid_obj - lp_obj <= 0.01 * n * w.max() + 1e-9

    def test_finite_p_rejected(self):
        with pytest.raises(ValueError):
            pcs.epigraph_lp_representative(np.ones((1, 2)), [0], params(p=2))

    def test_empty_members(self):
        with pytest.raises(EmptyClusterError):
            pcs.epigraph_lp_representative(np.ones((1, 2)), [], params())


class TestInteriorPoint:
    """The interior-point solver against HiGHS and the naive objective oracle."""

    @staticmethod
    def assert_matches_highs(members, p):
        n = members.shape[0]
        x = pcs.interior_point_representative(members, range(n), p)
        assert pcs.metric_ops(p).feasible(x)
        f = pcs_cluster_objective(x, members, p.weights, math.inf)
        f_lp = pcs_cluster_objective(
            pcs.epigraph_lp_representative(members, range(n), p), members, p.weights, math.inf
        )
        # a feasible x is never better than the optimum; HiGHS may miss it by its tolerance
        assert f - f_lp <= 1e-8 * abs(f_lp) + 1e-12
        return x

    def test_random_domain(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            t, n = int(rng.integers(1, 25)), int(rng.integers(1, 301))
            x_max = float(rng.uniform(0.5, 4.0))
            p = params(
                n_slots=t, energy=float(rng.uniform(0.02, 0.98) * t * x_max), x_max=x_max,
                weights=rng.uniform(0.2, 3.0, size=t),
            )
            scale = 10.0 ** rng.uniform(-3, 3)
            self.assert_matches_highs(scale * rng.uniform(0.0, 5.0, size=(n, t)), p)

    def test_zero_weights(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            t = int(rng.integers(2, 25))
            w = rng.uniform(0.2, 3.0, size=t)
            w[rng.random(t) < 0.4] = 0.0
            p = params(n_slots=t, energy=float(rng.uniform(0.1, 0.9) * t * 2.0), x_max=2.0, weights=w)
            self.assert_matches_highs(rng.uniform(0.0, 5.0, size=(int(rng.integers(2, 200)), t)), p)
        p = params(n_slots=4, energy=3.0, x_max=2.0, weights=np.zeros(4))
        self.assert_matches_highs(rng.uniform(0.0, 5.0, size=(30, 4)), p)

    def test_energy_at_capacity(self):
        rng = np.random.default_rng(73)
        members = rng.uniform(0.0, 5.0, size=(50, 6))
        x = self.assert_matches_highs(members, params(n_slots=6, energy=12.0, x_max=2.0))
        np.testing.assert_array_equal(x, np.full(6, 2.0))
        for energy in (12.0 * (1 - 1e-9), 12.0 - 1e-3):
            p = params(n_slots=6, energy=energy, x_max=2.0, weights=rng.uniform(0.5, 1.5, size=6))
            self.assert_matches_highs(members, p)

    def test_identical_members(self):
        rng = np.random.default_rng(74)
        for t in (1, 5, 24):
            p = params(n_slots=t, energy=0.4 * t * 3.0, x_max=3.0, weights=rng.uniform(0.5, 2.0, size=t))
            g = rng.uniform(0.0, 5.0, size=t)
            x = self.assert_matches_highs(np.repeat(g[None, :], 120, axis=0), p)
            # the cluster of identical members has the member's own optimum
            single = pcs.water_fill_decisions(g, p)[0]
            assert pcs_cluster_objective(x, g[None, :], p.weights, math.inf) == pytest.approx(
                pcs_cluster_objective(single, g[None, :], p.weights, math.inf), rel=1e-8
            )

    def test_single_member(self):
        rng = np.random.default_rng(75)
        for t in (1, 2, 24):
            p = params(n_slots=t, energy=0.5 * t * 2.0, x_max=2.0, weights=rng.uniform(0.5, 2.0, size=t))
            self.assert_matches_highs(rng.uniform(0.0, 5.0, size=(1, t)), p)

    def test_t2_instances_match_grid(self):
        rng = np.random.default_rng(76)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            members = rng.uniform(0.0, 3.0, size=(n, 2))
            w = rng.uniform(0.5, 1.5, size=2)
            p = params(weights=w)
            x = pcs.interior_point_representative(members, range(n), p)
            obj = pcs_cluster_objective(x, members, w, math.inf)
            grid_obj, _ = grid_min_pcs(members, w, math.inf, p.energy, p.x_max)
            assert obj <= grid_obj * (1 + 1e-8)
            assert grid_obj - obj <= 0.01 * n * w.max() + 1e-9

    def test_finite_p_rejected(self):
        with pytest.raises(ValueError):
            pcs.interior_point_representative(np.ones((2, 2)), [0, 1], params(p=2))

    def test_empty_members(self):
        with pytest.raises(EmptyClusterError):
            pcs.interior_point_representative(np.ones((1, 2)), [], params())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda t: st.tuples(
                st.lists(st.floats(0.0, 3.0), min_size=t, max_size=t),
                st.lists(
                    st.lists(st.floats(0.0, 5.0), min_size=t, max_size=t), min_size=1, max_size=6
                ),
                st.floats(0.01, 1.0),
                st.floats(0.1, 4.0),
            )
        )
    )
    def test_result_is_feasible(self, case):
        weights, members, fill, x_max = case
        t = len(weights)
        p = params(n_slots=t, energy=fill * t * x_max, x_max=x_max, weights=weights)
        members = np.array(members)
        x = pcs.interior_point_representative(members, range(members.shape[0]), p)
        assert pcs.metric_ops(p).feasible(x)

    def test_routes(self, monkeypatch):
        calls = []
        solve = pcs.interior_point_representative

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pcs, "interior_point_representative", counting)
        members = np.random.default_rng(77).uniform(0.0, 3.0, size=(5, 2))
        pcs.solve_representative(members, range(5), params())
        assert len(calls) == 1

    def test_failure_is_a_solver_error(self, monkeypatch, tmp_path):
        # no iteration runs, so no iterate certifies a gap; no other solver is tried
        monkeypatch.setattr(pcs, "_IPM_MAX_ITERS", 0)
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=24, seed=3)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        with pytest.raises(SolverError) as err:
            run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=1))
        assert err.value.cluster is not None
        assert "duality gap" in str(err.value)

        path = tmp_path / "profiles.csv"
        save_profiles(data, path)
        code = cli.main([
            "cluster", "--data", str(path), "--clusters", "3", "--seed", "1",
            "--slots", "6", "--energy", "6.0", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == cli.EXIT_SOLVER


class TestProjection:
    @given(st.lists(st.floats(-4.0, 6.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_projection_feasible_and_idempotent(self, y):
        p = params(n_slots=4, energy=3.0, x_max=2.0)
        x = pcs.project_feasible(np.array(y), p)
        assert np.all(x >= -1e-12) and np.all(x <= p.x_max + 1e-12)
        assert x.sum() >= p.energy - 1e-9
        np.testing.assert_allclose(pcs.project_feasible(x, p), x, atol=1e-9)

    @given(st.lists(st.floats(-4.0, 6.0), min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_projection_is_nearest(self, y):
        p = params(n_slots=3, energy=2.5, x_max=2.0)
        y = np.array(y)
        x = pcs.project_feasible(y, p)
        rng = np.random.default_rng(0)
        candidates = pcs.project_feasible(rng.uniform(0, p.x_max, size=3), p)
        for _ in range(25):
            z = rng.uniform(0, p.x_max, size=3)
            if z.sum() < p.energy:
                continue
            assert np.linalg.norm(y - x) <= np.linalg.norm(y - z) + 1e-9


class TestSubgradientSolver:
    def test_agrees_with_lp(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = int(rng.integers(2, 7))
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.2, 2.0, size=T)
            x_max = float(rng.uniform(1.0, 3.0))
            p = params(
                n_slots=T, energy=float(rng.uniform(0.3, 0.9) * T * x_max),
                x_max=x_max, weights=w,
            )
            members = rng.uniform(0.0, 3.0, size=(n, T))
            x_lp = pcs.epigraph_lp_representative(members, range(n), p)
            x_sg = peak_descent_representative(members, p)
            f_lp = pcs_cluster_objective(x_lp, members, w, math.inf)
            f_sg = pcs_cluster_objective(x_sg, members, w, math.inf)
            assert abs(f_sg - f_lp) / abs(f_lp) < 1e-4

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(pcs, "_SUBGRADIENT_MAX_ITERS", 3)
        p = params(n_slots=4, p=2, energy=3.0, x_max=2.0)
        members = np.random.default_rng(1).uniform(0, 3, size=(3, 4))
        with pytest.raises(SolverError):
            pcs.projected_subgradient_representative(members, range(3), p)

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            pcs.projected_subgradient_representative(np.ones((2, 2)), [0, 1], params())

    def test_finite_p_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for p_exp in (2, 3):
            p = params(n_slots=4, p=p_exp, energy=2.0, x_max=3.0, weights=[1.0, 0.7, 1.3, 0.4])
            members = rng.uniform(0.5, 3.0, size=(3, 4))
            x = rng.uniform(0.2, 2.5, size=4)
            _, grad = pcs._value_and_subgradient(x, members, p)
            fd = finite_difference_gradient(
                lambda z: pcs_cluster_objective(z, members, p.weights, p_exp), x
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-4)

    def test_convexity_witness(self):
        rng = np.random.default_rng(10)
        for p_exp in (2, math.inf):
            p = params(n_slots=4, p=p_exp, energy=3.0, x_max=2.0)
            members = rng.uniform(0, 3, size=(4, 4))
            for _ in range(50):
                x = pcs.project_feasible(rng.uniform(0, 2, size=4), p)
                y = pcs.project_feasible(rng.uniform(0, 2, size=4), p)
                theta = float(rng.uniform(0.05, 0.95))
                fx = pcs_cluster_objective(x, members, p.weights, p_exp)
                fy = pcs_cluster_objective(y, members, p.weights, p_exp)
                fmid = pcs_cluster_objective(theta * x + (1 - theta) * y, members, p.weights, p_exp)
                assert fmid <= theta * fx + (1 - theta) * fy + 1e-9


class TestSolveRepresentative:
    def test_warm_start_never_hurts(self):
        p = params(n_slots=3, energy=3.0, x_max=2.0)
        members = np.random.default_rng(4).uniform(0, 3, size=(2, 3))
        warm = pcs.epigraph_lp_representative(members, [0, 1], p)
        out = pcs.solve_representative(members, [0, 1], p, warm_start=warm)
        f_out = pcs_cluster_objective(out, members, p.weights, math.inf)
        f_warm = pcs_cluster_objective(warm, members, p.weights, math.inf)
        assert f_out <= f_warm


class TestPerfectDecision:
    def test_flat_profile_spreads_uniformly(self):
        p = params(n_slots=4, energy=4.0, x_max=2.0)
        x = pcs.perfect_decision_pcs(np.full(4, 1.5), p)
        np.testing.assert_allclose(x, np.full(4, 1.0), atol=1e-9)

    def test_valley_example(self):
        x = pcs.perfect_decision_pcs([3.0, 0.0], params())
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-9)

    def test_valley_fill_matches_lp_on_random_profiles(self):
        rng = np.random.default_rng(6)
        p = params(n_slots=6, energy=5.0, x_max=2.0)
        for _ in range(30):
            g = rng.uniform(0.0, 3.0, size=6)
            wf = pcs.valley_fill_decision(g, p.energy, p.x_max)
            lp = pcs.epigraph_lp_representative(g[None, :], [0], p)
            f_wf = pcs_cluster_objective(wf, g[None, :], p.weights, math.inf)
            f_lp = pcs_cluster_objective(lp, g[None, :], p.weights, math.inf)
            assert abs(f_wf - f_lp) <= 1e-6

    def test_intro_example_equal_value(self):
        # the two complementary peak profiles admit equally good schedules
        big = 4.0
        p = params()
        a = pcs_cluster_objective(
            pcs.perfect_decision_pcs([big, 0.0], p), [[big, 0.0]], p.weights, math.inf
        )
        b = pcs_cluster_objective(
            pcs.perfect_decision_pcs([0.0, big], p), [[0.0, big]], p.weights, math.inf
        )
        assert a == pytest.approx(b, abs=1e-9)

    def test_energy_exceeding_capacity_raises(self):
        with pytest.raises(SolverError):
            pcs.valley_fill_decision([1.0, 1.0], 5.0, 2.0)


class TestWaterFill:
    """The batched water-filling against the epigraph LP, in peak value."""

    @staticmethod
    def assert_matches_lp(values, p):
        x = pcs.water_fill_decisions(values, p)
        assert x.shape == values.shape
        for g, row in zip(values, x):
            lp = pcs.epigraph_lp_representative(g[None, :], [0], p)
            f_wf = pcs_cluster_objective(row, g[None, :], p.weights, math.inf)
            f_lp = pcs_cluster_objective(lp, g[None, :], p.weights, math.inf)
            assert abs(f_wf - f_lp) <= 1e-9

    def test_random_weights(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            t = int(rng.integers(1, 9))
            x_max = float(rng.uniform(0.5, 3.0))
            p = params(
                n_slots=t, energy=float(rng.uniform(0.05, 0.95) * t * x_max), x_max=x_max,
                weights=rng.uniform(0.1, 3.0, size=t),
            )
            self.assert_matches_lp(rng.uniform(0.0, 3.0, size=(6, t)), p)

    def test_weights_with_zeros(self):
        rng = np.random.default_rng(62)
        for energy in (1.0, 4.0, 9.0, 11.5):
            w = rng.uniform(0.2, 2.0, size=6)
            w[[1, 4]] = 0.0
            p = params(n_slots=6, energy=energy, x_max=2.0, weights=w)
            x = pcs.water_fill_decisions(rng.uniform(0.0, 3.0, size=(5, 6)), p)
            # zero-weight slots cost nothing: they fill to the cap first
            np.testing.assert_array_equal(x[:, [1, 4]], 2.0)
            self.assert_matches_lp(rng.uniform(0.0, 3.0, size=(5, 6)), p)

    def test_energy_close_to_capacity(self):
        rng = np.random.default_rng(63)
        for energy in (12.0, 12.0 * (1 - 1e-9), 12.0 - 1e-3):
            p = params(n_slots=6, energy=energy, x_max=2.0, weights=rng.uniform(0.5, 1.5, size=6))
            values = rng.uniform(0.0, 3.0, size=(5, 6))
            x = pcs.water_fill_decisions(values, p)
            assert np.all(x.sum(axis=1) >= energy - 1e-9)
            self.assert_matches_lp(values, p)

    def test_flat_profiles(self):
        p = params(n_slots=5, energy=4.0, x_max=2.0)
        values = np.repeat([[0.0], [1.0], [2.5]], 5, axis=1)
        np.testing.assert_allclose(pcs.water_fill_decisions(values, p), 0.8, atol=1e-12)
        self.assert_matches_lp(values, p)

    def test_subnormal_weight(self):
        # a subnormal weight beside normal ones once made the fill infeasible
        # (w = (5e-324, 1, ..., 1), E = 0.5 gave sum(x) = 0.089)
        rng = np.random.default_rng(64)
        for tiny in (5e-324, 1e-320, 1e-310, 2.2e-308):
            for energy in (0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0):
                for _ in range(5):
                    w = np.ones(8)
                    slot = int(rng.integers(8))
                    w[slot] = tiny
                    g = rng.uniform(0.0, 3.0, size=8)
                    p = params(n_slots=8, energy=energy, x_max=3.0, weights=w)
                    x = pcs.water_fill_decisions(g, p)[0]
                    assert pcs.metric_ops(p).feasible(x)
                    w[slot] = 0.0
                    zero = params(n_slots=8, energy=energy, x_max=3.0, weights=w)
                    x0 = pcs.water_fill_decisions(g, zero)[0]
                    peak = pcs_cluster_objective(x, g[None, :], p.weights, math.inf)
                    peak0 = pcs_cluster_objective(x0, g[None, :], zero.weights, math.inf)
                    assert abs(peak - peak0) <= tiny * (g.max() + p.x_max)

    def test_perfect_decision_uses_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("a single-sample decision must not solve an LP")

        monkeypatch.setattr(pcs, "linprog", no_lp)
        x = pcs.perfect_decision_pcs([3.0, 0.0], params())
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            pcs.water_fill_decisions(np.ones((2, 3)), params())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda t: st.tuples(
                st.lists(st.floats(0.0, 3.0), min_size=t, max_size=t),
                st.lists(st.floats(0.0, 5.0), min_size=t, max_size=t),
                st.floats(0.01, 1.0),
                st.floats(0.1, 4.0),
            )
        )
    )
    def test_energy_and_box_constraints(self, case):
        weights, g, fill, x_max = case
        t = len(g)
        p = params(n_slots=t, energy=fill * t * x_max, x_max=x_max, weights=weights)
        x = pcs.water_fill_decisions(np.array([g]), p)[0]
        assert np.all(x >= 0.0) and np.all(x <= x_max)
        assert x.sum() >= p.energy - 1e-9
