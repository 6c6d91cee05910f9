import contextlib
import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmoc.core import (
    BLOCK_FLOATS,
    DataSet,
    DimensionError,
    EmptyClusterError,
    MetricSpec,
    Partition,
    PcsParams,
    SolverError,
)
from dmoc import EngineConfig, cli, pcs, run_dmoc, update_representatives
from dmoc.data import gen_synthetic_pcs, save_profiles

from oracles import (
    finite_difference_gradient,
    grid_min_pcs,
    pcs_cluster_objective,
    peak_descent_representative,
    subgradient_representative,
    table_levels,
)


def params(**kwargs):
    defaults = dict(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)
    defaults.update(kwargs)
    return PcsParams(**defaults)


class TestF2:
    def test_peak(self):
        assert -pcs.paired_norms([2.0, 1.0], [1.0, 0.0], params())[0] == -3.0

    def test_total_energy(self):
        assert -pcs.paired_norms([2.0, 1.0], [1.0, 0.0], params(p=1))[0] == -4.0

    def test_euclidean(self):
        assert -pcs.paired_norms([3.0, 4.0], [0.0, 0.0], params(p=2))[0] == -5.0

    @given(st.floats(0.1, 5.0))
    def test_weight_scaling_covariance(self, gamma):
        base = params(weights=[1.0, 0.5])
        scaled = params(weights=[gamma, 0.5 * gamma])
        x, g = [1.0, 1.0], [2.0, 0.5]
        scaled_norm, base_norm = pcs.paired_norms(g, x, scaled)[0], pcs.paired_norms(g, x, base)[0]
        assert scaled_norm == pytest.approx(gamma * base_norm)


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

    @pytest.mark.parametrize("p, override", [(math.inf, None), (2, None), (3, None), (math.inf, 2)])
    def test_blocked_norms_equal_one_shot(self, p, override):
        rng = np.random.default_rng(9)
        pp = params(n_slots=24, p=p, energy=30.0, x_max=3.0, weights=rng.uniform(0.5, 2.0, size=24))
        reps = rng.uniform(0.0, 3.0, size=(7, 24))
        values = rng.uniform(0.0, 5.0, size=(4 * (BLOCK_FLOATS // reps.size) + 3, 24))
        levels = np.abs(pp.weights * (values[:, None, :] + reps[None, :, :]))
        q = p if override is None else override
        one_shot = levels.max(axis=-1) if q == math.inf else (levels**q).sum(axis=-1) ** (1.0 / q)
        norm_params = pp if override is None else dataclasses.replace(pp, p=override)
        np.testing.assert_array_equal(pcs.weighted_norms(values, reps, norm_params), one_shot)

    def test_profiles_of_the_wrong_length_rejected(self):
        pp = params(n_slots=3, energy=2.0)
        for values, decisions in ((np.ones((4, 2)), np.ones((2, 3))), (np.ones((4, 3)), np.ones((2, 2)))):
            with pytest.raises(DimensionError, match="profiles must have length 3"):
                pcs.weighted_norms(values, decisions, pp)
            with pytest.raises(DimensionError, match="profiles must have length 3"):
                pcs.paired_norms(values, decisions[0], pp)

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
        a = pcs.solve_representative(np.array([[3.0, 0.0]]), [[0]], p)[0]
        b = pcs.solve_representative(np.array([[0.0, 3.0], [1.0, 1.0]]), [[0, 1]], p)[0]
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
        x = pcs.solve_representative(members, [range(n)], p)[0]
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
            single = pcs.perfect_decisions_pcs(g, p)[0]
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
            x = pcs.solve_representative(members, [range(n)], p)[0]
            obj = pcs_cluster_objective(x, members, w, math.inf)
            grid_obj, _ = grid_min_pcs(members, w, math.inf, p.energy, p.x_max)
            assert obj <= grid_obj * (1 + 1e-8)
            assert grid_obj - obj <= 0.01 * n * w.max() + 1e-9

    def test_empty_members(self):
        with pytest.raises(EmptyClusterError):
            pcs.solve_representative(np.ones((1, 2)), [[]], params())

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
        x = pcs.solve_representative(members, [range(members.shape[0])], p)[0]
        assert pcs.metric_ops(p).feasible(x)

    def test_routes(self, monkeypatch):
        # p = 1 and the full box take no interior-point step; p = inf and finite p do
        steps = []
        step = pcs._step

        def counting(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(pcs, "_step", counting)
        members = np.random.default_rng(77).uniform(0.0, 3.0, size=(5, 2))
        for p, energy, stepped in [(1, 2.0, False), (math.inf, 4.0, False), (2, 4.0, False),
                                   (math.inf, 2.0, True), (2, 2.0, True)]:
            steps.clear()
            x = pcs.solve_representative(members, [range(5)], params(p=p, energy=energy))[0]
            assert pcs.metric_ops(params(p=p, energy=energy)).feasible(x)
            assert bool(steps) == stepped

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
    @given(
        st.integers(1, 24).flatmap(
            lambda t: st.tuples(
                st.lists(st.sampled_from([0.0, 2.0, -1.5, 0.7]) | st.floats(-4.0, 6.0), min_size=t, max_size=t),
                st.floats(0.01, 1.0),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_projection_matches_bisection(self, case):
        # entries at 0 and at x_max = 2, and repeated entries, give coinciding breakpoints
        y, fill = np.array(case[0]), case[1]
        p = params(n_slots=y.size, energy=fill * y.size * 2.0, x_max=2.0)
        x = pcs.project_feasible(y, p)
        lo, hi = 0.0, p.x_max - y.min()  # the clipped sum is below E at lo and full at hi
        if np.clip(y + lo, 0.0, p.x_max).sum() >= p.energy:
            hi = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.clip(y + mid, 0.0, p.x_max).sum() >= p.energy:
                hi = mid
            else:
                lo = mid
        np.testing.assert_allclose(x, np.clip(y + hi, 0.0, p.x_max), rtol=0, atol=1e-12 * p.energy)
        assert x.sum() >= p.energy * (1 - 1e-12)
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


class TestFinitePInteriorPoint:
    """The interior point at finite p against water-filling, the subgradient oracle and a grid."""

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_energy_within_rounding_of_capacity(self, p_exp):
        # a few ulps below T x_max, the start once had no upper slack and divided by zero
        members = np.random.default_rng(88).uniform(0.0, 5.0, size=(5, 4))
        x_max = 2.6971840892231818
        for k in range(1, 9):
            p = params(n_slots=4, p=p_exp, energy=(1 - k * 2.0**-53) * 4 * x_max, x_max=x_max)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = pcs.solve_representative(members, [range(5)], p)[0]
            assert pcs.metric_ops(p).feasible(x)

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_derivatives_evaluated_once_per_step(self, monkeypatch, p_exp):
        # the certificate's derivatives at the projection serve the step at the same point
        counts = {"derivatives": 0, "steps": 0}
        derivatives, step = pcs._NormSum.derivatives, pcs._step

        def counting_derivatives(self, x):
            counts["derivatives"] += 1
            return derivatives(self, x)

        def counting_step(*args):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(pcs._NormSum, "derivatives", counting_derivatives)
        monkeypatch.setattr(pcs, "_step", counting_step)
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=365, seed=p_exp)
        rng = np.random.default_rng(89)
        for n in (1, 2, 40, 365):
            counts.update(derivatives=0, steps=0)
            p = params(n_slots=24, p=p_exp, energy=30.0, x_max=3.0, weights=self.weights(rng, 24))
            pcs.solve_representative(data.values, [rng.choice(365, size=n, replace=False)], p)
            assert counts["steps"] > 0
            assert counts["derivatives"] <= counts["steps"] + 2

    @staticmethod
    def weights(rng, t):
        w = rng.uniform(0.2, 2.0, size=t)
        w[rng.random(t) < 0.3] = 0.0
        return w

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_single_member_reaches_water_fill(self, p_exp):
        rng = np.random.default_rng(81 + p_exp)
        for _ in range(20):
            t = int(rng.integers(1, 25))
            x_max = float(rng.uniform(0.5, 3.0))
            p = params(
                n_slots=t, p=p_exp, energy=float(rng.uniform(0.05, 0.95) * t * x_max), x_max=x_max,
                weights=self.weights(rng, t),
            )
            g = rng.uniform(0.5, 5.0, size=(1, t))
            x = pcs.solve_representative(g, [[0]], p)[0]
            assert pcs.metric_ops(p).feasible(x)
            f = pcs_cluster_objective(x, g, p.weights, p_exp)
            f_wf = pcs_cluster_objective(pcs.perfect_decisions_pcs(g, p)[0], g, p.weights, p_exp)
            assert f - f_wf <= 1e-9 * f_wf

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_clusters_match_subgradient_and_grid(self, p_exp):
        rng = np.random.default_rng(84 + p_exp)
        data = gen_synthetic_pcs(archetypes=4, n_slots=24, n_samples=365, seed=p_exp)
        for n in (2, 40, 365):
            p = params(n_slots=24, p=p_exp, energy=24.0, x_max=3.0, weights=self.weights(rng, 24))
            members = data.values[rng.choice(365, size=n, replace=False)]
            x = pcs.solve_representative(members, [range(n)], p)[0]
            assert pcs.metric_ops(p).feasible(x)
            f = pcs_cluster_objective(x, members, p.weights, p_exp)
            f_sg = pcs_cluster_objective(subgradient_representative(members, p), members, p.weights, p_exp)
            assert f - f_sg <= 1e-9 * f_sg
        for _ in range(5):
            n = int(rng.integers(1, 6))
            members = rng.uniform(0.0, 3.0, size=(n, 2))
            p = params(p=p_exp, weights=rng.uniform(0.5, 1.5, size=2))
            x = pcs.solve_representative(members, [range(n)], p)[0]
            f = pcs_cluster_objective(x, members, p.weights, p_exp)
            f_grid, _ = grid_min_pcs(members, p.weights, p_exp, p.energy, p.x_max)
            assert f <= f_grid * (1 + 1e-9)
            assert f_grid - f <= 0.01 * n * p.weights.sum()

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_energy_at_capacity(self, p_exp):
        members = np.random.default_rng(87).uniform(0.0, 5.0, size=(30, 6))
        p = params(n_slots=6, p=p_exp, energy=12.0, x_max=2.0, weights=[1.0, 0.0, 2.0, 0.5, 1.0, 0.0])
        x = pcs.solve_representative(members, [range(30)], p)[0]
        np.testing.assert_array_equal(x, np.full(6, 2.0))

    @pytest.mark.parametrize("p_exp", [2, 3, 6])
    def test_member_without_weighted_load(self, p_exp):
        # the member's only load sits in the zero-weight slot, which can take all the energy:
        # its norm reaches 0 at the optimum
        for energy in (0.5, 1.0, 2.0):
            p = params(p=p_exp, energy=energy, x_max=2.0, weights=[0.0, 1.0])
            x = pcs.solve_representative(np.array([[5.0, 0.0]]), [[0]], p)[0]
            assert np.all(np.isfinite(x)) and pcs.metric_ops(p).feasible(x)
            assert pcs_cluster_objective(x, [[5.0, 0.0]], p.weights, p_exp) <= 1e-9 * p.x_max

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda t: st.tuples(
                st.lists(st.sampled_from([0.0, 1e-170]) | st.floats(0.05, 3.0), min_size=t, max_size=t),
                st.lists(
                    st.lists(st.floats(0.0, 5.0), min_size=t, max_size=t), min_size=1, max_size=6
                ),
                st.sampled_from([2, 3, 6]),
                st.floats(0.01, 1.0),
                st.floats(0.1, 4.0),
            )
        )
    )
    def test_result_is_feasible(self, case):
        weights, members, p_exp, fill, x_max = case
        t = len(weights)
        p = params(n_slots=t, p=p_exp, energy=fill * t * x_max, x_max=x_max, weights=weights)
        x = pcs.solve_representative(np.array(members), [range(len(members))], p)[0]
        assert pcs.metric_ops(p).feasible(x)


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
        monkeypatch.setattr(pcs, "_IPM_MAX_ITERS", 0)
        p = params(n_slots=4, p=2, energy=3.0, x_max=2.0)
        members = np.random.default_rng(1).uniform(0, 3, size=(3, 4))
        with pytest.raises(SolverError, match="duality gap"):
            pcs.solve_representative(members, [range(3)], p)

    def test_inf_rejected(self):
        # the finite-p oracle has no p = inf route
        with pytest.raises(ValueError):
            subgradient_representative(np.ones((2, 2)), params())

    def test_finite_p_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for p_exp in (2, 3, 6):
            p = params(n_slots=4, p=p_exp, energy=2.0, x_max=3.0, weights=[1.0, 0.7, 1.3, 0.0])
            members = rng.uniform(0.5, 3.0, size=(3, 4))
            x = rng.uniform(0.2, 2.5, size=4)
            problem = pcs._NormSum(members, np.array([3]), p)  # one cluster of the three members

            def objective(z):
                return pcs_cluster_objective(z, members, problem.w, p_exp)

            def derivatives(z):
                value, grad, diagonal, rows = problem.derivatives(z[None, :])
                return value[0], grad[0], diagonal[0], rows

            value, grad, diagonal, rows = derivatives(x)
            assert value == pytest.approx(objective(x), rel=1e-12)
            np.testing.assert_allclose(grad, finite_difference_gradient(objective, x), rtol=1e-6)
            hessian = np.diag(diagonal) - rows.T @ rows
            fd = np.stack([
                finite_difference_gradient(lambda z: derivatives(z)[1][i], x) for i in range(4)
            ])
            np.testing.assert_allclose(hessian, fd, rtol=1e-5, atol=1e-8)

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
        out = update_representatives(
            MetricSpec(kind="pcs", pcs=p), DataSet(members), Partition([0, 0], 1), warm_starts=warm
        )[0]
        f_out = pcs_cluster_objective(out, members, p.weights, math.inf)
        f_warm = pcs_cluster_objective(warm, members, p.weights, math.inf)
        assert f_out <= f_warm



@contextlib.contextmanager
def solver_records():
    """The DEBUG records that dmoc.pcs logs inside the block."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("dmoc.pcs")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestStackedSolve:
    """One call solves a stack of clusters; each row is what the cluster gets alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stack_agrees_with_stacks_of_one(self, data):
        p_exp = data.draw(st.sampled_from([math.inf, 2, 3, 1]), label="p")
        t = data.draw(st.integers(1, 24), label="T")
        # the full box, a box that is full to rounding (no interior start at finite p), or inside
        fill = data.draw(st.sampled_from([1.0, 1.0 - 2.0**-52]) | st.floats(0.05, 0.95), label="fill")
        kind = st.sampled_from(["random", "single", "identical"])
        kinds = data.draw(st.lists(kind, min_size=1, max_size=8), label="kinds")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 366, size=len(kinds))  # uniform: hypothesis favours small sizes
        w = rng.uniform(0.2, 2.0, size=t)
        w[rng.random(t) < 0.2] = 0.0
        p = params(n_slots=t, p=p_exp, energy=fill * t * 2.0, x_max=2.0, weights=w)
        values = rng.uniform(0.0, 5.0, size=(365, t))
        values[:10] = values[0]  # identical rows
        clusters = []
        for kind, n in zip(kinds, sizes):
            if kind == "single":
                clusters.append([int(rng.integers(365))])
            elif kind == "identical":
                clusters.append(list(range(min(n, 10))))
            else:
                clusters.append(rng.choice(365, size=n, replace=False))

        stacked, gaps = self.solve_with_gaps(values, clusters, p)
        assert stacked.shape == (len(clusters), t)
        assert np.all(pcs.metric_ops(p).feasible(stacked))
        # every cluster is certified: within _IPM_TOL, or within _IPM_FLOOR on the kept-best path
        assert max(gaps) <= pcs._IPM_FLOOR
        for row, members, gap in zip(stacked, clusters, gaps):
            alone, (alone_gap,) = self.solve_with_gaps(values, [members], p)
            # a cluster's answer depends on its members alone: the same bits and the same gap
            np.testing.assert_array_equal(row, alone[0])
            assert gap == alone_gap

    @pytest.mark.parametrize("p_exp", [math.inf, 2, 3])
    def test_cluster_at_two_stack_positions(self, p_exp):
        # one cluster first among two neighbours, then last after two others: both rows are
        # the cluster solved alone, bit for bit
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=365, seed=12)
        order = np.random.default_rng(12).permutation(365)
        cluster, first, second = order[:40], [order[40:200], order[200:201]], [order[201:230], order[230:]]
        p = params(n_slots=24, p=p_exp, energy=30.0, x_max=3.0)
        alone = pcs.solve_representative(data.values, [cluster], p)[0]
        np.testing.assert_array_equal(pcs.solve_representative(data.values, [cluster, *first], p)[0], alone)
        np.testing.assert_array_equal(pcs.solve_representative(data.values, [*second, cluster], p)[2], alone)

    @staticmethod
    def solve_with_gaps(values, clusters, p):
        """The stacked solve and each cluster's certified gap from its DEBUG record (0 for
        the routes without a solver: p = 1 and the full box)."""
        with solver_records() as records:
            out = pcs.solve_representative(values, clusters, p)
        assert len(records) <= 1
        return out, records[0].stack["gaps"] if records else [0.0] * len(clusters)

    def test_failing_cluster_does_not_stop_the_others(self, monkeypatch):
        # the Newton matrices of stack positions 1 and 2 (of four) are made indefinite from the
        # first step on: the stacked factorization fails, the two are found by factoring the
        # matrices one at a time and retired, and the other two converge
        real = pcs._inverse_factors
        calls = []

        def poisoned(stack):
            calls.append(stack.shape[0])
            if len(calls) > 1 and stack.shape[0] == 4:  # the first call factors the start
                stack = stack.copy()
                stack[1:3] = -np.eye(stack.shape[1])
            return real(stack)

        monkeypatch.setattr(pcs, "_inverse_factors", poisoned)
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=120, seed=7)
        clusters = np.array_split(np.arange(120), 4)
        p = params(n_slots=24, energy=30.0, x_max=3.0)
        with solver_records() as records, pytest.raises(SolverError) as err:
            pcs.solve_representative(data.values, clusters, p)
        assert err.value.cluster == 1  # the lowest failing position
        assert "interior-point method stopped at relative duality gap" in str(err.value)
        assert 2 in calls  # the two others went on as a stack of two
        gaps = records[0].stack["gaps"]
        assert gaps[0] <= 1e-9 and gaps[3] <= 1e-9
        assert gaps[1] > pcs._IPM_FLOOR and gaps[2] > pcs._IPM_FLOOR

        # a retired cluster whose best iterate is within the floor keeps it
        monkeypatch.setattr(pcs, "_IPM_FLOOR", 1e300)
        calls.clear()
        out = pcs.solve_representative(data.values, clusters, p)
        assert np.all(pcs.metric_ops(p).feasible(out))
        monkeypatch.setattr(pcs, "_inverse_factors", real)
        np.testing.assert_allclose(out[[0, 3]], pcs.solve_representative(data.values, clusters, p)[[0, 3]])

    @pytest.mark.parametrize("p_exp", [math.inf, 2])
    def test_debug_record(self, caplog, p_exp):
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=90, seed=8)
        clusters = [range(0, 40), range(40, 41), range(41, 90)]
        p = params(n_slots=24, p=p_exp, energy=30.0, x_max=3.0)
        with caplog.at_level(logging.DEBUG, logger="dmoc.pcs"):
            pcs.solve_representative(data.values, clusters, p)
        records = [r for r in caplog.records if r.name == "dmoc.pcs"]
        assert len(records) == 1
        stack = records[0].stack
        assert stack["members"] == [40, 1, 49]
        assert len(stack["steps"]) == 3 and min(stack["steps"]) > 0
        # a step budget: plain Mehrotra steps take 17-18 here at p = inf and 11-12 at p = 2
        assert max(stack["steps"]) <= 30
        assert max(stack["gaps"]) <= 1e-9
        message = records[0].getMessage()
        assert "3 clusters, 90 members" in message
        assert f"{max(stack['steps'])} stacked steps" in message

    @pytest.mark.parametrize("p_exp", [math.inf, 2])
    def test_large_cluster_step_budget(self, p_exp):
        # one cluster of 4,000 members, the size the large-N benchmark solves: certified
        # within 50 steps (38 at p = inf and 12 at p = 2 when this test was written)
        data = gen_synthetic_pcs(n_samples=4000, seed=0)
        p = params(n_slots=24, p=p_exp, energy=30.0, x_max=3.0)
        with solver_records() as records:
            out = pcs.solve_representative(data.values, [range(4000)], p)
        assert np.all(pcs.metric_ops(p).feasible(out))
        stack = records[0].stack
        assert stack["gaps"][0] <= 1e-9
        assert stack["steps"][0] <= 50

    def test_no_record_work_when_debug_is_off(self, monkeypatch, caplog):
        def no_debug(*args, **kwargs):
            raise AssertionError("the record is built only when DEBUG is enabled")

        monkeypatch.setattr(pcs.logger, "debug", no_debug)
        data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=30, seed=8)
        with caplog.at_level(logging.INFO, logger="dmoc.pcs"):
            p = params(n_slots=24, energy=30.0, x_max=3.0)
            out = pcs.solve_representative(data.values, [range(15), range(15, 30)], p)
        assert out.shape == (2, 24)

    def test_members_must_be_one_sequence_per_cluster(self):
        with pytest.raises(DimensionError):
            pcs.solve_representative(np.ones((3, 2)), range(3), params())
        with pytest.raises(EmptyClusterError) as err:
            pcs.solve_representative(np.ones((3, 2)), [[0], []], params())
        assert err.value.cluster == 1


class TestLevels:
    """The bisected water-fill level against the table search, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_levels_equal_the_table_search(self, data):
        t = data.draw(st.integers(2, 30), label="T")
        n = data.draw(st.integers(1, 6), label="rows")
        x_max = data.draw(st.sampled_from([1.0, 3.0]) | st.floats(0.1, 4.0), label="x_max")
        # zeros and ties among the entries give coinciding breakpoints
        entry = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0)
        g = np.array(data.draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=n, max_size=n)))
        kind = data.draw(st.sampled_from(["projection", "weights", "tiny"]), label="v")
        if kind == "projection":
            # project_feasible's unit-weight fill of g = -y, with breakpoints max(-y, 0) and max(x_max - y, 0)
            y = g - data.draw(st.floats(0.0, 5.0), label="shift")
            v, g = np.ones(t), -y
            points = np.concatenate([np.maximum(-y, 0.0), np.maximum(x_max - y, 0.0)], axis=1)
        else:
            # perfect_decisions_pcs's v = w^(p/(p-1)) in [tiny, 1]; lam / v overflows for the tiny ones
            small = st.sampled_from([np.finfo(float).tiny, 1e-307, 1e-300]) if kind == "tiny" else st.nothing()
            v = np.array(data.draw(st.lists(small | st.floats(1e-3, 1.0), min_size=t, max_size=t), label="v"))
            points = np.concatenate([v * g, v * (g + x_max)], axis=1)
        points.sort(axis=1)
        where = data.draw(st.sampled_from(["inside", "breakpoint", "above"]), label="need")
        if where == "inside":
            need = data.draw(st.floats(0.0, 1.0), label="fill") * t * x_max
        elif where == "breakpoint":
            # exactly the fill of row 0 at one of its breakpoints
            j = data.draw(st.integers(0, 2 * t - 1), label="breakpoint")
            with np.errstate(over="ignore"):
                need = float(np.clip(points[0, j] / v - g[0], 0.0, x_max).sum())
        else:
            need = t * x_max * data.draw(st.sampled_from([1.0 + 2.0**-52, 1.5]), label="excess")
        with np.errstate(over="ignore"):
            lam = pcs._levels(points, v, g, x_max, need)
            expected = table_levels(points, v, g, x_max, need)
        np.testing.assert_array_equal(lam, expected)


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
            wf = pcs.perfect_decisions_pcs(g, p)[0]
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


class TestWaterFill:
    """The batched water-filling against the epigraph LP, in peak value."""

    @staticmethod
    def assert_matches_lp(values, p):
        x = pcs.perfect_decisions_pcs(values, p)
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
            x = pcs.perfect_decisions_pcs(rng.uniform(0.0, 3.0, size=(5, 6)), p)
            # zero-weight slots cost nothing: they fill to the cap first
            np.testing.assert_array_equal(x[:, [1, 4]], 2.0)
            self.assert_matches_lp(rng.uniform(0.0, 3.0, size=(5, 6)), p)

    def test_energy_close_to_capacity(self):
        rng = np.random.default_rng(63)
        for energy in (12.0, 12.0 * (1 - 1e-9), 12.0 - 1e-3):
            p = params(n_slots=6, energy=energy, x_max=2.0, weights=rng.uniform(0.5, 1.5, size=6))
            values = rng.uniform(0.0, 3.0, size=(5, 6))
            x = pcs.perfect_decisions_pcs(values, p)
            assert np.all(x.sum(axis=1) >= energy - 1e-9)
            self.assert_matches_lp(values, p)

    def test_flat_profiles(self):
        p = params(n_slots=5, energy=4.0, x_max=2.0)
        values = np.repeat([[0.0], [1.0], [2.5]], 5, axis=1)
        np.testing.assert_allclose(pcs.perfect_decisions_pcs(values, p), 0.8, atol=1e-12)
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
                    x = pcs.perfect_decisions_pcs(g, p)[0]
                    assert pcs.metric_ops(p).feasible(x)
                    w[slot] = 0.0
                    zero = params(n_slots=8, energy=energy, x_max=3.0, weights=w)
                    x0 = pcs.perfect_decisions_pcs(g, zero)[0]
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
            pcs.perfect_decisions_pcs(np.ones((2, 3)), params())

    def test_wrong_length_rejected_at_p1(self):
        # the p = 1 fill ignores the rows, but their length is still checked
        with pytest.raises(DimensionError):
            pcs.perfect_decisions_pcs(np.ones((2, 3)), params(p=1))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_perfect_decisions_solve_no_cluster(self, monkeypatch, p):
        def no_solve(*args, **kwargs):
            raise AssertionError("a per-sample decision must not call the cluster solver")

        monkeypatch.setattr(pcs, "solve_representative", no_solve)
        pp = params(n_slots=6, p=p, energy=5.0, x_max=2.0, weights=[1.0, 0.5, 2.0, 1.5, 0.8, 1.2])
        values = np.random.default_rng(65).uniform(0.0, 3.0, size=(40, 6))
        x = pcs.perfect_decisions_pcs(values, pp)
        assert x.shape == values.shape and np.all(pcs.metric_ops(pp).feasible(x))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda t: st.tuples(
                st.lists(st.sampled_from([0.0, 1e-170]) | st.floats(0.05, 3.0), min_size=t, max_size=t),
                st.lists(st.floats(0.0, 5.0), min_size=t, max_size=t),
                st.integers(2, 6),
                st.floats(0.01, 1.0),
                st.floats(0.1, 4.0),
            )
        )
    )
    def test_finite_p_matches_subgradient(self, case):
        weights, g, p_exp, fill, x_max = case
        t = len(g)
        p = params(n_slots=t, p=p_exp, energy=fill * t * x_max, x_max=x_max, weights=weights)
        g = np.array(g)
        x = pcs.perfect_decisions_pcs(g, p)[0]
        assert pcs.metric_ops(p).feasible(x)
        f = pcs_cluster_objective(x, g[None, :], p.weights, p_exp)
        f_sg = pcs_cluster_objective(subgradient_representative(g[None, :], p), g[None, :], p.weights, p_exp)
        # the subgradient iterate is feasible, so the exact optimum is never worse
        assert f <= f_sg * (1 + 1e-12)
        if t == 2:
            f_grid, _ = grid_min_pcs(g[None, :], p.weights, p_exp, p.energy, x_max)
            # the grid (step 0.01) has no point when E is within a step of 2 x_max
            assert f_grid == math.inf or abs(f_grid - f) <= 0.02 * p.weights.sum() + 1e-12

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
        x = pcs.perfect_decisions_pcs(np.array([g]), p)[0]
        assert np.all(x >= 0.0) and np.all(x <= x_max)
        assert x.sum() >= p.energy - 1e-9


class TestMemoryBounds:
    """Traced peaks of the large-N calls (tracemalloc sees numpy's data), in multiples of the
    bytes of the rows they are given."""

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def values(self):
        return gen_synthetic_pcs(n_samples=4000, seed=0).values

    def test_perfect_decisions(self, values):
        # 6.3x measured: each fill evaluation of the level search is one (n, T) pass, where a
        # (rows, 2T, T) table per 1,024 rows reached 29.3x
        p = params(n_slots=24, energy=30.0, x_max=3.0)
        assert self.traced_peak(lambda: pcs.perfect_decisions_pcs(values, p)) <= 8 * values.nbytes

    @pytest.mark.parametrize("clusters", [[range(4000)], [range(2667), range(2667, 4000)]], ids=["one", "two"])
    def test_interior_point(self, values, clusters):
        # 12.4x measured, one or two clusters: the step's buffers are made once per stack, and
        # a stack's are let go before a smaller stack makes its own
        p = params(n_slots=24, energy=30.0, x_max=3.0)
        assert self.traced_peak(lambda: pcs.solve_representative(values, clusters, p)) <= 16 * values.nbytes
