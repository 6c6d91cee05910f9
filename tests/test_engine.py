import dataclasses
import math

import numpy as np
import pytest

from dmoc import (
    ClusteringResult,
    DataSet,
    DimensionError,
    DmocError,
    EmptyClusterError,
    EngineConfig,
    InfeasibleDecisionError,
    MetricSpec,
    Partition,
    RunTrace,
    SolverError,
    assign_clusters,
    evaluate_utility,
    metric_ops,
    run_dmoc,
    run_dmoc_ops,
    total_utility,
    update_representatives,
)
from dmoc import baselines, evaluation, pcs, rtp
from dmoc.data import gen_synthetic_pcs

from oracles import rtp_numeric_representative


PCS = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)


class TestAssignClusters:
    def test_single_cluster(self):
        data = DataSet([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        part = assign_clusters(PCS, data, [[1.0, 1.0]])
        np.testing.assert_array_equal(part.assignment, [0, 0, 0])

    def test_peak_complement_example(self):
        # f((2,0); (0,3)) = -3 beats f((0,2); (0,3)) = -5
        data = DataSet([[0.0, 3.0]])
        part = assign_clusters(PCS, data, [[2.0, 0.0], [0.0, 2.0]])
        assert part.assignment[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        data = DataSet([[1.5, 1.5]])
        part = assign_clusters(PCS, data, [[1.0, 1.0], [1.0, 1.0]])
        assert part.assignment[0] == 0

    def test_infeasible_representative_rejected(self):
        data = DataSet([[1.0, 1.0]])
        with pytest.raises(InfeasibleDecisionError):
            assign_clusters(PCS, data, [[0.0, 0.0]])


class TestUpdateRepresentatives:
    def test_rtp_singleton_matches_closed_form(self):
        spec = MetricSpec.for_rtp(n_consumers=2, n_slots=2, alpha=0.5, a=0.1)
        data = DataSet([[2.0, 3.0, 2.5, 2.5]])
        reps = update_representatives(spec, data, Partition([0], 1))
        expected = rtp.closed_form_representative(data, [0], spec.rtp)
        np.testing.assert_array_equal(reps[0], expected)

    def test_pcs_p1_cheapest_slot(self):
        spec = MetricSpec.for_pcs(
            n_slots=3, p=1, energy=2.0, x_max=3.0, weights=[2.0, 1.0, 3.0]
        )
        data = DataSet([[1.0, 2.0, 0.5], [0.1, 0.2, 0.3]])
        reps = update_representatives(spec, data, Partition([0, 0], 1))
        np.testing.assert_array_equal(reps[0], [0.0, 2.0, 0.0])

    def test_duplicated_samples_match_singleton(self):
        data_two = DataSet([[3.0, 0.0], [3.0, 0.0]])
        data_one = DataSet([[3.0, 0.0]])
        two = update_representatives(PCS, data_two, Partition([0, 0], 1))
        one = update_representatives(PCS, data_one, Partition([0], 1))
        np.testing.assert_allclose(two, one, atol=1e-9)

    def test_empty_cluster_raises(self):
        data = DataSet([[3.0, 0.0]])
        with pytest.raises(EmptyClusterError) as err:
            update_representatives(PCS, data, Partition([1], 2))
        assert err.value.cluster == 0

    def test_warm_starts_are_validated(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=10, seed=4)
        partition = Partition([0, 1] * 5, 2)
        for p in (math.inf, 2):
            spec = MetricSpec.for_pcs(n_slots=4, p=p, energy=4.0, x_max=3.0)
            # zero consumption misses the energy need; it would beat every feasible profile
            with pytest.raises(InfeasibleDecisionError):
                update_representatives(spec, data, partition, warm_starts=np.zeros((2, 4)))
            with pytest.raises(DmocError, match="1 decisions for 2 clusters"):
                update_representatives(spec, data, partition, warm_starts=np.ones((1, 4)))
            ops, warm = metric_ops(spec), np.ones((2, 4))
            reps = update_representatives(spec, data, partition, warm_starts=warm)
            assert ops.feasible(reps).all()
            for m in range(2):
                values = data.values[partition.members(m)]
                assert math.fsum(ops.utilities(reps[m], values)) >= math.fsum(
                    ops.utilities(warm[m], values)
                )

    def test_warm_start_beats_a_worse_closed_form(self):
        # with a = 1 the closed form over-prices this cluster: utility 9.70 against 23.17
        spec = MetricSpec.for_rtp(n_consumers=5, n_slots=2, alpha=0.5, a=1.0)
        data = rtp.generate_rtp_scenario(5, 2, 8, seed=0)
        partition = Partition(np.zeros(8, dtype=int), 1)
        warm = rtp_numeric_representative(data.values, spec.rtp)
        ops = metric_ops(spec)
        closed = update_representatives(spec, data, partition)[0]
        reps = update_representatives(spec, data, partition, warm_starts=warm)
        rows = ops.prepare(data.values)
        f_warm = math.fsum(ops.utilities(warm, rows))
        assert math.fsum(ops.utilities(closed, rows)) < f_warm
        assert math.fsum(ops.utilities(reps[0], rows)) >= f_warm


class TestSuppliedDecisions:
    spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
    data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=10, seed=4)
    partition = Partition([0, 1] * 5, 2)

    def test_wrong_length_is_a_dimension_error_everywhere(self):
        short = np.ones((2, 3))
        calls = (
            lambda: run_dmoc(self.spec, self.data, EngineConfig(n_clusters=2, seed=0, init=short)),
            lambda: assign_clusters(self.spec, self.data, short),
            lambda: update_representatives(self.spec, self.data, self.partition, warm_starts=short),
            lambda: metric_ops(self.spec).feasible(short[0]),
            lambda: evaluate_utility(self.spec, short[0], self.data.values[0]),
            lambda: total_utility(
                self.spec,
                ClusteringResult(self.partition, short, 0.0, RunTrace((0.0,), True)),
                self.data,
            ),
        )
        for call in calls:
            with pytest.raises(DimensionError, match="has length 3, expected 4"):
                call()

    def test_zero_representatives_rejected(self):
        none = np.empty((0, 4))
        with pytest.raises(DmocError, match="at least one representative"):
            assign_clusters(self.spec, self.data, none)
        with pytest.raises(DmocError, match="init provides 0 decisions for 2 clusters"):
            run_dmoc(self.spec, self.data, EngineConfig(n_clusters=2, seed=0, init=none))


class TestRunDmoc:
    def test_m_equals_n_reaches_perfect(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=8, seed=0)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=8, seed=1))
        from dmoc.evaluation import perfect_objective

        assert res.objective == pytest.approx(perfect_objective(spec, data), abs=1e-6)

    def test_explicit_init_is_not_written(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=7)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        # every start decision keeps members, so no repair copies the array first
        init = evaluation.perfect_decisions(spec, data)[[0, 10, 20]]
        assert np.all(np.bincount(metric_ops(spec).assign(data.values, init), minlength=3) > 0)
        config = EngineConfig(n_clusters=3, seed=0, init=init.copy())
        res = run_dmoc(spec, data, config)
        assert not np.array_equal(res.representatives, init)
        np.testing.assert_array_equal(config.init, init)

    def test_single_iteration_cap(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=10, seed=2)
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=2, max_iters=1, seed=0))
        assert res.trace.iterations_run == 1
        assert len(res.trace.objectives) == 1

    def test_optimal_init_converges_immediately(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=12, seed=3)
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
        first = run_dmoc(spec, data, EngineConfig(n_clusters=2, seed=5))
        again = run_dmoc(
            spec, data, EngineConfig(n_clusters=2, seed=5, init=first.representatives)
        )
        assert again.trace.iterations_run == 1
        assert again.trace.converged
        assert abs(again.objective - first.objective) <= 1e-3

    def test_monotone_traces(self):
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        for seed in range(5):
            data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=seed)
            res = run_dmoc(spec, data, EngineConfig(n_clusters=4, seed=seed, max_iters=10, tol=0.0))
            diffs = np.diff(res.trace.objectives)
            assert np.all(diffs >= -1e-9)

    def test_determinism(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=25, seed=4)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        a = run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=7))
        b = run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=7))
        np.testing.assert_array_equal(a.representatives, b.representatives)
        np.testing.assert_array_equal(a.partition.assignment, b.partition.assignment)
        assert a.objective == b.objective
        assert a.trace.objectives == b.trace.objectives

    def test_dominance_over_initial_decisions(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=6)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        init = np.stack(
            [
                pcs.perfect_decision_pcs(data.values[i], spec.pcs)
                for i in (0, 5, 10)
            ]
        )
        res = run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=0, init=init))
        part = assign_clusters(spec, data, init)
        from dmoc.core import ClusteringResult, RunTrace

        start = ClusteringResult(
            partition=part, representatives=init, objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        assert res.objective >= total_utility(spec, start, data)

    def test_fixed_point_property(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=8)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=1))
        rerun = run_dmoc(
            spec, data, EngineConfig(n_clusters=3, seed=1, init=res.representatives)
        )
        assert abs(rerun.objective - res.objective) <= 1e-3

    def test_objective_matches_reevaluation(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=9)
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=3, seed=2))
        assert res.objective == pytest.approx(total_utility(spec, res, data), abs=1e-9)

    def test_too_many_clusters(self):
        data = DataSet([[1.0, 1.0]])
        with pytest.raises(DmocError):
            run_dmoc(PCS, data, EngineConfig(n_clusters=2, seed=0))

    def test_rtp_runs_and_improves(self):
        data = rtp.generate_rtp_scenario(3, 2, 40, seed=10)
        spec = MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=0.1, c=5.0)
        kmc, res = evaluation.run_schemes(
            ("kmc", "dmoc"), spec, data, EngineConfig(n_clusters=4, seed=3, init="kmeans")
        ).values()
        assert res.objective >= kmc.objective
        diffs = np.diff(res.trace.objectives)
        assert np.all(diffs >= -1e-9)

    def test_kmeans_init_is_resolved_outside_the_engine(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=20, seed=1)
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
        with pytest.raises(DmocError, match="run_schemes"):
            run_dmoc(spec, data, EngineConfig(n_clusters=2, seed=0, init="kmeans"))

    def test_approx_assignment_rejected_for_rtp(self):
        data = rtp.generate_rtp_scenario(2, 2, 10, seed=0)
        spec = MetricSpec.for_rtp(n_consumers=2, n_slots=2, alpha=0.5, a=0.1)
        with pytest.raises(DmocError):
            run_dmoc(spec, data, EngineConfig(n_clusters=2, seed=0), approx_assignment=True)

    def test_approx_assignment_runs_for_pcs(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=20, seed=1)
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
        res = run_dmoc(
            spec, data, EngineConfig(n_clusters=2, seed=1), approx_assignment=True
        )
        assert res.objective == pytest.approx(total_utility(spec, res, data), abs=1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DmocError):
            EngineConfig(n_clusters=0)
        with pytest.raises(DmocError):
            EngineConfig(n_clusters=1, max_iters=0)
        with pytest.raises(DmocError):
            EngineConfig(n_clusters=1, tol=-1.0)
        with pytest.raises(DmocError):
            EngineConfig(n_clusters=1, init="nope")

    def test_defaults_follow_reference_settings(self):
        config = EngineConfig(n_clusters=3)
        assert config.max_iters == 10
        assert config.tol == 1e-3


class TestConventionalEmbedding:
    def test_one_engine_iteration_is_one_lloyd_iteration(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(0.0, 4.0, size=(40, 3))
        data = DataSet(values)
        ops = baselines.squared_distance_ops(3)
        init = baselines.kmeans_pp_init(values, 4, np.random.default_rng(2))

        engine_res = run_dmoc_ops(
            ops, data, EngineConfig(n_clusters=4, max_iters=1, tol=0.0, init=init)
        )
        km = baselines.kmeans(data, 4, seed=0, max_iters=1, init=init)

        np.testing.assert_array_equal(
            engine_res.partition.assignment, km.assignment.assignment
        )
        np.testing.assert_array_equal(engine_res.representatives, km.centroids)

    def test_full_runs_reach_identical_objectives(self):
        rng = np.random.default_rng(22)
        values = rng.uniform(0.0, 4.0, size=(30, 2))
        data = DataSet(values)
        ops = baselines.squared_distance_ops(2)
        init = baselines.kmeans_pp_init(values, 3, np.random.default_rng(5))

        engine_res = run_dmoc_ops(
            ops, data, EngineConfig(n_clusters=3, max_iters=50, tol=0.0, init=init)
        )
        km = baselines.kmeans(data, 3, seed=0, max_iters=50, init=init)
        assert engine_res.objective == pytest.approx(-km.inertia, abs=1e-9)


class TestSkipUnchangedClusters:
    def test_single_cluster_run_solves_one_lp(self, monkeypatch):
        solves, highs = [], []
        solve = pcs.solve_representative
        linprog = pcs.linprog

        def counting_solve(data, member_indices, params):
            solves.extend(1 for _ in member_indices)  # one entry per cluster solved
            return solve(data, member_indices, params)

        def counting_linprog(*args, **kwargs):
            highs.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(pcs, "solve_representative", counting_solve)
        monkeypatch.setattr(pcs, "linprog", counting_linprog)
        spec = MetricSpec.for_pcs(n_slots=8, p=math.inf, energy=8.0, x_max=3.0)
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=3)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=1, seed=0, tol=0.0))
        # the second iteration finds the same members and does not solve again
        assert res.trace.iterations_run >= 2
        assert len(solves) == 1
        assert len(highs) == 0

    def test_single_cluster_run_solves_once_at_finite_p(self, monkeypatch):
        solves = []
        solve = pcs.solve_representative

        def counting_solve(data, member_indices, params):
            solves.extend(1 for _ in member_indices)  # one entry per cluster solved
            return solve(data, member_indices, params)

        monkeypatch.setattr(pcs, "solve_representative", counting_solve)
        spec = MetricSpec.for_pcs(n_slots=8, p=2, energy=8.0, x_max=3.0)
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=3)
        res = run_dmoc(spec, data, EngineConfig(n_clusters=1, seed=0, tol=0.0))
        assert res.trace.iterations_run >= 2
        assert len(solves) == 1

    @staticmethod
    def recording(ops, events):
        """The ops, logging each representative call, each solve the guard must
        reject (no better than the representative that the last assignment used)
        and each perfect-decision call."""
        assigned = []

        def assign(values, reps):
            assigned[:] = [reps]
            return ops.assign(values, reps)

        def best_representatives(values, assignment, clusters):
            reps = ops.best_representatives(values, assignment, clusters)
            for m, rep in zip(clusters, reps):
                rows = values[assignment == m]
                kept = assigned[0][m]
                if math.fsum(ops.utilities(rep, rows)) <= math.fsum(ops.utilities(kept, rows)):
                    events.append("rejected")
            events.append("solve")
            return reps

        def perfect_decisions(values):
            events.append("perfect")
            return ops.perfect_decisions(values)

        return dataclasses.replace(
            ops, assign=assign, best_representatives=best_representatives,
            perfect_decisions=perfect_decisions,
        )

    @staticmethod
    def resolving(ops, data, config):
        """A run that solves every nonempty cluster in every iteration, as a chain of
        one-iteration runs (the first iteration of a run solves every nonempty
        cluster), each started from the previous one's representatives."""
        objectives, previous, reps = [], None, config.init
        for _ in range(config.max_iters):
            step = dataclasses.replace(config, max_iters=1, init=reps)
            res = run_dmoc_ops(ops, data, step)
            objectives.append(res.objective)
            reps = res.representatives
            stop = res.trace.converged if previous is None else res.objective - previous <= config.tol
            if stop:
                break
            previous = res.objective
        return res.representatives, res.partition.assignment, RunTrace(tuple(objectives), stop)

    @pytest.mark.parametrize(
        "spec, data, config, planted",
        [
            pytest.param(
                MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0),
                gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=11),
                EngineConfig(n_clusters=3, seed=4, tol=0.0),
                None,
                id="pcs",
            ),
            # six clusters on twelve samples: a cluster empties after a solve and is re-seeded
            pytest.param(
                MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0),
                gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=12, seed=1),
                EngineConfig(n_clusters=6, seed=1, tol=0.0),
                "repair",
                id="pcs-repair",
            ),
            pytest.param(
                MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0, x_max=3.0),
                gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=11),
                EngineConfig(n_clusters=3, seed=4, tol=0.0),
                None,
                id="pcs-p2",
            ),
            # outside the no-over-pricing regime the closed form can lose to the kept price
            pytest.param(
                MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=1.0, b=0.1),
                rtp.generate_rtp_scenario(3, 2, 40, seed=5),
                EngineConfig(n_clusters=4, seed=3, tol=0.0),
                "rejected",
                id="rtp-guard-rejects",
            ),
            pytest.param(
                MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=0.2, b=0.1),
                rtp.generate_rtp_scenario(3, 2, 40, seed=5),
                EngineConfig(n_clusters=4, seed=3, tol=0.0),
                None,
                id="rtp",
            ),
        ],
    )
    def test_skipping_matches_resolving(self, spec, data, config, planted):
        events = []  # of the skipping run
        ops = metric_ops(spec)
        skipped = run_dmoc_ops(self.recording(ops, events), data, config)
        reps, assignment, trace = self.resolving(ops, data, config)
        np.testing.assert_array_equal(skipped.representatives, reps)
        np.testing.assert_array_equal(skipped.partition.assignment, assignment)
        assert skipped.trace == trace
        if planted == "repair":
            assert "perfect" in events[events.index("solve") :]
        elif planted == "rejected":
            assert "rejected" in events

    def test_solver_failure_names_its_cluster(self, monkeypatch):
        spec = MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0, x_max=3.0)
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=20, seed=2)
        init = metric_ops(spec).perfect_decisions(data.values[[0, 7]])
        monkeypatch.setattr(pcs, "_IPM_MAX_ITERS", 0)
        with pytest.raises(SolverError) as info:
            run_dmoc_ops(metric_ops(spec), data, EngineConfig(n_clusters=2, init=init))
        assert info.value.cluster in (0, 1)
        assert str(info.value).startswith(f"cluster {info.value.cluster}: interior-point method")

    def test_stacked_failure_names_its_engine_cluster(self, monkeypatch):
        # the solver raises for stack position 1, the lowest failing one; the engine names
        # the cluster at that position of the clusters it asked for
        spec = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=40, seed=2)
        real = pcs._inverse_factors
        calls = []

        def poisoned(stack):
            calls.append(1)
            if len(calls) > 1 and stack.shape[0] == 3:  # the first call factors the start
                stack = stack.copy()
                stack[1:] = -np.eye(stack.shape[1])
            return real(stack)

        monkeypatch.setattr(pcs, "_inverse_factors", poisoned)
        assignment = np.arange(40) % 4
        with pytest.raises(SolverError) as info:
            metric_ops(spec).best_representatives(data.values, assignment, np.array([0, 2, 3]))
        assert info.value.cluster == 2
        assert str(info.value).startswith("cluster 2: interior-point method")


class TestUtilityReuse:
    @staticmethod
    def counting(ops, events):
        """Log the rows each utility call scores, each assignment call, and the
        assignment and clusters of each representative call."""

        def utilities(x, values):
            events.append(("score", np.atleast_2d(values).shape[0]))
            return ops.utilities(x, values)

        def assign(values, reps):
            events.append(("assign",))
            return ops.assign(values, reps)

        def best_representatives(values, assignment, clusters):
            events.append(("solve", assignment.copy(), np.asarray(clusters)))
            return ops.best_representatives(values, assignment, clusters)

        return dataclasses.replace(
            ops, utilities=utilities, assign=assign, best_representatives=best_representatives
        )

    def test_solved_clusters_are_evaluated_once_per_iteration(self):
        pcs_spec = MetricSpec.for_pcs(n_slots=8, p=math.inf, energy=8.0, x_max=3.0)
        pcs_data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=3)
        rtp_spec = MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=0.2, b=0.1)
        rtp_data = rtp.generate_rtp_scenario(3, 2, 60, seed=5)
        cases = [(pcs_spec, pcs_data, EngineConfig(n_clusters=m, seed=0, tol=0.0), False) for m in (1, 5)]
        cases += [(rtp_spec, rtp_data, EngineConfig(n_clusters=m, seed=0, tol=0.0), False) for m in (3, 6)]
        # six clusters on twelve samples: a cluster empties after a solve and is re-seeded
        cases.append((
            MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0),
            gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=12, seed=1),
            EngineConfig(n_clusters=6, seed=1, tol=0.0),
            True,
        ))
        for spec, data, config, repair in cases:
            self.check_scored_rows(spec, data, config, repair)

    def check_scored_rows(self, spec, data, config, repair):
        """Per iteration, the rows scored are at most the rows of the clusters solved,
        then those of the samples that moved, plus (after an empty-cluster repair)
        every sample twice."""
        events = []
        res = run_dmoc_ops(self.counting(metric_ops(spec), events), data, config)
        assert res.trace.iterations_run >= 2
        assert all(e[1] > 0 for e in events if e[0] == "score")
        solves = [i for i, e in enumerate(events) if e[0] == "solve"]
        previous = (None, 0)  # the last solve's assignment and solved rows
        for lo, hi in zip([0] + [i + 1 for i in solves], solves + [len(events)]):
            span = events[lo:hi]
            scored = sum(e[1] for e in span if e[0] == "score")
            # a repair ranks every sample once and may re-seed any representative, which
            # makes every sample of its cluster stale
            repaired = sum(e[0] == "assign" for e in span) > 1
            assignment = events[hi][1] if hi < len(events) else previous[0]
            if previous[0] is None:  # the starting objective scores every sample once
                allowed = data.n
            else:  # the guard's solved rows, then the samples that moved
                allowed = previous[1] + int((assignment != previous[0]).sum())
            assert scored <= allowed + (2 * data.n if repaired else 0)
            if hi < len(events):
                previous = (assignment, int(np.isin(assignment, events[hi][2]).sum()))
        spans = zip([i + 1 for i in solves], solves[1:] + [len(events)])
        assert repair == any(sum(e[0] == "assign" for e in events[lo:hi]) > 1 for lo, hi in spans)

    def test_objectives_equal_a_fresh_evaluation(self):
        pcs_data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=60, seed=5)
        rtp_spec = MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=0.2, b=0.1)
        rtp_data = rtp.generate_rtp_scenario(3, 2, 60, seed=5)
        for spec, data in ((MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0), pcs_data),
                           (MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0), pcs_data),
                           (rtp_spec, rtp_data)):
            ops = metric_ops(spec)
            for m in (1, 3, 5):
                config = EngineConfig(n_clusters=m, seed=m, tol=0.0, max_iters=6)
                res = run_dmoc_ops(ops, data, config)
                fresh = np.concatenate([
                    ops.utilities(res.representatives[k], ops.prepare(data.values[res.partition.members(k)]))
                    for k in range(m)
                ])
                assert res.objective == math.fsum(fresh)


class TestExactSums:
    def test_tied_start_dominance_is_exact(self):
        # Every sample has one tall peak in slot 0 or 1 and the energy fits in the
        # valleys of slots 2 and 3, so every representative gives a sample the same
        # utility: the k-means start is already optimal and the engine regroups the
        # tied samples. The objective must not drop by a rounding step.
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=1.0, x_max=1.0)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            values = rng.uniform(0.0, 0.5, size=(40, 4))
            values[np.arange(40), rng.integers(0, 2, size=40)] = rng.uniform(3.0, 9.0, size=40)
            data = DataSet(values)
            for m in (2, 3, 4, 5):
                kmc, res = evaluation.run_schemes(
                    ("kmc", "dmoc"), spec, data, EngineConfig(n_clusters=m, seed=seed, init="kmeans")
                ).values()
                assert res.objective >= kmc.objective
                assert res.objective == math.fsum(-values[:, :2].max(axis=1))
