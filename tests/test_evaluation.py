import logging
import math
import sys

import numpy as np
import pytest

from dmoc import (
    DataSet, DimensionError, DmocError, EngineConfig, MetricSpec, metric_ops, run_dmoc, update_representatives,
)
from dmoc import baselines, evaluation, pcs, rtp
from dmoc.core import ClusteringResult, Partition, RunTrace
from dmoc.data import gen_synthetic_pcs


PCS6 = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=6.0, x_max=3.0)


class TestPerfectBaseline:
    def test_single_sample(self):
        spec = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 0.0]])
        x = pcs.perfect_decision_pcs([3.0, 0.0], spec.pcs)
        assert evaluation.perfect_objective(spec, data) == pytest.approx(
            -pcs.paired_norms([3.0, 0.0], x, spec.pcs)[0]
        )

    def test_identical_rtp_samples_scale_linearly(self):
        spec = MetricSpec.for_rtp(n_consumers=2, n_slots=2, alpha=0.5, a=0.1, c=1.0)
        row = [2.0, 3.0, 2.5, 2.5]
        one = evaluation.perfect_objective(spec, DataSet([row]))
        five = evaluation.perfect_objective(spec, DataSet([row] * 5))
        assert five == pytest.approx(5 * one, rel=1e-12)

    def test_batched_perfect_objective_is_bit_identical_to_per_sample_loop(self):
        rng = np.random.default_rng(31)
        weights = rng.uniform(0.2, 3.0, size=6)
        weights[2] = 0.0
        rtp_safe = MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=0.1, c=1.0)
        rtp_over = MetricSpec.for_rtp(n_consumers=3, n_slots=2, alpha=0.5, a=1.0, b=0.2)
        cases = [
            (PCS6, rng.uniform(0.0, 5.0, size=(2500, 6))),
            (MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=14.0, x_max=3.0, weights=weights),
             rng.uniform(0.0, 5.0, size=(2500, 6))),
            (MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0, x_max=3.0), rng.uniform(0.0, 5.0, size=(6, 6))),
            (rtp_safe, rng.uniform(2.0, 3.0, size=(500, 6))),
            (rtp_over, rng.uniform(0.0, 3.0, size=(500, 6))),
        ]
        for spec, values in cases:
            data = DataSet(values)
            ops = metric_ops(spec)
            rows = ops.prepare(data.values)
            singles = [ops.perfect_decisions(g[None, :])[0] for g in rows]
            loop = math.fsum(ops.utilities(x, g[None, :])[0] for x, g in zip(singles, rows))
            assert evaluation.perfect_objective(spec, data) == loop
            np.testing.assert_array_equal(evaluation.perfect_decisions(spec, data), np.stack(singles))

    def test_full_resolution_run_is_near_perfect(self):
        from dmoc import EngineConfig, run_dmoc

        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=10, seed=21)
        res = run_dmoc(PCS6, data, EngineConfig(n_clusters=10, seed=0))
        f_perfect = evaluation.perfect_objective(PCS6, data)
        assert evaluation.relative_loss(f_perfect, res.objective) <= 0.1


class TestRelativeLoss:
    def test_zero_when_equal(self):
        assert evaluation.relative_loss(-100.0, -100.0) == 0.0

    def test_negative_objectives(self):
        assert evaluation.relative_loss(-100.0, -120.0) == pytest.approx(20.0)
        assert evaluation.relative_loss(-100.0, -100.5) == pytest.approx(0.5)

    def test_zero_perfect_rejected(self):
        with pytest.raises(DmocError):
            evaluation.relative_loss(0.0, -1.0)


class TestPeakStatistics:
    def test_deterministic_peak(self):
        values = np.full((5, 6), 0.5)
        values[:, 3] = 2.0
        hist = evaluation.peak_histogram(DataSet(values))
        np.testing.assert_array_equal(hist.p_hat, [0, 0, 0, 1.0, 0, 0])
        assert evaluation.peak_entropy(hist) == 0.0

    def test_two_sample_split(self):
        values = np.array([[0.1, 2.0, 0.1], [2.0, 0.1, 0.1]])
        hist = evaluation.peak_histogram(DataSet(values))
        np.testing.assert_allclose(hist.p_hat, [0.5, 0.5, 0.0])
        assert evaluation.peak_entropy(hist) == pytest.approx(1.0)

    def test_constant_profile_ties_to_first_slot(self):
        hist = evaluation.peak_histogram(DataSet(np.ones((3, 4))))
        np.testing.assert_array_equal(hist.counts, [3, 0, 0, 0])

    def test_uniform_peak_entropy_is_log2_t(self):
        t = 24
        values = 0.1 * np.ones((t, t))
        values[np.arange(t), np.arange(t)] = 3.0
        hist = evaluation.peak_histogram(DataSet(values))
        assert evaluation.peak_entropy(hist) == pytest.approx(math.log2(t), abs=1e-12)

    @pytest.mark.parametrize("p_hat", [[0.5, 0.4], [1.5, -0.5]])
    def test_histogram_of_no_probability_vector_rejected(self, p_hat):
        with pytest.raises(DmocError, match="probability vector"):
            evaluation.PeakHistogram(p_hat=np.array(p_hat), counts=np.array([1, 1]))

    def test_entropy_bounds(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=12, n_samples=60, seed=0)
        h = evaluation.peak_entropy(evaluation.peak_histogram(data))
        assert 0.0 <= h <= math.log2(12)


class TestRealizedPeaks:
    def test_result_of_another_n_rejected(self):
        result = ClusteringResult(
            partition=Partition([0, 0, 0], 1),
            representatives=[[1.0, 1.0]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        with pytest.raises(DimensionError, match="partition covers 3 samples, dataset has 1"):
            evaluation.realized_peaks(
                MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0), result, DataSet([[1.0, 1.0]])
            )

    def test_hand_case(self):
        spec = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 0.0], [0.0, 1.0]])
        result = ClusteringResult(
            partition=Partition([0, 1], 2),
            representatives=[[0.0, 2.0], [2.0, 0.0]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        np.testing.assert_allclose(
            evaluation.realized_peaks(spec, result, data), [3.0, 2.0]
        )

    def test_requires_pcs(self):
        spec = MetricSpec.for_rtp(n_consumers=1, n_slots=2, alpha=0.5, a=0.1)
        data = DataSet([[1.0, 1.0]])
        result = ClusteringResult(
            partition=Partition([0], 1),
            representatives=[[0.5, 0.5]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        with pytest.raises(DmocError):
            evaluation.realized_peaks(spec, result, data)


@pytest.fixture(scope="module")
def setup():
    data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=40, seed=11)
    return PCS6, data


def counting_runs(monkeypatch):
    """Patch the sweep's k-means pipeline and engine to record (M, seed) starts,
    (M, scheme) engine runs and the representative memo each run was given."""
    starts, runs, memos = [], [], []
    kmc_pipeline, run_dmoc = evaluation.kmc_pipeline, evaluation.run_dmoc

    def counting_kmc_pipeline(spec, data, n_clusters, seed, **kwargs):
        starts.append((n_clusters, seed))
        return kmc_pipeline(spec, data, n_clusters, seed=seed, **kwargs)

    def counting_run_dmoc(spec, data, config, approx_assignment=False, memo=None):
        runs.append((config.n_clusters, "dmoc-approx" if approx_assignment else "dmoc"))
        memos.append(memo)
        return run_dmoc(spec, data, config, approx_assignment=approx_assignment, memo=memo)

    monkeypatch.setattr(evaluation, "kmc_pipeline", counting_kmc_pipeline)
    monkeypatch.setattr(evaluation, "run_dmoc", counting_run_dmoc)
    return starts, runs, memos


class TestClustersForTargets:

    def test_loose_target_needs_one_cluster(self, setup):
        spec, data = setup
        config = EngineConfig(n_clusters=1, seed=1, init="kmeans")
        res = evaluation.run_schemes(("dmoc",), spec, data, config)["dmoc"]
        peak = evaluation.realized_peaks(spec, res, data).max()
        found = evaluation.clusters_for_targets(spec, data, [peak + 0.1], ("dmoc",), 5, seed=0)
        assert found == {("dmoc", peak + 0.1): 1}

    def test_impossible_target_not_found(self, setup):
        spec, data = setup
        perfect = evaluation.perfect_decisions(spec, data)
        worst = (perfect + data.values).max(axis=1).max()
        found = evaluation.clusters_for_targets(spec, data, [worst - 0.25], ("dmoc",), 4, seed=0)
        assert found == {("dmoc", worst - 0.25): None}

    def test_required_clusters_monotone_in_target(self, setup):
        spec, data = setup
        targets = np.linspace(2.0, 5.0, 7)
        found = evaluation.clusters_for_targets(spec, data, targets, ("dmoc",), 6, seed=2)
        numeric = [math.inf if found["dmoc", t] is None else found["dmoc", t] for t in targets]
        assert all(a >= b for a, b in zip(numeric, numeric[1:]))

    def test_requires_peak_metric(self, setup, monkeypatch):
        _, data = setup
        starts, runs, _ = counting_runs(monkeypatch)
        spec2 = MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0, x_max=3.0)
        with pytest.raises(DmocError):
            evaluation.clusters_for_targets(spec2, data, [3.0], ("dmoc",), 3, seed=0)
        assert starts == runs == []

    def test_answers_are_the_first_m_meeting_each_target(self, setup):
        # at seed 2 the kmc peak is not monotone in M: 3.19 kW at M = 4, 3.28 kW at M = 5
        spec, data = setup
        schemes, targets, m_max = ("kmc", "dmoc", "dmoc-approx"), [4.2, 3.2, 3.0, 2.0], 8
        peaks = {
            (s, m): evaluation.realized_peaks(spec, run, data).max()
            for m in range(1, m_max + 1)
            for s, run in evaluation.run_schemes(
                schemes, spec, data, EngineConfig(n_clusters=m, seed=2 + m, init="kmeans")
            ).items()
        }
        expected = {
            (s, t): next((m for m in range(1, m_max + 1) if peaks[s, m] <= t), None)
            for s in schemes
            for t in targets
        }
        for jobs in (1, 3):
            found = evaluation.clusters_for_targets(
                spec, data, targets, schemes, m_max, seed=2, jobs=jobs
            )
            assert found == expected
            assert list(found) == list(expected)
        assert found["kmc", 3.2] == 4 and found["kmc", 2.0] is None

    def test_one_start_per_m_and_one_engine_run_per_pending_scheme(self, setup, monkeypatch):
        spec, data = setup
        schemes, targets = ("kmc", "dmoc", "dmoc-approx"), [4.2, 3.0]
        found = evaluation.clusters_for_targets(spec, data, targets, schemes, 8, seed=2)
        starts, runs, memos = counting_runs(monkeypatch)
        assert evaluation.clusters_for_targets(spec, data, targets, schemes, 8, seed=2) == found
        # every engine run of the sweep shares its one memo
        assert isinstance(memos[0], dict) and all(memo is memos[0] for memo in memos)

        # the sweep stops at the first M that answers every target, before m_max
        stop = max(found.values())
        assert stop < 8
        assert starts == [(m, 2 + m) for m in range(1, stop + 1)]
        # an engine scheme runs at every M up to its own last answer, and no further
        last = {s: max(found[s, t] for t in targets) for s in ("dmoc", "dmoc-approx")}
        assert last["dmoc"] != last["dmoc-approx"]
        assert sorted(runs) == sorted((m, s) for s in last for m in range(1, last[s] + 1))

    def test_unreachable_target_runs_to_m_max(self, setup, monkeypatch):
        spec, data = setup
        perfect = evaluation.perfect_decisions(spec, data)
        worst = (perfect + data.values).max(axis=1).max()
        starts, runs, _ = counting_runs(monkeypatch)
        found = evaluation.clusters_for_targets(
            spec, data, [5.0, worst - 0.25], ("dmoc",), 5, seed=0
        )
        assert found == {("dmoc", 5.0): 1, ("dmoc", worst - 0.25): None}
        assert starts == [(m, m) for m in range(1, 6)]
        assert runs == [(m, "dmoc") for m in range(1, 6)]

    def test_search_stops_at_n(self, setup, monkeypatch):
        # no M above N = 40 can run: an open target is answered None, in any round of jobs
        spec, data = setup
        starts, _, _ = counting_runs(monkeypatch)
        found = evaluation.clusters_for_targets(spec, data, [0.0], ("kmc",), 50, seed=0, jobs=3)
        assert found == {("kmc", 0.0): None}
        assert sorted(starts) == [(m, m) for m in range(1, 41)]


    def test_no_target_runs_nothing(self, setup, monkeypatch):
        spec, data = setup
        calls = []
        monkeypatch.setattr(evaluation, "run_schemes", lambda *args, **kwargs: calls.append(args))
        assert evaluation.clusters_for_targets(spec, data, [], ("dmoc", "kmc"), 5, seed=0) == {}
        assert calls == []


# ten 24-slot profiles at p = inf, and ten pricing samples of two consumers over four slots
PCS24 = MetricSpec.for_pcs(n_slots=24, p=math.inf, energy=30.0, x_max=3.0)
RTP4 = MetricSpec.for_rtp(n_consumers=2, n_slots=4, alpha=0.5, a=0.1, c=1.0)
TEN = {"pcs": (PCS24, gen_synthetic_pcs(n_samples=10, seed=0), np.full((2, 24), 1.25)),
       "rtp": (RTP4, rtp.generate_rtp_scenario(n_consumers=2, n_slots=4, n_samples=10, seed=0), np.ones((2, 4)))}


def _update(kind, n_rows, warm):
    spec, data, starts = TEN[kind]
    partition = Partition(np.arange(n_rows) % 2, 2)
    return lambda: update_representatives(spec, data, partition, starts if warm else None)


def _pcs(fn, *args, **kwargs):
    return lambda: fn(PCS24, TEN["pcs"][1], *args, **kwargs)


class TestEntryPointInputs:
    @pytest.mark.parametrize(
        "call, error, match",
        [
            *(
                pytest.param(_update(kind, n_rows, warm), DimensionError,
                             f"partition covers {n_rows} samples, dataset has 10",
                             id=f"update-{kind}-{n_rows}-rows{'-warm' if warm else ''}")
                for kind in ("pcs", "rtp") for n_rows in (6, 12) for warm in (False, True)
            ),
            pytest.param(lambda: baselines.kmeans(TEN["pcs"][1], 0, seed=0), DmocError,
                         "n_clusters: expected an integer >= 1, got 0", id="kmeans-no-clusters"),
            pytest.param(lambda: baselines.kmeans(TEN["pcs"][1], True, seed=0), TypeError,
                         "n_clusters: expected an integer >= 1, got True", id="kmeans-bool-clusters"),
            pytest.param(lambda: baselines.kmeans(TEN["pcs"][1], 2, seed=0, max_iters=2.5), TypeError,
                         "max_iters: expected an integer >= 1, got 2.5", id="kmeans-fractional-max-iters"),
            pytest.param(lambda: baselines.kmeans(TEN["pcs"][1], 2, seed=-1), DmocError,
                         "seed: expected an integer >= 0, got -1", id="kmeans-negative-seed"),
            pytest.param(_pcs(evaluation.loss_curve, [2.5]), TypeError,
                         "n_clusters: expected an integer >= 1, got 2.5", id="loss-curve-fractional-m"),
            pytest.param(_pcs(evaluation.loss_curve, [1], seed=-1), DmocError,
                         "seed: expected an integer >= 0, got -1", id="loss-curve-negative-seed"),
            pytest.param(_pcs(evaluation.loss_curve, [1], jobs=0), DmocError,
                         "jobs: expected an integer >= 1, got 0", id="loss-curve-no-jobs"),
            pytest.param(_pcs(evaluation.clusters_for_targets, [3.0], m_max=2.5), TypeError,
                         "m_max: expected an integer >= 1, got 2.5", id="targets-fractional-m-max"),
            pytest.param(_pcs(evaluation.clusters_for_targets, [3.0], seed=-1), DmocError,
                         "seed: expected an integer >= 0, got -1", id="targets-negative-seed"),
            pytest.param(_pcs(evaluation.clusters_for_targets, [3.0], jobs=-3), DmocError,
                         "jobs: expected an integer >= 1, got -3", id="targets-negative-jobs"),
        ],
    )
    def test_bad_input_raises_its_structured_error(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_numpy_integer_cluster_count_is_accepted(self):
        curves = evaluation.loss_curve(PCS24, TEN["pcs"][1], [np.int64(2)], schemes=("kmc",), seed=np.int64(0))
        assert curves[0].points[0][0] == 2 and type(curves[0].points[0][0]) is int


class TestSweeps:
    def test_m_beyond_n_rejected_before_any_run(self, setup, monkeypatch):
        spec, data = setup
        starts, runs, _ = counting_runs(monkeypatch)
        baselines_run = []
        perfect_objective = evaluation.perfect_objective

        def counting_perfect_objective(*args, **kwargs):
            baselines_run.append(args)
            return perfect_objective(*args, **kwargs)

        monkeypatch.setattr(evaluation, "perfect_objective", counting_perfect_objective)
        with pytest.raises(DmocError, match="n_clusters = 41 exceeds N = 40"):
            evaluation.loss_curve(spec, data, [39, 40, 41], seed=0)
        assert starts == runs == baselines_run == []

    def test_loss_curve_shape_and_nonnegative(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=12)
        curves = evaluation.loss_curve(PCS6, data, [1, 2, 3], seed=5)
        assert [c.scheme for c in curves] == list(evaluation.SCHEMES)
        for curve in curves:
            assert len(curve.points) == 3
            for _, rho in curve.points:
                assert rho >= -1e-6

    def test_loss_curve_dmoc_never_worse_than_kmc(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=13)
        curves = {c.scheme: c for c in evaluation.loss_curve(PCS6, data, [1, 2, 4], seed=3)}
        for (m, rho_dmoc), (_, rho_kmc) in zip(
            curves["dmoc"].points, curves["kmc"].points
        ):
            assert rho_dmoc <= rho_kmc + 1e-9

    def test_jobs_do_not_change_results(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=6, n_samples=20, seed=14)
        seq = evaluation.loss_curve(PCS6, data, [1, 2], seed=1, jobs=1)
        par = evaluation.loss_curve(PCS6, data, [1, 2], seed=1, jobs=4)
        assert seq == par

    def test_one_kmeans_start_per_m(self, monkeypatch):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=17)
        starts = []
        kmc_pipeline = baselines.kmc_pipeline

        def counting_kmc_pipeline(spec, data, n_clusters, seed, **kwargs):
            starts.append((n_clusters, seed))
            return kmc_pipeline(spec, data, n_clusters, seed=seed, **kwargs)

        monkeypatch.setattr(evaluation, "kmc_pipeline", counting_kmc_pipeline)
        monkeypatch.setattr(baselines, "kmc_pipeline", counting_kmc_pipeline)
        curves = {c.scheme: c for c in evaluation.loss_curve(PCS6, data, [1, 2, 3], seed=4)}
        assert sorted(starts) == [(1, 5), (2, 6), (3, 7)]

        # the shared start reproduces a run from the k-means decisions at seed + M exactly
        for m, objective in zip([1, 2, 3], curves["dmoc"].objectives):
            init = kmc_pipeline(PCS6, data, m, seed=4 + m).representatives
            run = run_dmoc(PCS6, data, EngineConfig(n_clusters=m, seed=4 + m, init=init))
            assert objective == run.objective

        starts.clear()
        config = EngineConfig(n_clusters=3, seed=2, init="kmeans")
        results = evaluation.run_schemes(("kmc", "dmoc", "dmoc-approx"), PCS6, data, config)
        assert starts == [(3, 2)]
        assert list(results) == ["kmc", "dmoc", "dmoc-approx"]
        starts.clear()
        evaluation.run_schemes(("dmoc",), PCS6, data, EngineConfig(n_clusters=3, seed=2, init="random"))
        assert starts == []

    @pytest.mark.parametrize("p", [2, 2.0])
    def test_dmoc_approx_is_the_dmoc_run_at_p2(self, monkeypatch, p):
        # at p = 2 the approximate assignment is the exact one, so both names share one run
        spec = MetricSpec.for_pcs(n_slots=6, p=p, energy=6.0, x_max=3.0, weights=[1, 2, 1, 3, 1, 2])
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=18)
        starts, runs, memos = counting_runs(monkeypatch)
        curves = {c.scheme: c for c in evaluation.loss_curve(spec, data, [1, 2, 3], seed=2)}
        assert runs == [(m, "dmoc") for m in (1, 2, 3)]
        assert isinstance(memos[0], dict) and all(memo is memos[0] for memo in memos)
        # the shared run is bit-identical to a run with the approximate assignment
        for m, objective in zip([1, 2, 3], curves["dmoc-approx"].objectives):
            init = baselines.kmc_pipeline(spec, data, m, seed=2 + m).representatives
            config = EngineConfig(n_clusters=m, seed=2 + m, init=init)
            assert objective == run_dmoc(spec, data, config, approx_assignment=True).objective
        assert curves["dmoc-approx"].objectives == curves["dmoc"].objectives
        results = evaluation.run_schemes(("dmoc", "dmoc-approx"), spec, data, config)
        assert results["dmoc"] is results["dmoc-approx"]

    def test_pricing_sweep_prepares_the_samples_once(self, monkeypatch):
        # the perfect baseline prepares the full data into the sweep's memo, and every
        # k-means pipeline and engine run of the sweep reads it there: one full-size
        # rtp.sample_rows per loss_curve call, where each M used to prepare it twice
        spec = MetricSpec.for_rtp(n_consumers=3, n_slots=4, alpha=0.5, a=0.1, c=1.0)
        data = rtp.generate_rtp_scenario(3, 4, 60, seed=3)
        sample_rows, sizes = rtp.sample_rows, []

        def counting(values, params):
            sizes.append(np.shape(values)[0])
            return sample_rows(values, params)

        monkeypatch.setattr(rtp, "sample_rows", counting)
        curves = {}
        for jobs in (1, 2):
            sizes.clear()
            curves[jobs] = evaluation.loss_curve(
                spec, data, range(1, 7), schemes=("dmoc", "kmc"), seed=2, jobs=jobs
            )
            assert sizes.count(data.n) == 1 and len(sizes) > 1
        assert curves[1] == curves[2]
        # the same objectives as runs that prepare the samples themselves
        for m, objective in zip(range(1, 7), curves[1][0].objectives):
            init = baselines.kmc_pipeline(spec, data, m, seed=2 + m).representatives
            run = run_dmoc(spec, data, EngineConfig(n_clusters=m, seed=2 + m, init=init))
            assert objective == run.objective

    def test_unknown_scheme_rejected(self):
        data = gen_synthetic_pcs(archetypes=2, n_slots=6, n_samples=10, seed=16)
        with pytest.raises(DmocError):
            evaluation.loss_curve(PCS6, data, [1], schemes=("nope",), seed=0)


class TestRepresentativeMemo:
    """One sweep solves each distinct scheduling cluster (member set) once."""

    SPEC = MetricSpec.for_pcs(n_slots=24, p=math.inf, energy=30.0, x_max=3.0)

    @pytest.fixture(scope="class")
    def data(self):
        return gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=120, seed=23)

    @staticmethod
    def solved_clusters(monkeypatch):
        """Record the member set of every cluster handed to pcs.solve_representative."""
        solved = []
        solve = pcs.solve_representative

        def recording(data, member_indices, params):
            solved.extend(tuple(np.sort(members).tolist()) for members in member_indices)
            return solve(data, member_indices, params)

        monkeypatch.setattr(pcs, "solve_representative", recording)
        return solved

    def test_each_member_set_solved_once_per_sweep(self, data, monkeypatch, caplog):
        solved = self.solved_clusters(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="dmoc.engine"):
            curves = evaluation.loss_curve(self.SPEC, data, range(1, 9), seed=3)
        assert len(solved) == len(set(solved))
        counts = [r.representatives for r in caplog.records if hasattr(r, "representatives")]
        assert sum(c["solved"] for c in counts) == len(solved)
        assert all(c["asked"] == c["reused"] + c["solved"] for c in counts)
        assert sum(c["reused"] for c in counts) > 0  # the sweep re-forms some clusters
        # a reused representative is what a fresh solve returns: every objective equals a
        # run of its own, outside the sweep
        for curve in curves:
            if curve.scheme == "kmc":
                continue
            for (m, _), objective in zip(curve.points, curve.objectives):
                init = baselines.kmc_pipeline(self.SPEC, data, m, seed=3 + m).representatives
                config = EngineConfig(n_clusters=m, seed=3 + m, init=init)
                run = run_dmoc(self.SPEC, data, config, approx_assignment=curve.scheme == "dmoc-approx")
                assert objective == run.objective

    def test_memo_lives_for_one_call(self, data, monkeypatch):
        solved = self.solved_clusters(monkeypatch)
        first = evaluation.loss_curve(self.SPEC, data, range(1, 7), seed=3)
        once = len(solved)
        assert evaluation.loss_curve(self.SPEC, data, range(1, 7), seed=3) == first
        assert len(solved) == 2 * once
        solved.clear()
        targets = [3.0, 2.5]
        found = evaluation.clusters_for_targets(self.SPEC, data, targets, ("dmoc", "dmoc-approx"), 6)
        once = len(solved)
        assert evaluation.clusters_for_targets(self.SPEC, data, targets, ("dmoc", "dmoc-approx"), 6) == found
        assert len(solved) == 2 * once == 2 * len(set(solved))

    def test_jobs_do_not_change_results_with_memo_hits(self, data, caplog):
        with caplog.at_level(logging.DEBUG, logger="dmoc.engine"):
            seq = evaluation.loss_curve(self.SPEC, data, range(1, 9), seed=5, jobs=1)
        assert sum(r.representatives["reused"] for r in caplog.records if hasattr(r, "representatives")) > 0
        # four threads fill one memo; switching threads often makes them race for the same keys
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = evaluation.loss_curve(self.SPEC, data, range(1, 9), seed=5, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert seq == par
