import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmoc import DataSet, DimensionError, DmocError, EngineConfig, MetricSpec, metric_ops
from dmoc import baselines, evaluation
from dmoc.core import BLOCK_FLOATS
from dmoc.data import gen_synthetic_pcs

from oracles import best_two_partition_inertia, reference_kmeans


@st.composite
def lloyd_cases(draw):
    """(data, M, seed, max_iters): rows on a coarse grid (duplicated rows, tied
    distances) or uniform, at three scales, with M up to N (empty-cluster repair)
    and caps of 1 to 3 iterations besides the default."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        values = rng.integers(0, 3, size=(n, dim)).astype(float)
    else:
        values = rng.uniform(0.0, 3.0, size=(n, dim))
    values *= draw(st.sampled_from([1.0, 1e-3, 1e3]))
    m = draw(st.integers(1, n))
    return DataSet(values), m, draw(st.integers(0, 3)), draw(st.sampled_from([1, 2, 3, 100]))


class TestKmeans:
    def test_each_distinct_sample_its_own_centroid(self):
        values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        km = baselines.kmeans(DataSet(values), 4, seed=0)
        assert km.inertia == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_is_mean(self):
        values = np.random.default_rng(0).uniform(0, 3, size=(15, 4))
        km = baselines.kmeans(DataSet(values), 1, seed=0)
        np.testing.assert_allclose(km.centroids[0], values.mean(axis=0))

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(loc=1.0, scale=0.05, size=(6, 2)).clip(min=0)
        blob_b = rng.normal(loc=5.0, scale=0.05, size=(6, 2)).clip(min=0)
        values = np.vstack([blob_a, blob_b])
        km = baselines.kmeans(DataSet(values), 2, seed=3)
        labels = km.assignment.assignment
        assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
        assert labels[0] != labels[6]
        assert km.inertia == pytest.approx(best_two_partition_inertia(values), abs=1e-9)
        single = baselines.kmeans(DataSet(values), 1, seed=3)
        assert km.inertia < single.inertia

    def test_lloyd_inertia_nonincreasing(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=50, seed=5)
        km = baselines.kmeans(data, 4, seed=1)
        diffs = np.diff(km.inertia_trace)
        assert np.all(diffs <= 1e-9)

    def test_max_iters_below_one_rejected(self):
        data = DataSet(np.random.default_rng(0).uniform(0, 3, size=(6, 2)))
        with pytest.raises(DmocError, match="max_iters"):
            baselines.kmeans(data, 2, seed=0, max_iters=0)

    def test_seed_determinism(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=6, n_samples=30, seed=2)
        a = baselines.kmeans(data, 3, seed=9)
        b = baselines.kmeans(data, 3, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignment.assignment, b.assignment.assignment)

    def test_m_larger_than_n(self):
        with pytest.raises(DmocError):
            baselines.kmeans(DataSet([[1.0, 2.0]]), 2, seed=0)

    def test_init_centroids_are_validated(self):
        data = DataSet(np.random.default_rng(0).uniform(0, 3, size=(6, 3)))
        for bad in ([[np.nan, 1, 1], [2, 2, 2]], [[np.inf, 1, 1], [2, 2, 2]]):
            with pytest.raises(DmocError, match="init centroids contains non-finite"):
                baselines.kmeans(data, 2, seed=0, init=bad)
        with pytest.raises(DimensionError, match="init centroids has length 2, expected 3"):
            baselines.kmeans(data, 2, seed=0, init=[[1, 1], [2, 2]])
        with pytest.raises(DmocError, match="init centroids have shape"):
            baselines.kmeans(data, 2, seed=0, init=[[1, 1, 1]])
        km = baselines.kmeans(data, 2, seed=0, init=[[0, 0, 0], [3, 3, 3]])
        assert km.centroids.shape == (2, 3)

    def test_inertia_measures_final_centroids(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=50, seed=6)
        for max_iters in (1, 2, 100):
            km = baselines.kmeans(data, 4, seed=2, max_iters=max_iters)
            labels = km.assignment.assignment
            direct = ((data.values - km.centroids[labels]) ** 2).sum()
            assert km.inertia == pytest.approx(direct, rel=1e-12)
            assert len(km.inertia_trace) <= max_iters

    @settings(max_examples=300, deadline=None)
    @given(lloyd_cases())
    def test_matches_reference_lloyd_loop(self, case):
        data, m, seed, max_iters = case
        km = baselines.kmeans(data, m, seed=seed, max_iters=max_iters)
        ref = reference_kmeans(data, m, seed=seed, max_iters=max_iters)
        np.testing.assert_array_equal(km.centroids, ref.centroids)
        np.testing.assert_array_equal(km.assignment.assignment, ref.assignment.assignment)
        assert km.inertia == ref.inertia
        assert len(km.inertia_trace) == len(ref.inertia_trace)
        # each centroid is a row or a mean of rows, so max ||c|| <= max ||v||: the kernel's
        # bound 2 gamma_{d+3} (||v|| + max ||c||)^2 per row, plus the rounding of two sums
        # of n nonnegative terms
        u = np.finfo(float).eps / 2
        gamma = (data.dim + 3) * u / (1 - (data.dim + 3) * u)
        norms = np.sqrt((data.values**2).sum(axis=1))
        bound = 2 * gamma * ((norms + norms.max()) ** 2).sum() * (1 + 1e-9)
        for approx, exact in zip(km.inertia_trace, ref.inertia_trace):
            assert abs(approx - exact) <= bound + 4 * data.n * u * exact

    def test_kmeans_pp_blocked_distances_equal_one_shot(self):
        def one_shot_init(values, n_clusters, rng):
            n = values.shape[0]
            picks = [int(rng.integers(n))]
            d2 = ((values - values[picks[0]]) ** 2).sum(axis=1)
            for _ in range(1, n_clusters):
                total = d2.sum()
                pick = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
                picks.append(pick)
                d2 = np.minimum(d2, ((values - values[pick]) ** 2).sum(axis=1))
            return values[picks]

        dim = 120
        n = 3 * (BLOCK_FLOATS // dim) + 7  # four row blocks, the last one partial
        values = np.random.default_rng(8).uniform(2.0, 3.0, size=(n, dim))
        np.testing.assert_array_equal(
            baselines._distances_to(values, values[5]), ((values - values[5]) ** 2).sum(axis=1)
        )
        for seed in range(3):
            np.testing.assert_array_equal(
                baselines.kmeans_pp_init(values, 20, np.random.default_rng(seed)),
                one_shot_init(values, 20, np.random.default_rng(seed)),
            )


class TestKmcPipeline:
    def test_m_equals_n_matches_perfect(self):
        from dmoc.evaluation import perfect_objective

        data = gen_synthetic_pcs(archetypes=2, n_slots=4, n_samples=6, seed=3)
        spec = MetricSpec.for_pcs(n_slots=4, p=math.inf, energy=4.0, x_max=3.0)
        res = baselines.kmc_pipeline(spec, data, 6, seed=0)
        assert res.objective == pytest.approx(perfect_objective(spec, data), abs=1e-6)

    def test_symmetric_pair_single_cluster(self):
        # centroid (1.5, 1.5), uniform fill (1, 1): each sample costs max(4, 1)
        spec = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 0.0], [0.0, 3.0]])
        res = baselines.kmc_pipeline(spec, data, 1, seed=0)
        np.testing.assert_allclose(res.representatives[0], [1.0, 1.0], atol=1e-9)
        assert res.objective == pytest.approx(-8.0, abs=1e-9)

    def test_representatives_always_feasible(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=7)
        spec = MetricSpec.for_pcs(n_slots=8, p=math.inf, energy=10.0, x_max=3.0)
        res = baselines.kmc_pipeline(spec, data, 5, seed=2)
        for rep in res.representatives:
            assert metric_ops(spec).feasible(rep)[0]

    def test_rtp_pipeline_feasible_and_positive(self):
        from dmoc import rtp

        data = rtp.generate_rtp_scenario(4, 3, 30, seed=4)
        spec = MetricSpec.for_rtp(n_consumers=4, n_slots=3, alpha=0.5, a=0.1, c=2.0)
        res = baselines.kmc_pipeline(spec, data, 3, seed=1)
        assert np.all(res.representatives > 0)

    def test_dmoc_from_kmeans_dominates(self):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=8)
        spec = MetricSpec.for_pcs(n_slots=8, p=math.inf, energy=10.0, x_max=3.0)
        for m in (1, 3, 5):
            kmc, dmoc_res = evaluation.run_schemes(
                ("kmc", "dmoc"), spec, data, EngineConfig(n_clusters=m, seed=3, init="kmeans")
            ).values()
            assert dmoc_res.objective >= kmc.objective
