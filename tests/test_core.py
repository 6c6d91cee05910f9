import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmoc import (
    DataSet,
    DimensionError,
    DmocError,
    InfeasibleDecisionError,
    MetricSpec,
    Partition,
    RunTrace,
    ClusteringResult,
    evaluate_utility,
    metric_ops,
    total_utility,
)
from dmoc import baselines, core


def pcs_spec(**kwargs):
    defaults = dict(n_slots=2, p=math.inf, energy=1e-12, x_max=5.0)
    defaults.update(kwargs)
    return MetricSpec.for_pcs(**defaults)


def rtp_spec(**kwargs):
    defaults = dict(n_consumers=1, n_slots=1, alpha=0.5, a=0.0, b=0.0, c=0.0)
    defaults.update(kwargs)
    return MetricSpec.for_rtp(**defaults)


class TestEvaluateUtility:
    def test_pcs_peak(self):
        # -max(3, 1); the tiny energy need keeps x = 0 feasible within tolerance
        assert evaluate_utility(pcs_spec(), [0.0, 0.0], [3.0, 1.0]) == -3.0

    def test_pcs_zero_profile(self):
        assert evaluate_utility(pcs_spec(), [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_rtp_single_slot(self):
        # load (2-0)/0.5 = 4, utility 2*4 - 0.25*16 = 4, no cost
        assert evaluate_utility(rtp_spec(), [0.0], [2.0]) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate_utility(pcs_spec(), [0.0, 0.0, 0.0], [3.0, 1.0])
        with pytest.raises(DimensionError):
            evaluate_utility(pcs_spec(), [0.0, 0.0], [3.0])

    def test_infeasible_decision(self):
        spec = pcs_spec(energy=30.0, n_slots=24, x_max=3.0)
        with pytest.raises(InfeasibleDecisionError):
            evaluate_utility(spec, np.zeros(24), np.ones(24))

    def test_deterministic(self):
        spec = pcs_spec(energy=2.0, x_max=2.0)
        x, g = [1.0, 1.0], [0.3, 2.7]
        assert evaluate_utility(spec, x, g) == evaluate_utility(spec, x, g)

    @given(
        st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2),
        st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2),
    )
    def test_pcs_symmetry_in_x_and_g(self, x, g):
        # f2 depends on x + g only, so swapping roles changes nothing when
        # both vectors are feasible as decisions
        spec = pcs_spec(x_max=4.0)
        assert evaluate_utility(spec, x, g) == evaluate_utility(spec, g, x)


class TestCheckFeasible:
    def test_pcs_energy_boundary(self):
        feasible = metric_ops(pcs_spec(n_slots=24, energy=30.0, x_max=3.0)).feasible
        assert feasible(np.full(24, 1.25))[0]
        assert not feasible(np.zeros(24))[0]

    def test_rtp_positivity(self):
        feasible = metric_ops(rtp_spec(n_slots=2)).feasible
        assert not feasible([1.0, -0.5])[0]
        assert feasible([0.0, 0.0])[0]  # within the 1e-9 tolerance

    def test_pcs_box(self):
        feasible = metric_ops(pcs_spec(n_slots=2, energy=1.0, x_max=2.0)).feasible
        assert not feasible([2.5, 0.5])[0]
        assert feasible([2.0, 0.0])[0]

    def test_dimension_precondition(self):
        with pytest.raises(DimensionError):
            metric_ops(pcs_spec()).feasible([1.0])


class TestTotalUtility:
    def test_singleton_sum(self):
        spec = pcs_spec(energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 1.0]])
        result = ClusteringResult(
            partition=Partition([0], 1),
            representatives=[[1.0, 1.0]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        assert total_utility(spec, result, data) == evaluate_utility(
            spec, [1.0, 1.0], [3.0, 1.0]
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(DmocError):
            DataSet(np.empty((0, 2)))

    def test_symmetric_pair_doubles(self):
        spec = pcs_spec(energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 0.0], [0.0, 3.0]])
        result = ClusteringResult(
            partition=Partition([0, 1], 2),
            representatives=[[0.0, 2.0], [2.0, 0.0]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        single = evaluate_utility(spec, [0.0, 2.0], [3.0, 0.0])
        assert total_utility(spec, result, data) == pytest.approx(2 * single, abs=1e-9)

    def test_size_mismatch(self):
        spec = pcs_spec(energy=2.0, x_max=2.0)
        data = DataSet([[3.0, 1.0], [1.0, 3.0]])
        result = ClusteringResult(
            partition=Partition([0], 1),
            representatives=[[1.0, 1.0]],
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        with pytest.raises(DimensionError):
            total_utility(spec, result, data)

    def test_matches_per_sample_sum_any_order(self):
        spec = pcs_spec(n_slots=3, energy=2.0, x_max=2.0)
        rng = np.random.default_rng(0)
        data = DataSet(rng.uniform(0, 3, size=(25, 3)))
        reps = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assignment = rng.integers(0, 2, size=25)
        result = ClusteringResult(
            partition=Partition(assignment, 2),
            representatives=reps,
            objective=0.0,
            trace=RunTrace((0.0,), True),
        )
        per_sample = [
            evaluate_utility(spec, reps[assignment[n]], data.values[n]) for n in range(25)
        ]
        assert total_utility(spec, result, data) == pytest.approx(
            sum(reversed(per_sample)), abs=1e-9
        )


def _weights(t):
    w = np.random.default_rng(7).uniform(0.2, 3.0, size=t)
    w[1] = 0.0
    return w


BATCH_CASES = [
    pytest.param(spec, id=f"pcs-p{p}-{label}")
    for p in (1, 2, 3, math.inf)
    for label, spec in (
        ("uniform", MetricSpec.for_pcs(n_slots=5, p=p, energy=5.0, x_max=3.0)),
        ("weighted", MetricSpec.for_pcs(n_slots=5, p=p, energy=5.0, x_max=3.0, weights=_weights(5))),
    )
] + [
    pytest.param(rtp_spec(n_consumers=3, n_slots=4, a=0.1, c=1.0), id="rtp-safe"),
    pytest.param(rtp_spec(n_consumers=3, n_slots=4, a=1.0, b=0.2), id="rtp-over-priced"),
    pytest.param(None, id="squared-distance"),
]


def _batch_ops(spec):
    """The metric's ops and its (data, decision) dimensions; None is the squared distance in 5-d."""
    if spec is None:
        return baselines.squared_distance_ops(5), 5, 5
    return metric_ops(spec), spec.data_dim, spec.decision_dim


class TestBatchedMetricOps:
    @pytest.mark.parametrize("spec", BATCH_CASES)
    def test_batched_calls_equal_row_by_row_calls(self, spec):
        rng = np.random.default_rng(3)
        ops, data_dim, decision_dim = _batch_ops(spec)
        values = ops.prepare(rng.uniform(0.0, 3.0, size=(12, data_dim)))
        decisions = ops.perfect_decisions(values)
        assert decisions.shape == (12, decision_dim)
        np.testing.assert_array_equal(
            decisions, np.stack([ops.perfect_decisions(v[None, :])[0] for v in values])
        )
        # paired: a decision per row (a sample's decision often over-prices another's)
        paired = decisions[rng.permutation(12)]
        np.testing.assert_array_equal(
            ops.utilities(paired, values),
            [ops.utilities(x, v[None, :])[0] for x, v in zip(paired, values)],
        )
        # shared: one decision for every row
        np.testing.assert_array_equal(
            ops.utilities(decisions[0], values),
            [ops.utilities(decisions[0], v[None, :])[0] for v in values],
        )

    @pytest.mark.parametrize("spec", BATCH_CASES)
    def test_batched_representatives_equal_per_cluster_calls(self, spec):
        rng = np.random.default_rng(4)
        ops, data_dim, decision_dim = _batch_ops(spec)
        values = ops.prepare(rng.uniform(0.0, 3.0, size=(12, data_dim)))
        assignment = np.array([2, 0, 4, 2, 2, 0, 4, 4, 0, 2, 4, 0])  # cluster 1 and 3 empty
        clusters = np.array([4, 0, 2])
        batch = ops.best_representatives(values, assignment, clusters)
        assert batch.shape == (3, decision_dim)
        for i, m in enumerate(clusters):
            members = np.nonzero(assignment == m)[0]
            one = ops.best_representatives(values, assignment, [m])
            alone = ops.best_representatives(values[members], np.zeros(members.size, int), [0])
            np.testing.assert_array_equal(batch[i], one[0])
            np.testing.assert_array_equal(batch[i], alone[0])

    @pytest.mark.parametrize("spec", BATCH_CASES)
    def test_batched_feasibility_equals_row_by_row_calls(self, spec):
        ops, data_dim, decision_dim = _batch_ops(spec)
        values = ops.prepare(np.random.default_rng(5).uniform(0.0, 3.0, size=(6, data_dim)))
        decisions = ops.perfect_decisions(values)
        # negative, empty and doubled decisions break the sign, energy and cap constraints
        rows = np.vstack([decisions, -decisions, 0.0 * decisions, 2.0 * decisions])
        ok = ops.feasible(rows)
        assert ok.shape == (24,) and ok.dtype == bool
        np.testing.assert_array_equal(ok, [ops.feasible(x)[0] for x in rows])
        assert ok[:6].all() and (spec is None or not ok[6:12].any())
        with pytest.raises(DimensionError, match=f"has length {decision_dim + 1}, expected"):
            ops.feasible(np.zeros((2, decision_dim + 1)))
        with pytest.raises(DmocError, match="non-finite"):
            ops.feasible(np.full(decision_dim, np.nan))


class TestTypes:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_partition_members_cover_and_disjoint(self, assignment):
        part = Partition(np.array(assignment), 5)
        seen = np.concatenate([part.members(m) for m in range(5)])
        assert sorted(seen.tolist()) == list(range(len(assignment)))
        assert part.counts().sum() == len(assignment)

    def test_partition_rejects_out_of_range(self):
        with pytest.raises(DmocError):
            Partition([0, 3], 3)
        with pytest.raises(DmocError):
            Partition([-1, 0], 2)

    def test_dataset_validation(self):
        with pytest.raises(DmocError):
            DataSet([[1.0, -2.0]])
        with pytest.raises(DmocError):
            DataSet([[np.nan, 1.0]])
        with pytest.raises(DimensionError):
            DataSet([1.0, 2.0])

    def test_dataset_immutable(self):
        data = DataSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0

    def test_metric_spec_exactly_one(self):
        with pytest.raises(DmocError):
            MetricSpec(kind="rtp")
        with pytest.raises(DmocError):
            MetricSpec(kind="nope")

    def test_pcs_params_require_feasible_set(self):
        with pytest.raises(DmocError):
            MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=10.0, x_max=3.0)

    def test_pcs_params_reject_bad_p(self):
        with pytest.raises(DmocError):
            MetricSpec.for_pcs(n_slots=2, p=1.5, energy=1.0, x_max=3.0)

    def test_clustering_result_rep_count(self):
        with pytest.raises(DimensionError):
            ClusteringResult(
                partition=Partition([0, 1], 2),
                representatives=[[1.0, 1.0]],
                objective=0.0,
                trace=RunTrace((0.0,), True),
            )


@st.composite
def center_cases(draw):
    """(values, centers) with the cases the GEMM ranking gets wrong or nearly wrong:
    exact ties on a coarse grid, a sample planted midway between two centers,
    duplicated centers, centers one ulp apart, an offset of 1e6 (where the
    expansion cancels) and negative coordinates."""
    n, m, dim = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3).map(float), min_size=dim, max_size=dim)
    values = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    centers = np.array(draw(st.lists(row, min_size=m, max_size=m)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    values, centers = offset + scale * values, offset + scale * centers
    if draw(st.booleans()):
        values[0] = (centers[0] + centers[-1]) / 2
    if m > 1 and draw(st.booleans()):
        centers[1] = centers[0]
    if m > 1 and draw(st.booleans()):
        centers[-1] = np.nextafter(centers[0], np.inf)
    return values, centers


class TestNearestCenters:
    def test_distances_match_broadcast_form_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 7, 8, 9, 24, 120, 130):
            values = rng.uniform(0.0, 3.0, size=(50, dim))
            centers = rng.uniform(0.0, 3.0, size=(7, dim))
            broadcast = ((values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
            assert np.array_equal(core.sq_distances(values, centers), broadcast)
            # one row at a time, as the kernel re-measures near ties
            assert np.array_equal(
                np.vstack([core.sq_distances(v[None, :], centers) for v in values]), broadcast
            )

    @given(center_cases())
    def test_equals_argmin_of_direct_distances(self, case):
        values, centers = case
        expected = np.argmin(core.sq_distances(values, centers), axis=1)
        np.testing.assert_array_equal(core.nearest_centers(values, centers), expected)

    def test_near_ties_are_re_measured_and_clear_winners_are_not(self, monkeypatch):
        measured = []

        def counting(values, centers):
            measured.append(values.shape[0])
            return direct(values, centers)

        direct = core.sq_distances
        monkeypatch.setattr(core, "sq_distances", counting)
        rng = np.random.default_rng(2)
        centers = rng.uniform(-1.0, 1.0, size=(4, 24))
        values = np.vstack([centers + 0.01 * rng.normal(size=(4, 24))] * 50)
        nearest = core.nearest_centers(values, centers)
        np.testing.assert_array_equal(nearest, np.tile(np.arange(4), 50))
        assert measured == []
        # exact ties (midpoints, duplicated centers), one ulp apart, and near ties at 1e6,
        # where the expansion cancels
        midway = (centers[0] + centers[1]) / 2 + 1e-6 * rng.normal(size=(20, 24))
        cases = [
            (np.vstack([values, (centers[0] + centers[2]) / 2]), centers),
            (values, np.vstack([centers, centers[1]])),
            (values, np.vstack([centers, np.nextafter(centers[3], np.inf)])),
            (midway + 1e6, centers + 1e6),
        ]
        for v, c in cases:
            np.testing.assert_array_equal(
                core.nearest_centers(v, c), np.argmin(direct(v, c), axis=1)
            )
        assert len(measured) == len(cases) and min(measured) >= 1
        # ties go to the lowest index
        assert core.nearest_centers(centers[1:2], np.vstack([centers, centers[1]]))[0] == 1

    @given(center_cases())
    def test_best_distances_within_kernel_bound(self, case):
        values, centers = case
        v_sq = np.einsum("ij,ij->i", values, values)
        nearest, best = core._nearest_centers(values, centers, v_sq)
        direct = core.sq_distances(values, centers)
        np.testing.assert_array_equal(nearest, direct.argmin(axis=1))
        u, dim = np.finfo(float).eps / 2, values.shape[1]
        gamma = (dim + 3) * u / (1 - (dim + 3) * u)
        reach = np.sqrt((centers**2).sum(axis=1).max())
        bound = 2 * gamma * (np.sqrt(v_sq) + reach) ** 2 * (1 + 1e-9)
        floor = 8 * (dim + 4) * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(best - direct[np.arange(len(values)), nearest]) <= bound + floor)

    def test_overflowed_expansion_is_re_measured(self, monkeypatch):
        measured = []

        def counting(values, centers):
            measured.append(values.shape[0])
            return direct(values, centers)

        direct = core.sq_distances
        monkeypatch.setattr(core, "sq_distances", counting)
        # ||v||^2 of the first row overflows, and its expansion is -inf + inf = NaN
        values = np.array([[1e200, 0.0], [1.0, 1.0]])
        centers = np.array([[1e200, 1.0], [0.0, 0.0], [1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            nearest, best = core._nearest_centers(values, centers, np.einsum("ij,ij->i", values, values))
        assert nearest[0] == 0 and best[0] == 1.0
        assert measured and measured[0] >= 1

    @pytest.mark.parametrize(
        "n_rows, row_floats", [(0, 5), (1, 5), (10, 3000), (9000, 1), (20000, 7)]
    )
    def test_row_blocks_cover_every_row_in_order(self, n_rows, row_floats):
        blocks = core.row_blocks(n_rows, row_floats)
        covered = [i for b in blocks for i in range(n_rows)[b]]
        assert covered == list(range(n_rows))
        sizes = [len(range(n_rows)[b]) for b in blocks]
        assert all(1 <= s <= max(1, core.BLOCK_FLOATS // row_floats) for s in sizes)
