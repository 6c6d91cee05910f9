"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` for the detail prints).
"""

import math
import time

import numpy as np
import pytest

from dmoc import (
    DataSet,
    EngineConfig,
    MetricSpec,
    run_dmoc,
    run_dmoc_ops,
)
from dmoc import baselines, cli, evaluation, pcs, rtp
from dmoc.data import gen_synthetic_pcs

from oracles import (
    epigraph_lp_representative,
    grid_min_pcs,
    pcs_cluster_objective,
    peak_descent_representative,
    rtp_numeric_representative,
)

PAPER_SCALE_SPEC = MetricSpec.for_pcs(n_slots=24, p=math.inf, energy=30.0, x_max=3.0)


@pytest.fixture(scope="module")
def paper_scale_sweep():
    """Timed full loss-curve sweep at the reference scale (shared by C5/C10)."""
    data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=365, seed=20)
    start = time.perf_counter()
    curves = evaluation.loss_curve(
        PAPER_SCALE_SPEC, data, range(1, 21),
        schemes=("dmoc", "dmoc-approx", "kmc"), seed=100,
    )
    elapsed = time.perf_counter() - start
    return data, {c.scheme: c for c in curves}, elapsed


def test_c01_monotone_objective_traces():
    """100 seeded synthetic runs (PCS and RTP, M in {2,5,10}): traces nondecreasing within 1e-9."""
    runs = 0

    def check(res):
        nonlocal runs
        runs += 1
        diffs = np.diff(res.trace.objectives)
        assert np.all(diffs >= -1e-9), f"trace decreased: {res.trace.objectives}"

    spec_inf = MetricSpec.for_pcs(n_slots=8, p=math.inf, energy=8.0, x_max=3.0)
    for seed in range(12):
        data = gen_synthetic_pcs(archetypes=3, n_slots=8, n_samples=40, seed=seed)
        for m in (2, 5, 10):
            check(run_dmoc(spec_inf, data, EngineConfig(n_clusters=m, seed=seed, tol=0.0)))

    spec_p2 = MetricSpec.for_pcs(n_slots=6, p=2, energy=6.0, x_max=3.0)
    for seed in range(6):
        data = gen_synthetic_pcs(archetypes=2, n_slots=6, n_samples=24, seed=100 + seed)
        for m in (2, 5, 10):
            check(run_dmoc(spec_p2, data, EngineConfig(n_clusters=m, seed=seed, tol=0.0)))

    spec_rtp = MetricSpec.for_rtp(n_consumers=3, n_slots=4, alpha=0.5, a=0.1, b=0.0, c=10.0)
    for seed in range(16):
        data = rtp.generate_rtp_scenario(3, 4, 40, seed=200 + seed)
        for m in (2, 5, 10):
            check(run_dmoc(spec_rtp, data, EngineConfig(n_clusters=m, seed=seed, tol=0.0)))

    assert runs >= 100
    print(f"[PASS] C1 monotone objective over {runs} runs")


def test_c02_rtp_closed_form_correctness():
    """Closed-form prices match a numeric maximizer within 1e-6 per coordinate;
    transformed-space assignment matches direct argmax on 1000 cases exactly."""
    # parameter ranges keep the optimal price below g_low = 2 so the instances
    # stay inside the no-over-pricing regime the closed form assumes:
    # x* <= (3a + h*b)/(a + h) < 2 with h = alpha/(2K) >= 0.04, a <= 0.05, b <= 0.4
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        t = int(rng.integers(1, 5))
        params = MetricSpec.for_rtp(
            n_consumers=k, n_slots=t, alpha=float(rng.uniform(0.4, 0.8)),
            a=float(rng.uniform(0.01, 0.05)), b=float(rng.uniform(0.0, 0.4)),
            c=float(rng.uniform(0.0, 5.0)),
        ).rtp
        members = rng.uniform(2.0, 3.0, size=(int(rng.integers(1, 7)), k * t))
        closed = rtp.closed_form_representative(members, range(members.shape[0]), params)
        numeric = rtp_numeric_representative(members, params)
        np.testing.assert_allclose(closed, numeric, atol=1e-6)

    params = MetricSpec.for_rtp(
        n_consumers=4, n_slots=3, alpha=0.5, a=0.12, b=0.2, c=3.0
    ).rtp
    for _ in range(1000):
        g = rng.uniform(2.0, 3.0, size=12)
        reps = rng.uniform(0.1, 1.9, size=(5, 3))
        direct = int(np.argmax([rtp.f1_batch(x, g, params)[0] for x in reps]))
        assert rtp.assign_batch(g, reps, params)[0] == direct
    print("[PASS] C2 closed-form prices vs numeric oracle, assignment vs direct argmax")


def test_c03_decomposition_identity():
    """Utility plus the weighted squared distance in transformed space is price-invariant (1e-8)."""
    rng = np.random.default_rng(32)
    params = MetricSpec.for_rtp(
        n_consumers=5, n_slots=4, alpha=0.5, a=0.1, b=0.15, c=10.0
    ).rtp
    constants = rtp.derived_constants(params)
    for _ in range(1000):
        g = rng.uniform(2.0, 3.0, size=20)
        z = rtp.transform_dataset(g, params, constants=constants)[0]
        x1, x2 = rng.uniform(0.0, 1.9, size=(2, 4))
        lhs = rtp.f1_batch(x1, g, params)[0] + constants.a_tilde * ((z - x1) ** 2).sum()
        rhs = rtp.f1_batch(x2, g, params)[0] + constants.a_tilde * ((z - x2) ** 2).sum()
        assert abs(lhs - rhs) <= 1e-8
    print("[PASS] C3 decomposition identity on 1000 random triples")


def test_c04_pcs_solver_agreement():
    """The p = inf route (``pcs.solve_representative``) and the LP against each other
    and the smoothed peak descent oracle: the route feasible and no worse than the LP
    by 1e-8 relative, the peak descent within 1e-4 relative of both (100 clusters);
    both within grid resolution of a T=2 grid; both within 1e-6 of valley-filling
    (200 profiles)."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        t = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        x_max = float(rng.uniform(1.0, 3.0))
        params = MetricSpec.for_pcs(
            n_slots=t, p=math.inf, energy=float(rng.uniform(0.3, 0.95) * t * x_max),
            x_max=x_max, weights=rng.uniform(0.2, 2.0, size=t),
        ).pcs
        members = rng.uniform(0.0, 3.0, size=(n, t))
        x_lp = epigraph_lp_representative(members, range(n), params)
        x_sg = peak_descent_representative(members, params)
        x_ip = pcs.solve_representative(members, [range(n)], params)[0]
        f_lp = pcs_cluster_objective(x_lp, members, params.weights, math.inf)
        f_sg = pcs_cluster_objective(x_sg, members, params.weights, math.inf)
        f_ip = pcs_cluster_objective(x_ip, members, params.weights, math.inf)
        assert abs(f_sg - f_lp) / abs(f_lp) <= 1e-4
        assert pcs.metric_ops(params).feasible(x_ip)
        # a feasible x is never better than the optimum; HiGHS may miss it by its tolerance
        assert f_ip - f_lp <= 1e-8 * abs(f_lp) + 1e-12
        assert abs(f_sg - f_ip) / abs(f_ip) <= 1e-4

    for _ in range(15):
        n = int(rng.integers(1, 4))
        w = rng.uniform(0.5, 1.5, size=2)
        params = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0, weights=w).pcs
        members = rng.uniform(0.0, 3.0, size=(n, 2))
        x_lp = epigraph_lp_representative(members, range(n), params)
        x_ip = pcs.solve_representative(members, [range(n)], params)[0]
        f_lp = pcs_cluster_objective(x_lp, members, w, math.inf)
        f_ip = pcs_cluster_objective(x_ip, members, w, math.inf)
        f_grid, _ = grid_min_pcs(members, w, math.inf, params.energy, params.x_max)
        assert f_lp <= f_grid + 1e-9
        assert f_grid - f_lp <= 0.01 * n * w.max() + 1e-9
        assert f_ip <= f_grid * (1 + 1e-8)
        assert f_grid - f_ip <= 0.01 * n * w.max() + 1e-9

    params = MetricSpec.for_pcs(n_slots=6, p=math.inf, energy=5.0, x_max=2.0).pcs
    for _ in range(200):
        g = rng.uniform(0.0, 3.0, size=6)
        wf = pcs.perfect_decisions_pcs(g, params)[0]
        lp = epigraph_lp_representative(g[None, :], [0], params)
        ip = pcs.solve_representative(g[None, :], [[0]], params)[0]
        f_wf = pcs_cluster_objective(wf, g[None, :], params.weights, math.inf)
        f_lp = pcs_cluster_objective(lp, g[None, :], params.weights, math.inf)
        f_ip = pcs_cluster_objective(ip, g[None, :], params.weights, math.inf)
        assert abs(f_wf - f_lp) <= 1e-6
        assert abs(f_wf - f_ip) <= 1e-6
    print("[PASS] C4 interior point vs LP vs peak descent vs grid vs valley-filling")


def test_c05_dominance_and_gap(paper_scale_sweep):
    """DMOC from the k-means start never loses to the pipeline at any M, and
    the mean loss ratio at M=3 over 5 seeds is at most 0.75."""
    data, curves, _ = paper_scale_sweep
    dmoc_obj = curves["dmoc"].objectives
    kmc_obj = curves["kmc"].objectives
    for m_index, m in enumerate(range(1, 21)):
        assert dmoc_obj[m_index] >= kmc_obj[m_index], f"dominance failed at M={m}"

    f_perfect = curves["dmoc"].f_perfect
    ratios = []
    for seed in range(5):
        kmc, dmoc_res = evaluation.run_schemes(
            ("kmc", "dmoc"), PAPER_SCALE_SPEC, data, EngineConfig(n_clusters=3, seed=seed, init="kmeans")
        ).values()
        loss_dmoc = evaluation.relative_loss(f_perfect, dmoc_res.objective)
        loss_kmc = evaluation.relative_loss(f_perfect, kmc.objective)
        ratios.append(loss_dmoc / loss_kmc)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 0.75
    print(f"[PASS] C5 dominance for M=1..20; mean loss ratio at M=3 = {mean_ratio:.4f}")


def test_c06_p1_triviality():
    """p=1 solver equals the cheapest-slot fill exactly for 20 random weight vectors."""
    rng = np.random.default_rng(34)
    for _ in range(20):
        t = int(rng.integers(2, 9))
        w = rng.uniform(0.1, 3.0, size=t)
        params = MetricSpec.for_pcs(n_slots=t, p=1, energy=1.5, x_max=2.0, weights=w).pcs
        members = rng.uniform(0.0, 3.0, size=(3, t))
        expected = np.zeros(t)
        expected[int(np.argmin(w))] = params.energy
        out = pcs.solve_representative(members, [range(3)], params)[0]
        np.testing.assert_array_equal(out, expected)
    print("[PASS] C6 p=1 cheapest-slot analytic solution")


def test_c07_rtp_limits():
    """Small-a prices equal b within 1e-6; large-K prices track the cluster average."""
    rng = np.random.default_rng(35)
    params_a = MetricSpec.for_rtp(n_consumers=5, n_slots=4, alpha=0.5, a=1e-8, b=0.8).rtp
    members = rng.uniform(2.0, 3.0, size=(6, 20))
    x = rtp.closed_form_representative(members, range(6), params_a)
    np.testing.assert_allclose(x, 0.8, atol=1e-6)

    k = 10_000
    params_k = MetricSpec.for_rtp(n_consumers=k, n_slots=2, alpha=0.5, a=0.1, b=0.0).rtp
    big = rng.uniform(2.0, 3.0, size=(2, 2 * k))
    x = rtp.closed_form_representative(big, range(2), params_k)
    gbar = big.reshape(2, 2, k).mean(axis=-1).mean(axis=0)
    ratio = x / gbar
    assert np.all(ratio >= 0.999) and np.all(ratio <= 1.001)
    print("[PASS] C7 small-a and large-K price limits")


def test_c08_conventional_embedding_bit_identical():
    """One engine iteration under -||x-g||^2 equals one Lloyd iteration bit for bit."""
    rng = np.random.default_rng(36)
    values = rng.uniform(0.0, 4.0, size=(60, 5))
    data = DataSet(values)
    init = baselines.kmeans_pp_init(values, 6, np.random.default_rng(7))
    ops = baselines.squared_distance_ops(5)

    engine_res = run_dmoc_ops(
        ops, data, EngineConfig(n_clusters=6, max_iters=1, tol=0.0, init=init)
    )
    km = baselines.kmeans(data, 6, seed=0, max_iters=1, init=init)
    assert np.array_equal(engine_res.partition.assignment, km.assignment.assignment)
    assert np.array_equal(engine_res.representatives, km.centroids)
    print("[PASS] C8 one engine iteration == one Lloyd iteration (bit-identical)")


def test_c09_peak_entropy_reference_points():
    """Deterministic peaks give zero entropy; uniform peaks over 24 slots give log2(24)."""
    det = gen_synthetic_pcs(archetypes=1, n_slots=24, n_samples=48, seed=37, jitter=0)
    assert evaluation.peak_entropy(evaluation.peak_histogram(det)) == 0.0

    t = 24
    values = 0.1 * np.ones((t, t))
    values[np.arange(t), np.arange(t)] = 3.0
    uniform = evaluation.peak_entropy(evaluation.peak_histogram(DataSet(values)))
    assert abs(uniform - math.log2(t)) <= 1e-12
    print("[PASS] C9 peak-entropy reference values")


def test_c10_runtime_bound(paper_scale_sweep):
    """The full loss-curve sweep (M=1..20, N=365, T=24, three schemes) takes < 10 minutes."""
    _, _, elapsed = paper_scale_sweep
    assert elapsed < 600.0
    print(f"[PASS] C10 full sweep in {elapsed:.1f}s (< 600s)")


def test_c11_byte_identical_outputs_across_jobs(tmp_path):
    """Experiments rerun with --jobs in {1,4} produce byte-identical files."""
    import yaml

    configs = {
        "loss": {
            "experiment": "loss_curve",
            "seed": 41,
            "metric": {"kind": "pcs", "n_slots": 8, "p": "inf", "energy": 8.0, "x_max": 3.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 3, "n_slots": 8,
                                     "n_samples": 60, "seed": 42}},
            "loss_curve": {"m_min": 1, "m_max": 4},
        },
        "rtp": {
            "experiment": "rtp_loss_curve",
            "seed": 43,
            "metric": {"kind": "rtp", "n_consumers": 4, "n_slots": 3, "alpha": 0.5,
                        "a": 0.1, "b": 0.0, "c": 10.0},
            "data": {"synthetic": {"kind": "rtp", "n_consumers": 4, "n_slots": 3,
                                     "n_samples": 50, "seed": 44}},
            "rtp_loss_curve": {"m_min": 1, "m_max": 4, "schemes": ["dmoc", "kmc"]},
        },
        "geometry": {
            "experiment": "geometry2d",
            "seed": 45,
            "metric": {"kind": "pcs", "n_slots": 2, "p": "inf", "energy": 2.0, "x_max": 2.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 2, "n_slots": 2,
                                     "n_samples": 40, "seed": 46}},
            "geometry2d": {"clusters": 4},
        },
        # two rounds of M at --jobs 4: kmc meets 3 kW only at M = 6, and 1 kW is unreachable
        "peak": {
            "experiment": "peak_target",
            "seed": 47,
            "metric": {"kind": "pcs", "n_slots": 8, "p": "inf", "energy": 8.0, "x_max": 3.0},
            "data": {"synthetic": {"kind": "pcs", "archetypes": 3, "n_slots": 8,
                                     "n_samples": 60, "seed": 48}},
            "peak_target": {"targets": [3.5, 3.0, 1.0], "m_max": 6,
                            "schemes": ["kmc", "dmoc", "dmoc-approx"]},
        },
    }
    for name, config in configs.items():
        outputs = {}
        for jobs in (1, 4):
            out_dir = tmp_path / f"{name}-j{jobs}"
            config["out_dir"] = str(out_dir)
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(config))
            assert cli.main(["experiment", str(path), "--jobs", str(jobs)]) == cli.EXIT_OK
            files = sorted(out_dir.glob("*.csv"))
            assert files, f"no outputs for {name}"
            outputs[jobs] = {f.name: f.read_bytes() for f in files}
        assert outputs[1] == outputs[4], f"outputs differ across jobs for {name}"
    print("[PASS] C11 byte-identical outputs across --jobs 1 and 4")
