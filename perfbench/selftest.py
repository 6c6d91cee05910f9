"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the repository root. It shows that the independent references are
right (water-filling against an LP, the exact price maximization against a
dense price grid, outside the no-over-pricing regime too), that the checks
pass the real output of small sweeps, and that they reject each kind of
corrupted output. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from run import THREAD_VARS  # noqa: E402

for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message) -> None:
    if not condition:
        raise AssertionError(message)


def lp_peak(g, w, energy, x_max) -> float:
    """min t subject to w_t (x_t + g_t) <= t, 0 <= x <= x_max, sum(x) >= energy."""
    T = g.size
    a_ub = np.hstack([np.diag(w), -np.ones((T, 1))])
    a_ub = np.vstack([a_ub, np.concatenate([-np.ones(T), [0.0]])])
    b_ub = np.concatenate([-w * g, [-energy]])
    c = np.concatenate([np.zeros(T), [1.0]])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, x_max)] * T + [(None, None)], method="highs")
    return res.fun


def check_references(rng) -> None:
    g = rng.uniform(0.0, 3.0, size=(20, 6))
    w = rng.uniform(0.5, 2.0, size=6)
    peaks = checks.water_fill_peaks(g, w, 7.0, 2.0)
    expected = [lp_peak(row, w, 7.0, 2.0) for row in g]
    expect(np.allclose(peaks, expected, rtol=1e-7), (peaks, expected))

    k, t = 4, 3
    for a, b in ((0.1, 0.0), (1.0, 0.3), (5.0, 2.0)):  # the last two over-price some consumers
        values = rng.uniform(2.0, 3.0, size=(5, k * t))
        grid = np.linspace(0.0, 3.5, 350001)
        g = values.reshape(-1, t, k)
        dense = sum(
            checks._slot_welfare(grid, g[n, s][None, :], 0.5, a, b, 10.0).max()
            for n in range(g.shape[0])
            for s in range(t)
        )
        exact = checks.rtp_perfect_objective(values, k, t, 0.5, a, b, 10.0)
        expect(exact >= dense - 1e-9 and exact - dense < 1e-6 * abs(dense), (a, b, exact, dense))


def corruptions(rows):
    """(name, corrupted rows) pairs, each of which a correct check must reject."""
    def with_row(i, **change):
        fields = ("scheme", "m", "objective", "rho_percent", "f_perfect")
        out = list(rows)
        row = dict(zip(fields, out[i]))
        row.update(change)
        out[i] = tuple(row[f] for f in fields)
        return out

    f_perfect = float(rows[0][4])
    first_dmoc = next(i for i, r in enumerate(rows) if r[0] == "dmoc")
    kmc = {int(r[1]): float(r[2]) for r in rows if r[0] == "kmc"}
    m = int(rows[first_dmoc][1])
    low = kmc[m] - 1.0
    yield "missing row", rows[:-1]
    yield "duplicate row", rows[:-1] + [rows[0]]
    yield "unknown scheme", with_row(0, scheme="other")
    wrong = f_perfect + 1e-5 * abs(f_perfect)  # losses recomputed, so only the reference can tell
    yield "wrong f_perfect everywhere", [
        (r[0], r[1], r[2], (wrong - float(r[2])) / abs(wrong) * 100.0, wrong) for r in rows
    ]
    yield "two f_perfect values", with_row(0, f_perfect=f_perfect * (1 + 1e-3))
    yield "negative loss", with_row(0, rho_percent=-1e-3)
    yield "objective above perfect", with_row(0, objective=f_perfect + abs(f_perfect) * 1e-3)
    yield "loss inconsistent with objective", with_row(0, rho_percent=float(rows[0][3]) + 0.5)
    yield "non-finite objective", with_row(0, objective=float("nan"))
    yield "dominance broken", with_row(
        first_dmoc, objective=low, rho_percent=(f_perfect - low) / abs(f_perfect) * 100.0
    )


def check_rejections(workload) -> int:
    workload.prepare()
    workload.reference()
    rows = list(workload.run(0))
    workload.check(0, rows)
    failures = 0
    for name, bad in corruptions(rows):
        try:
            workload.check(0, bad)
        except checks.CheckError:
            continue
        print(f"FAIL: {type(workload).__name__} accepted corrupted output: {name}")
        failures += 1
    return failures


def main() -> int:
    check_references(np.random.default_rng(0))
    workdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        failures = check_rejections(workloads.PcsSweep(30, 3, ("dmoc", "dmoc-approx", "kmc"), 5, instances=1))
        failures += check_rejections(workloads.RtpCliSweep(5, workdir, instances=1, n_samples=40, m_max=3))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
