"""The benchmark's workloads: inputs built from a seed, one timed operation, its checks.

Every operation is one whole loss-curve sweep. A workload object is built
in three steps: ``prepare`` makes the inputs and warms the code up (timed as
set-up), ``reference`` computes the independent values the checks compare
against (not timed), and ``run`` performs one sweep and returns its rows
``(scheme, m, objective, rho_percent, f_perfect)``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from pathlib import Path

import numpy as np

import checks
import dmoc.cli
from dmoc import MetricSpec, baselines, evaluation
from dmoc.core import DataSet

T = 24
ENERGY = 30.0
X_MAX = 3.0
RTP = {"n_consumers": 5, "n_slots": 24, "alpha": 0.5, "a": 0.1, "b": 0.0, "c": 10.0}


def pcs_profiles(n: int, seed) -> np.ndarray:
    """Daily load profiles (kW, T=24) with three planted peak-time archetypes.

    Each day is a smooth base load with a random overall scale, plus one
    peak bump (and two shoulders) at its archetype's slot, shifted by up to
    one slot. The archetype counts are balanced, so a seed changes which day
    has which archetype but not how many days each archetype has.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(np.arange(n) % 3)
    peak = (np.array([4, 12, 20])[kinds] + rng.integers(-1, 2, size=n)) % T
    height = 2.0 * rng.uniform(0.85, 1.15, size=n)
    t = np.arange(T)
    base = 0.4 * rng.uniform(0.6, 1.4, size=n)[:, None] * (1.0 + 0.25 * np.sin(2 * np.pi * (t + 2) / T))
    g = base + rng.uniform(0.0, 0.02, size=(n, T))
    rows = np.arange(n)
    g[rows, peak] += height
    g[rows, (peak - 1) % T] += 0.35 * height
    g[rows, (peak + 1) % T] += 0.35 * height
    return g


def _curve_rows(curves) -> list:
    return [
        (c.scheme, m, obj, rho, c.f_perfect)
        for c in curves
        for (m, rho), obj in zip(c.points, c.objectives)
    ]


class PcsSweep:
    """``evaluation.loss_curve`` on scheduling profiles at p = inf, in memory."""

    def __init__(self, n_samples: int, m_max: int, schemes: tuple, seed: int, instances: int):
        self.n, self.seed, self.instances = n_samples, seed, instances
        self.m_values, self.schemes = list(range(1, m_max + 1)), schemes
        self.spec = MetricSpec.for_pcs(n_slots=T, p=math.inf, energy=ENERGY, x_max=X_MAX)

    def prepare(self) -> None:
        self.data = [DataSet(pcs_profiles(self.n, [self.seed, i])) for i in range(self.instances)]
        # warm-up: the first HiGHS call and every scheme's code path, on a tiny sweep
        tiny = DataSet(pcs_profiles(12, self.seed))
        evaluation.loss_curve(self.spec, tiny, [1, 2], schemes=self.schemes, seed=self.seed)

    def reference(self) -> None:
        self.f_perfect = [
            -float(checks.water_fill_peaks(d.values, self.spec.pcs.weights, ENERGY, X_MAX).sum())
            for d in self.data
        ]

    def run(self, i: int) -> list:
        curves = evaluation.loss_curve(
            self.spec, self.data[i], self.m_values, schemes=self.schemes, seed=self.seed, jobs=1
        )
        return _curve_rows(curves)

    def check(self, i: int, rows) -> None:
        checks.check_curves(rows, self.schemes, self.m_values, self.f_perfect[i])


class RtpCliSweep:
    """``dmoc experiment`` with an rtp_loss_curve config, called in-process through ``dmoc.cli.main``."""

    schemes = ("dmoc", "kmc")

    def __init__(self, seed: int, workdir: Path, instances: int, n_samples: int = 2000, m_max: int = 20):
        self.seed, self.workdir, self.instances, self.n = seed, workdir, instances, n_samples
        self.m_values = list(range(1, m_max + 1))

    def _write_inputs(self, name: str, seed, n: int, m_max: int) -> tuple:
        """Write a pricing CSV and its experiment config; return the config path and the values."""
        values = np.random.default_rng(seed).uniform(2.0, 3.0, size=(n, RTP["n_consumers"] * RTP["n_slots"]))
        np.savetxt(self.workdir / f"{name}.csv", values, fmt="%.9g", delimiter=",")
        metric = ", ".join(f"{k}: {v}" for k, v in RTP.items())
        path = self.workdir / f"{name}.yaml"
        path.write_text(
            "experiment: rtp_loss_curve\n"
            f"metric: {{kind: rtp, {metric}}}\n"
            f"data: {{path: {json.dumps(str(self.workdir / f'{name}.csv'))}}}\n"
            f"rtp_loss_curve: {{m_min: 1, m_max: {m_max}, schemes: [dmoc, kmc]}}\n"
        )
        return path, values

    def _cli(self, config: Path) -> Path:
        out = self.workdir / f"out-{config.stem}"
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = dmoc.cli.main(
                ["experiment", str(config), "--seed", str(self.seed), "--jobs", "1", "--out-dir", str(out)]
            )
        if code != 0:
            raise RuntimeError(f"dmoc experiment exited with code {code}")
        return out / "rtp_loss_curve.csv"

    def prepare(self) -> None:
        m_max = self.m_values[-1]
        inputs = [self._write_inputs(f"pricing{i}", [self.seed, i], self.n, m_max) for i in range(self.instances)]
        self.configs = [config for config, _ in inputs]
        # warm-up: CSV load, k-means, the closed forms and the CSV write, on a tiny sweep
        self._cli(self._write_inputs("tiny", self.seed, 12, 2)[0])
        # and one Lloyd iteration at every M on full-size data: without it the first sweep
        # in a process ran 13-19% slower, while the allocator grew to the (N, M, d) arrays
        full = DataSet(inputs[0][1])
        for m in self.m_values:
            baselines.kmeans(full, m, seed=self.seed, max_iters=1)

    def reference(self) -> None:
        self.f_perfect = [
            checks.rtp_perfect_objective(np.loadtxt(self.workdir / f"pricing{i}.csv", delimiter=","), **RTP)
            for i in range(self.instances)
        ]

    def run(self, i: int) -> list:
        with open(self._cli(self.configs[i]), newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["scheme", "m", "objective", "rho_percent", "f_perfect"]:
                raise checks.CheckError("unexpected rtp_loss_curve.csv header")
            return [tuple(r) for r in reader]

    def check(self, i: int, rows) -> None:
        checks.check_curves(rows, self.schemes, self.m_values, self.f_perfect[i])


def make(name: str, seed: int, workdir: Path):
    if name == "pcs-paper-sweep":
        return PcsSweep(365, 20, ("dmoc", "dmoc-approx", "kmc"), seed, instances=4)
    if name == "pcs-large-n":
        return PcsSweep(4000, 2, ("dmoc", "kmc"), seed, instances=2)
    if name == "rtp-cli-sweep":
        return RtpCliSweep(seed, workdir, instances=4)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pcs-paper-sweep", "pcs-large-n", "rtp-cli-sweep")
