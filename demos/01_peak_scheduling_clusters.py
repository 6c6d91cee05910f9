"""Clustering consumption days for peak-power scheduling.

A scheduler must commit one controllable consumption profile per cluster of
non-controllable load days. Conventional k-means groups days by Euclidean
shape, which mixes days whose peaks occur at different hours; clustering on
the decision utility instead groups days that admit the same good schedule.

This script plants three peak-time archetypes, then compares the relative
optimality loss of the conventional pipeline against decision-oriented
clustering as the cluster budget grows.
"""

import math

from dmoc import EngineConfig, MetricSpec
from dmoc.data import gen_synthetic_pcs
from dmoc.evaluation import (
    peak_entropy, peak_histogram, perfect_objective, relative_loss, run_schemes,
)

# a year of daily profiles, 24 slots, three planted peak-time archetypes
data = gen_synthetic_pcs(archetypes=3, n_slots=24, n_samples=365, seed=7, jitter=1)
spec = MetricSpec.for_pcs(n_slots=24, p=math.inf, energy=30.0, x_max=3.0)

entropy = peak_entropy(peak_histogram(data))
print(f"dataset: {data.n} days x {data.dim} slots, peak entropy {entropy:.2f} bits")

f_perfect = perfect_objective(spec, data)
print(f"perfect baseline (one optimal schedule per day): {f_perfect:.2f}\n")

print(f"{'M':>3} {'kmc loss %':>11} {'dmoc loss %':>12}")
for m in (1, 2, 3, 4, 6, 10):
    config = EngineConfig(n_clusters=m, seed=m, init="kmeans")
    kmc, dmoc = run_schemes(("kmc", "dmoc"), spec, data, config).values()
    print(
        f"{m:>3} {relative_loss(f_perfect, kmc.objective):>11.2f} "
        f"{relative_loss(f_perfect, dmoc.objective):>12.2f}"
    )

print(
    "\nWith three planted archetypes, three decision-oriented clusters already"
    "\nrecover nearly all of the attainable value; the conventional pipeline"
    "\nneeds many more clusters because it keys on profile magnitude, not on"
    "\nwhere the peak falls."
)
