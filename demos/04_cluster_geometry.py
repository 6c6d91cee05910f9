"""The shape of decision-oriented clusters in two dimensions.

With two consumption phases (T = 2) the cluster regions can be drawn as
ASCII maps. K-means tiles the plane into Voronoi cells around centroids;
peak-minimizing clusters instead follow the geometry of the max norm of the
shifted profile, grouping points whose two phases are similarly balanced,
exactly the structure a peak-shaving schedule cares about.
"""

import math

import numpy as np

from dmoc import EngineConfig, MetricSpec
from dmoc.core import DataSet
from dmoc.evaluation import run_schemes

rng = np.random.default_rng(5)
values = rng.uniform(0.0, 3.0, size=(400, 2))
data = DataSet(values)
spec = MetricSpec.for_pcs(n_slots=2, p=math.inf, energy=2.0, x_max=2.0)

m = 4
config = EngineConfig(n_clusters=m, seed=2, init="kmeans")
kmc, dmoc = run_schemes(("kmc", "dmoc"), spec, data, config).values()


def ascii_map(result, title):
    print(title)
    grid = [[" "] * 40 for _ in range(20)]
    for (g1, g2), label in zip(values, result.partition.assignment):
        row = 19 - min(19, int(g2 / 3.0 * 20))
        col = min(39, int(g1 / 3.0 * 40))
        grid[row][col] = "abcd"[label]
    print("\n".join("".join(r) for r in grid))
    print()


ascii_map(kmc, "k-means labels over (phase1, phase2):")
ascii_map(dmoc, "decision-oriented labels over (phase1, phase2):")

print("representative schedules (per cluster):")
for scheme, result in (("kmc", kmc), ("dmoc", dmoc)):
    reps = ", ".join(f"({x[0]:.2f}, {x[1]:.2f})" for x in result.representatives)
    print(f"  {scheme}: {reps}")

print(
    "\nThe decision-oriented map stripes along the diagonal direction where"
    "\n|phase1 - phase2| is roughly constant: days with the same imbalance"
    "\nshare the same best counter-schedule, no matter their overall level."
)
