"""Representative electricity tariffs from clustered demand parameters.

A provider serves K consumers whose per-slot satisfaction parameters vary
day to day. For the welfare-minus-procurement-cost utility, both halves of
the clustering problem have closed forms: days cluster by nearest point in
an affine transform of the parameter space (essentially the slot-wise sum of
satisfaction parameters), and each cluster's best tariff is an affine
function of its average satisfaction parameter.

The script verifies the two structural facts numerically and then compares
the optimality loss of decision-oriented clustering against the k-means
pipeline on a year of random days.
"""

import numpy as np

from dmoc import EngineConfig, MetricSpec
from dmoc.evaluation import perfect_objective, relative_loss, run_schemes
from dmoc import rtp

spec = MetricSpec.for_rtp(n_consumers=5, n_slots=4, alpha=0.5, a=0.1, b=0.0, c=10.0)
params = spec.rtp
data = rtp.generate_rtp_scenario(5, 4, 365, seed=3, g_low=2.0, g_high=3.0)

constants = rtp.derived_constants(params)
print(
    f"derived constants: a_tilde={constants.a_tilde:.3f} "
    f"kappa={constants.kappa:.4f} beta={constants.beta:.3f}"
)

# structural fact 1: utility + a_tilde * squared distance in transformed
# space does not depend on the tariff (so nearest-in-transform = best cluster)
rng = np.random.default_rng(0)
g = data.values[0]
z = rtp.transform_dataset(g, params)[0]
x1, x2 = rng.uniform(0.5, 1.5, size=(2, 4))
inv1 = rtp.f1_batch(x1, g, params)[0] + constants.a_tilde * ((z - x1) ** 2).sum()
inv2 = rtp.f1_batch(x2, g, params)[0] + constants.a_tilde * ((z - x2) ** 2).sum()
print(f"price-invariant remainder at two random tariffs: {inv1:.6f} vs {inv2:.6f}")

# structural fact 2: the closed-form tariff tracks the cluster average
members = data.values[:30]
star = rtp.closed_form_representative(members, range(30), params)
gbar = members.reshape(30, 4, 5).mean(axis=(0, 2))
print(f"best tariff:      {np.round(star, 4)}")
print(f"cluster average:  {np.round(gbar, 4)}  (tariff = 2/3 of it at these costs)\n")

f_perfect = perfect_objective(spec, data)
print(f"{'M':>3} {'kmc loss %':>11} {'dmoc loss %':>12}")
for m in (1, 2, 4, 8, 16):
    config = EngineConfig(n_clusters=m, seed=m, init="kmeans")
    kmc, dmoc = run_schemes(("kmc", "dmoc"), spec, data, config).values()
    print(
        f"{m:>3} {relative_loss(f_perfect, kmc.objective):>11.3f} "
        f"{relative_loss(f_perfect, dmoc.objective):>12.3f}"
    )

print(
    "\nThe gap is smaller than in peak scheduling because this utility is"
    "\nquadratic, so the decision-oriented clusters are themselves Euclidean"
    "\ncells, just in the transformed space that sums consumers' parameters."
)
