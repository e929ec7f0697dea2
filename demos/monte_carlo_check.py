"""Monte-Carlo validation of the closed forms.

Run from the repository root (takes ~10 s):

    python3 demos/monte_carlo_check.py
"""

import dataclasses
import math

import numpy as np
from scipy import stats

from sectorrelay import analytic, simulate
from sectorrelay.model import NetworkParams

opt = NetworkParams(
    lam=1.0, alpha=3.0, beta=10.0,
    p=0.1188294545528762, phi=math.pi / 2, r_m=0.2991641893786304,
)

# =====================================================================
# the progress-density estimator
# =====================================================================
# Trials sample the network from the viewpoint of a typical transmitter:
# receivers inside the relay-search window, interferers in a near-field disk
# around the relay, and the rest of the interference integrated out exactly.
# Each trial records its conditional expected progress; everything runs on
# counter-based substreams so runs replay exactly.
print("== progress-density estimate vs closed form ==")
sim = simulate.SimConfig.for_params(opt, trials=3000, seed=7)
print(f"window {sim.window_radius:.1f}, near field {sim.guard_radius:.1f}, "
      f"{sim.trials} trials, seed {sim.seed}")
est = simulate.estimate_density_of_progress(opt, sim)
target = analytic.expected_density_closed(opt)
z = (est.mean - target) / est.std_error
print(f"simulated : {est.mean:.6e} +- {est.std_error:.2e}")
print(f"closed    : {target:.6e}")
print(f"z-score   : {z:+.2f}   relay found in {est.relay_found_fraction:.1%} of trials")
print()

# =====================================================================
# the near-field radius moves only the noise, never the mean
# =====================================================================
# Shared draws across radii: beyond each radius the interference is
# integrated exactly, so the estimates agree to within the small noise the
# radii do not share.
print("== near-field radius sensitivity (common random draws) ==")
gsim = simulate.SimConfig(window_radius=10.0, trials=400, seed=17, guard_radius=80.0)
for guard, est_g in zip([80.0, 40.0, 10.0],
                        simulate.guard_sensitivity(opt, gsim, guards=[80.0, 40.0, 10.0])):
    print(f"  radius {guard:5.1f}: {est_g.mean:.6e} +- {est_g.std_error:.2e}")
print("(no truncation bias: a tighter radius integrates more, it drops nothing)")
print()

# =====================================================================
# relay distances follow the closed law
# =====================================================================
print("== relay-distance distribution ==")
geo = dataclasses.replace(opt, r_m=0.1)
ds = simulate.sample_relay_distances(geo, window_radius=4.0, trials=4000, seed=21)
clean = ds[~np.isnan(ds)]
ks = stats.kstest(
    clean,
    lambda x: np.vectorize(lambda r: analytic.relay_distance_cdf(geo, float(r)))(x),
)
print(f"{len(clean)} relay distances, KS statistic {ks.statistic:.4f}, p = {ks.pvalue:.3f}")
print()

# =====================================================================
# link-level outage
# =====================================================================
print("== fixed-length link success ==")
print("    d     simulated           closed")
for i, d in enumerate([0.1, 0.2, 0.3]):
    p_hat, se = simulate.simulate_link_success(
        opt, d, trials=4000, seed=40 + i, interference_radius=9.0
    )
    print(f"  {d:4.2f}   {p_hat:.4f} +- {se:.4f}   {analytic.success_probability(opt, d):.4f}")
