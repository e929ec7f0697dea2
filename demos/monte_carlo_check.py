"""Monte-Carlo validation of the closed forms.

Run from the repository root (takes ~2 s):

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
# the relay distance from its law (the nearest receiver in the sector beyond
# r_m, whose d^2 - r_m^2 is exponential), stratified over blocks of 128
# trials, the distances of the interferers whose beam covers the relay in a
# near-field disk around it (a thinned Poisson process), and the rest of the
# interference and the relay's angle integrated out exactly. Each trial
# records its conditional expected progress; the trials are drawn in order
# from seeded SFC64 streams, one for the relays and one for the near field,
# so runs replay exactly.
print("== progress-density estimate vs closed form ==")
sim = simulate.SimConfig.for_params(opt, trials=3000, seed=7)
print(f"near field {sim.guard_radius:.1f}, {sim.trials} trials, seed {sim.seed}")
est = simulate.estimate_density_of_progress(opt, sim)
target = analytic.expected_density_closed(opt)
z = (est.mean - target) / est.std_error
print(f"simulated : {est.mean:.6e} +- {est.std_error:.2e}")
print(f"closed    : {target:.6e}")
print(f"z-score   : {z:+.2f}")
print()

# =====================================================================
# the near-field radius moves only the noise, never the mean
# =====================================================================
# One run per radius, each its own estimate (the seed is shared, so are the
# relay draws; the near-field draws are not): beyond each radius the
# interference is integrated exactly, so the estimates agree to within
# their noise.
print("== near-field radius sensitivity (independent runs) ==")
for guard in [80.0, 40.0, 10.0]:
    gsim = simulate.SimConfig(trials=400, seed=17, guard_radius=guard)
    est_g = simulate.estimate_density_of_progress(opt, gsim)
    print(f"  radius {guard:5.1f}: {est_g.mean:.6e} +- {est_g.std_error:.2e}")
print("(no truncation bias: a tighter radius integrates more, it drops nothing)")
print()

# =====================================================================
# relay distances follow the closed law
# =====================================================================
# An independent draw: receivers fill a whole disk and the relay is picked
# among them, so this also checks the law the kernel draws from, and the
# uniform angle on the sector that it integrates out.
print("== relay-distance distribution ==")
geo = dataclasses.replace(opt, r_m=0.1)
ds, angles = simulate.sample_relay_distances(geo, window_radius=4.0, trials=4000, seed=21)
clean = ds[~np.isnan(ds)]
ks = stats.kstest(
    clean,
    lambda x: np.vectorize(lambda r: analytic.relay_distance_cdf(geo, float(r)))(x),
)
print(f"{len(clean)} relay distances, KS statistic {ks.statistic:.4f}, p = {ks.pvalue:.3f}")
ks = stats.kstest(angles[~np.isnan(angles)] / geo.phi + 0.5, "uniform")
print(f"relay angles on the sector: KS statistic {ks.statistic:.4f}, p = {ks.pvalue:.3f}")
print()

# =====================================================================
# link-level outage
# =====================================================================
# Raw links: interferer positions, beam headings, sector coverage and fading
# are all drawn, where the kernel integrates them out; the share of trials
# whose SIR beats beta estimates the success probability.
print("== fixed-length link success ==")
print("    d     simulated           closed")
for i, d in enumerate([0.1, 0.2, 0.3]):
    sir = simulate.sample_link_sir(opt, np.full(4000, d), seed=40 + i, interference_radius=9.0)
    p_hat = np.mean(sir > opt.beta)
    se = math.sqrt(p_hat * (1.0 - p_hat) / len(sir))
    print(f"  {d:4.2f}   {p_hat:.4f} +- {se:.4f}   {analytic.success_probability(opt, d):.4f}")
