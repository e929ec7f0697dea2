"""Tour of the closed-form building blocks at the default operating point.

Run from the repository root after `pip install -e .`:

    python3 demos/closed_form_tour.py
"""

import math

import numpy as np

from sectorrelay import analytic
from sectorrelay.model import (
    NetworkParams,
    radial_decay_rate,
    spatial_interference_constant,
)

params = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2, r_m=0.3)

# =====================================================================
# the spatial interference constant
# =====================================================================
# All interference geometry collapses into one constant t(alpha, beta):
# the outage exponent of a unit-density field of interferers at unit
# link distance. For alpha=3, beta=10 dB it is ~35.3 -- interference is
# expensive, which is why the optimal transmission probability is small.
# The radial decay rate k = (lambda*phi/2)*(p*t/pi + 1 - p) folds t and
# the relay-void rate into the decay of the progress integrand.
print("== spatial interference constant ==")
t = spatial_interference_constant(params.alpha, params.beta)
print(f"t(alpha={params.alpha}, beta={params.beta}) = {t:.6f}")
print(f"radial decay rate k = {radial_decay_rate(params, t):.6f}")
print()

# =====================================================================
# link success probability
# =====================================================================
# A sector-restricted transmitter sees interferers thinned to density
# p * lam * phi / (2*pi); success decays as a Gaussian in link distance.
print("== success probability vs distance ==")
print(f"interferer density (directional): {analytic.interferer_density(params):.6f}")
print(f"interferer density (omni):        {params.p * params.lam:.6f}")
print("    d     P(success)")
for d in [0.1, 0.2, 0.3, 0.5, 0.8]:
    print(f"  {d:4.2f}   {analytic.success_probability(params, d):.6f}")
print()

# =====================================================================
# relay distance law
# =====================================================================
# The chosen relay is the nearest receiver in the sector beyond the
# reference distance r_m; its distance follows a truncated Rayleigh-type
# law. The pdf integrates to 1 and the cdf starts at r_m.
print("== relay distance law (r_m = 0.3) ==")
print("    r     cdf        pdf")
for r in [0.3, 0.5, 1.0, 1.5, 2.5]:
    cdf = analytic.relay_distance_cdf(params, r)
    pdf = analytic.relay_distance_pdf(params, r)
    print(f"  {r:4.2f}   {cdf:.6f}   {pdf:.6f}")
print()

# =====================================================================
# expected density of progress, two routes
# =====================================================================
# The headline quantity multiplies attempt density, success probability
# and forward progress, averaged over the relay law. The closed form and
# direct quadrature must agree to rounding.
print("== expected density of progress ==")
closed = analytic.expected_density_closed(params)
numeric = analytic.expected_density_numeric(params)
print(f"closed form : {closed:.12e}")
print(f"quadrature  : {numeric:.12e}")
print(f"relative gap: {abs(closed - numeric) / numeric:.3e}")
print()

# sweep r_m to see the interior optimum: small r_m wastes progress on
# timid hops, large r_m kills the success probability
print("    r_m    E[progress density]")
for rm in np.linspace(0.0, 0.8, 9):
    val = analytic.expected_density_closed(
        NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2, r_m=float(rm))
    )
    bar = "#" * int(round(val / 0.03 * 40))
    print(f"  {rm:5.2f}   {val:.6e}  {bar}")
