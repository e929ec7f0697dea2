"""Find and certify the jointly optimal operating point (p*, r_m*).

Run from the repository root:

    python3 demos/optimal_operating_point.py
"""

import dataclasses
import math

import numpy as np

from sectorrelay import analytic, optimize
from sectorrelay.model import (
    NetworkParams,
    ProtocolVariant,
    radial_decay_rate,
    spatial_interference_constant,
)

base = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)

# =====================================================================
# joint optimization, certified by a bracketed root
# =====================================================================
print("== joint optimum at phi = pi/2 ==")
best = optimize.optimize_joint(base)
print(f"p*   = {best.p_star:.12f}")
print(f"r_m* = {best.rm_star:.12f}")
print(f"E*   = {best.objective:.12e}")
print(f"stationarity residuals: ({best.residual_rm:.2e}, {best.residual_p:.2e})")
print()

# =====================================================================
# the scale-free stationarity system
# =====================================================================
# Both first-order conditions can be written in (p, u) with u = k r_m^2;
# the beamwidth cancels entirely. The radial one gives p exactly as a
# function of u, and the optimum is the one sign change of dlogF/dp along
# that curve. optimize_joint is this solve plus r_m* = sqrt(u*/k).
print("== scale-free system ==")
t = spatial_interference_constant(base.alpha, base.beta)
p_sys, u_sys = optimize.solve_stationary_system(t)
k = radial_decay_rate(dataclasses.replace(base, p=p_sys))
print(f"(p*, u*) = ({p_sys:.12f}, {u_sys:.12f})")
print(f"r_m* from u*: {math.sqrt(u_sys / k):.12f}  (matches the optimizer)")
print()

# =====================================================================
# p* does not move with the beamwidth
# =====================================================================
print("== beamwidth sweep ==")
print("    phi      p*            r_m*         E*")
p_dir, p_omni = [], []
for phi in np.linspace(math.pi / 6, 2 * math.pi, 8):
    at_phi = dataclasses.replace(base, phi=float(phi))
    d = optimize.optimize_joint(at_phi)
    p_dir.append(d.p_star)
    p_omni.append(optimize.optimize_joint(at_phi, ProtocolVariant.OMNIDIRECTIONAL).p_star)
    print(f"  {phi:6.3f}   {d.p_star:.10f}  {d.rm_star:.8f}  {d.objective:.6e}")
print(f"spread of p* (directional): {max(p_dir) - min(p_dir):.3e}   <- beamwidth-free")
print(f"spread of p* (omni)       : {max(p_omni) - min(p_omni):.3e}   <- genuinely moves")
print()

# =====================================================================
# the upper-bound variants at fixed access probability
# =====================================================================
# Holding p fixed, a quadratic sufficient condition brackets the optimal
# reference distance from above. Two root variants circulate, differing
# only in whether the constant term is doubled; only the doubled one is a
# true bound (~1.10x the argmax, beamwidth-free ratio). The other sits
# BELOW the argmax (~0.52x) and must never be quoted as a bound.
print("== upper-bound variants at fixed p = 0.1 ==")
at_p = dataclasses.replace(base, p=0.1)
rm_opt = optimize.optimize_rm(at_p).rm_star
print(f"numeric argmax r_m   : {rm_opt:.8f}")
print(f"bound, standard      : {analytic.rm_upper_bound(at_p, 'standard'):.8f}"
      f"  ratio {analytic.rm_upper_bound(at_p, 'standard') / rm_opt:.4f}")
print(f"bound, alternate     : {analytic.rm_upper_bound(at_p, 'alternate'):.8f}"
      f"  ratio {analytic.rm_upper_bound(at_p, 'alternate') / rm_opt:.4f}  (NOT a bound)")
print()

# =====================================================================
# closed-form reference distance at the joint optimum
# =====================================================================
# Eliminating the radial coordinate from the two stationarity conditions
# leaves r_m as an explicit expression in p alone. It is valid on the
# joint stationarity manifold - evaluate it at p*, not at an arbitrary p.
print("== closed-form r_m at the joint optimum ==")
rm_closed = analytic.rm_from_p(base, best.p_star)
print(f"closed form at p*    : {rm_closed:.12f}")
print(f"optimizer r_m*       : {best.rm_star:.12f}")
print(f"relative gap         : {abs(rm_closed - best.rm_star) / best.rm_star:.3e}")
print()

# =====================================================================
# the optimum scales as sqrt(density)
# =====================================================================
print("== sqrt(lambda) scaling ==")
print("   lam     E*            E*/sqrt(lam)")
for lam in [0.5, 1.0, 2.0, 4.0]:
    res = optimize.optimize_joint(dataclasses.replace(base, lam=lam))
    print(f"  {lam:4.1f}   {res.objective:.8e}  {res.objective / math.sqrt(lam):.12e}")
