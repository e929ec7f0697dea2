"""Optimization of the expected density of progress.

Both protocol variants share one scale-free objective. With u = k*r_m^2
and tau = t_eff/pi,

    E = sqrt(lambda) * sin(phi/2) * (phi/2)^(-3/2) * F(p, u; tau),
    F = p*(1-p) * c^(-3/2) * Gamma(3/2, u) * exp(u*(1-p)/c),  c = 1 + p*(tau-1),

where t_eff is the variant's effective interference constant
(model.effective_interference_constant): t for the directional variant,
2*pi*t/phi for the omnidirectional one. Density and beamwidth only scale
F, so the optimal (p, u) depends on tau alone.

One solve serves every optimum. The radial condition dF/du = 0 is linear
in p and gives p exactly,

    p(u) = (S - sqrt(u)) / (S + (tau-1)*sqrt(u)),   S = exp(u)*Gamma(3/2, u),

which lies in (0, 1) for every u > 0 and tau > 0. The joint optimum is the
one sign change of dlogF/dp along that curve: negative as u -> 0, positive
as u -> inf. The bracket is found by halving and doubling u from 1, and
Brent's method (_brent, a port of scipy's brentq) narrows it to a
relative width of U_RTOL; a sign change narrowed that far is the
certificate. optimize_rm finds the root of the radial condition in u at
fixed p the same way. The test suite checks both against brute-force
grids on the closed form.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import analytic, specfun
from .errors import DomainError, RootFindError
from .model import (
    NetworkParams,
    ProtocolVariant,
    effective_interference_constant,
    radial_decay_rate,
)

#: Relative width to which Brent's method narrows a bracket in u (the
#: smallest rtol scipy's brentq accepts).
U_RTOL = 4.0 * sys.float_info.epsilon

#: Largest relative error that rounding p* to a double may leave in 1 - p*.
#: As t -> 0, p* -> 1: the solver forms 1 - p* without cancellation, but the
#: result's r_m*, objective and residuals see 1 - fl(p*). Over beta from
#: -300 to -110 dB (alpha 2.001 to 10, both variants, phi = pi/2) a 0.1 %
#: step in p* or r_m* beat the reported optimum where that error passed
#: 1.2e-3, and nowhere it stayed below 8.3e-4.
P_ROUNDING_RTOL = 1e-3


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an optimization run.

    converged is True when the optimum sits in a sign change of the
    objective's slope in u that Brent's method narrowed to a relative
    width of U_RTOL: the optimum is then certified. iterations counts the
    bracket steps and the Brent iterations. residual_rm and residual_p are
    the stationarity residuals at the optimum, evaluated at the variant's
    effective interference constant. Fixed-p searches (optimize_rm) report
    p_star None and residual_p nan.
    """

    p_star: float | None
    rm_star: float
    objective: float
    iterations: int
    converged: bool
    residual_rm: float
    residual_p: float = math.nan


def _split_p(u: float, tau: float) -> tuple[float, float]:
    """(p, 1 - p) solving the radial condition at u, each without cancellation.

    S - sqrt(u) = exp(u)*Gamma(1/2, u)/2, so p = g/(g + tau*sqrt(u)) with
    g = exp(u)*Gamma(1/2, u)/2.
    """
    s = math.sqrt(u)
    g = specfun.gamma_upper_half_scaled(u) / 2.0
    d = g + tau * s
    return g / d, tau * s / d


def _ridge_slope(u: float, tau: float) -> float:
    """-dlogF/dp at (p(u), u).

    On the curve p(u) the radial derivative vanishes and p decreases in u,
    so this has the sign of d/du F(p(u), u): positive below the joint
    optimum, negative above it.
    """
    p, q = _split_p(u, tau)
    c = q + p * tau  # = 1 + p*(tau - 1), without cancellation as p -> 1
    return 1.0 / q - 1.0 / p + 1.5 * (tau - 1.0) / c + u * tau / (c * c)


def _radial_slope(u: float, p: float, tau: float) -> float:
    """exp(u) * res_rm at fixed p: the sign of dF/du.

    Equals g*(1-p) - p*tau*sqrt(u) with g = exp(u)*Gamma(1/2, u)/2, which
    is positive at u = 0 and negative as u -> inf.
    """
    return specfun.gamma_upper_half_scaled(u) / 2.0 * (1.0 - p) - p * tau * math.sqrt(u)


def _brent(
    f: Callable[[float], float], xa: float, xb: float, fa: float, fb: float,
    xtol: float, rtol: float, maxiter: int = 100,
) -> tuple[float, int, bool]:
    """Brent's root of f in [xa, xb], where f(xa) = fa and f(xb) = fb are
    nonzero and of opposite sign.

    Statement for statement the algorithm of scipy's brentq (zeros/brentq.c),
    so it takes the same steps: inverse quadratic or secant steps while
    they shrink the bracket fast enough, bisection otherwise, until the
    bracket is narrower than xtol + rtol*|x|. Returns (root, iterations,
    converged); converged is False after maxiter iterations.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    return xcur, maxiter, False


def _ascent_root(slope: Callable[[float], float]) -> tuple[float, int, bool]:
    """Root of a slope that is positive below it and negative above it.

    Halves u from 1 until the slope is positive and doubles it until the
    slope is negative, then narrows that bracket with Brent's method.
    Returns (u, iterations, converged). Raises RootFindError, with the probed u
    values and slopes as its sign map, when halving reaches 0 or doubling
    reaches inf first.
    """
    probes: list[tuple[float, float]] = []

    def probe(u: float) -> float:
        if not 0.0 < u < math.inf:
            raise RootFindError(
                "no sign change of the slope for any positive finite u",
                sign_map={"u": [u for u, _ in probes], "slope": [v for _, v in probes]},
            )
        probes.append((u, slope(u)))
        return probes[-1][1]

    lo = hi = 1.0
    while not probe(lo) > 0.0:
        lo, hi = lo / 2.0, lo
    f_lo = probes[-1][1]
    while not probe(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        f_lo = probes[-1][1]
    u, iterations, converged = _brent(
        slope, lo, hi, f_lo, probes[-1][1], xtol=U_RTOL * lo, rtol=U_RTOL
    )
    return u, len(probes) + iterations, converged


def _stationary_point(t: float) -> tuple[float, float, float, int, bool]:
    """(p*, 1 - p*, u*, iterations, converged) at interference constant t,
    with 1 - p* formed without cancellation."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"stationarity system requires finite t > 0, got t={t:.6g}")
    tau = t / math.pi
    u, iterations, converged = _ascent_root(lambda x: _ridge_slope(x, tau))
    return (*_split_p(u, tau), u, iterations, converged)


def solve_stationary_system(t: float) -> tuple[float, float]:
    """Solve both stationarity residuals for (p*, u*) at interference constant t.

    Defined for every t > 0: p comes from the radial condition, u from the
    one sign change of dlogF/dp along it (see the module docstring). The
    beamwidth does not enter. Raises RootFindError when no bracket turns
    up or Brent's method does not converge in it.
    """
    p, _, u, _, converged = _stationary_point(t)
    if not converged:
        raise RootFindError(
            f"Brent's method did not converge on the stationary point for t={t:.6g}"
        )
    return p, u


def _result(
    params: NetworkParams,
    variant: ProtocolVariant,
    t_eff: float,
    p: float,
    u: float,
    iterations: int,
    converged: bool,
    fixed_p: bool,
) -> OptimizationResult:
    at_p = dataclasses.replace(params, p=p)
    rm = math.sqrt(u / radial_decay_rate(at_p, t_eff))
    res = analytic.stationarity_residuals(p, u, t_eff)
    return OptimizationResult(
        p_star=None if fixed_p else p,
        rm_star=rm,
        objective=analytic.expected_density_closed(
            dataclasses.replace(at_p, r_m=rm), variant
        ),
        iterations=iterations,
        converged=converged,
        residual_rm=res.res_rm,
        residual_p=math.nan if fixed_p else res.res_p,
    )


def optimize_rm(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> OptimizationResult:
    """Best reference distance at fixed p (other params from ``params``).

    The radial residual is positive at u = 0 and negative as u -> inf, and
    its one root in u gives r_m* = sqrt(u*/k).
    """
    t_eff = effective_interference_constant(params, variant)
    p, tau = params.p, t_eff / math.pi
    u, iterations, converged = _ascent_root(lambda x: _radial_slope(x, p, tau))
    return _result(params, variant, t_eff, p, u, iterations, converged, fixed_p=True)


def optimize_joint(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> OptimizationResult:
    """Jointly optimize (p, r_m) for the given variant.

    The stationary point at the variant's t_eff, then r_m* = sqrt(u*/k).
    The starting p and r_m in ``params`` are not used. Raises DomainError,
    naming alpha and beta, when p* lies so close to 1 that the nearest
    double misses 1 - p* by more than P_ROUNDING_RTOL relative.
    """
    t_eff = effective_interference_constant(params, variant)
    p, q, u, iterations, converged = _stationary_point(t_eff)
    if not (q > 0.0 and abs((1.0 - p) - q) <= P_ROUNDING_RTOL * q):
        raise DomainError(
            f"alpha = {params.alpha:.6g} and beta = {params.beta:.6g} put the optimal p "
            f"within rounding of 1: 1 - p* = {q:.6g}, but the nearest double to p* leaves "
            f"{1.0 - p:.6g}, more than {P_ROUNDING_RTOL:g} relative away, so r_m* and the "
            "objective cannot be evaluated at p*"
        )
    return _result(params, variant, t_eff, p, u, iterations, converged, fixed_p=False)
