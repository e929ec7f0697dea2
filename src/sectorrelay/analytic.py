"""Closed-form performance expressions for sector-based relay selection.

The quantity of interest is the expected density of progress: the mean,
per unit area, of the forward distance covered by successful transmissions
in one slot. For a typical transmitter it factors into

    (transmitter density) x (link success probability)
                          x (relay distance x heading cosine),

averaged over the relay distribution induced by nearest-receiver selection
inside the beam sector beyond the reference distance r_m.

Every closed form here has an independent numerical twin (quadrature over
the explicit integrand) used as an oracle by the test suite; the pairing is
deliberate and the two routes must never be collapsed into one.

Success-probability sign convention: the outage exponent is negative,
P_s = exp(-p*(phi/2pi)*lambda*t*d^2), so P_s <= 1 always. The upper bound
on the optimal reference distance is the smaller root of the quadratic

    k*C*r^2 - 4*k^(3/2)*r + 2*C  > 0,      C = lambda*(1-p)*phi,

which follows from the two-sided incomplete-gamma bound
Gamma(3/2, x) < (Gamma(1, x) + Gamma(2, x))/2 (strict for all x >= 0; see
rm_quadratic_roots for the variant with the constant term halved, kept
only for comparison because it does NOT dominate the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import specfun
from .errors import DomainError, VacuousBoundError
from .model import (
    NetworkParams,
    ProtocolVariant,
    effective_interference_constant,
    interferer_density,
    radial_decay_rate,
    relay_rate,
    spatial_interference_constant,
)

BOUND_VARIANTS = ("standard", "alternate")


# =====================================================================
# link-level success and relay geometry
# =====================================================================

def success_law(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> Callable[[float], float]:
    """The link success probability as a function of the link distance d.

    Returns d -> P_s = exp(-a*d^2), a = interferer_density * t, with a
    formed once, so a caller that evaluates many distances at fixed
    parameters pays for t and the density once. The returned function
    raises DomainError for d < 0.
    """
    a = interferer_density(params, variant) * spatial_interference_constant(
        params.alpha, params.beta
    )

    def law(d: float) -> float:
        if d < 0:
            raise DomainError(f"link distance must be >= 0, got {d}")
        return math.exp(-a * d * d)

    return law


def success_probability(
    params: NetworkParams,
    d: float,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> float:
    """Probability that a link of distance d beats the SIR threshold.

    P_s = exp(-interferer_density * t * d^2) (success_law at one d).
    Strictly decreasing in d, p, lambda and (directionally) phi; equal to 1
    at d = 0. Independent of mu: the fading mean cancels from the SIR.
    """
    return success_law(params, variant)(d)


def relay_distance_cdf(params: NetworkParams, r: float) -> float:
    """CDF of the distance to the selected relay.

    The relay is the nearest receiver (density (1-p)*lambda) in the sector
    of angle phi beyond r_m, so the void probability of the annular sector
    gives  1 - exp(-lambda*(1-p)*(phi/2)*(r^2 - r_m^2))  for r >= r_m.
    """
    if r < params.r_m:
        raise DomainError(
            f"relay distance {r} below the reference distance r_m={params.r_m}"
        )
    return -math.expm1(-relay_rate(params) * (r * r - params.r_m**2))


def relay_distance_pdf(params: NetworkParams, r: float) -> float:
    """Density of the relay distance: d/dr of relay_distance_cdf.

    f(r) = lambda*(1-p)*phi * r * exp(-lambda*(1-p)*(phi/2)*(r^2 - r_m^2)),
    with f(r_m) = lambda*(1-p)*phi*r_m at the lower edge.
    """
    if r < params.r_m:
        raise DomainError(
            f"relay distance {r} below the reference distance r_m={params.r_m}"
        )
    b = relay_rate(params)
    return 2.0 * b * r * math.exp(-b * (r * r - params.r_m**2))


# =====================================================================
# expected density of progress: closed form and quadrature twin
# =====================================================================

def _decay_rates(params: NetworkParams, variant: ProtocolVariant) -> tuple[float, float]:
    """(a, k): outage decay a and combined decay k = a + b.

    k is model.radial_decay_rate at the variant's effective interference
    constant t_eff; b = model.relay_rate is the relay-void exponent, shared
    by both variants. a = interferer_density * t is formed directly (as the
    directional density times t_eff), not as k - b, which cancels when
    p*t/pi is small against 1 - p.
    """
    t_eff = effective_interference_constant(params, variant)
    return interferer_density(params) * t_eff, radial_decay_rate(params, t_eff)


def log_expected_density(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> float:
    """Natural log of the expected density of progress (log-space route).

    log E = 2*log(lambda) + log(p) + log(1-p) + log(exp(u)*Gamma(3/2, u))
            - a*r_m^2 - (3/2)*log(k) + log(sin(phi/2)),   u = k*r_m^2.

    The scaled gamma keeps every term finite for arbitrarily large r_m, so
    this route never overflows; exponents beyond the double range simply
    come back as large negative logs.
    """
    a, k = _decay_rates(params, variant)
    u = k * params.r_m**2
    return (
        2.0 * math.log(params.lam)
        + math.log(params.p)
        + math.log1p(-params.p)
        + math.log(specfun.gamma_upper_3half_scaled(u))
        - a * params.r_m**2
        - 1.5 * math.log(k)
        + math.log(math.sin(params.phi / 2.0))
    )


def expected_density_closed(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> float:
    """Expected density of progress, closed form.

    E = lambda^2 * p * (1-p) * Gamma(3/2, k*r_m^2) * k^(-3/2)
        * exp(lambda*(1-p)*(phi/2)*r_m^2) * sin(phi/2)

    with k the variant's combined decay rate. Scales exactly as
    sqrt(lambda) under the rescaling r_m -> r_m/sqrt(lambda).
    """
    return math.exp(log_expected_density(params, variant))


def expected_density_numeric(
    params: NetworkParams,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> float:
    """Quadrature twin of expected_density_closed.

    Integrates p*lambda * P_s(x) * x * f_d(x) over [r_m, inf) numerically,
    with the heading average done analytically: the mean of cos over a
    uniform offset in [-phi/2, phi/2] is (2/phi)*sin(phi/2). The variable
    is s = b*(x^2 - r_m^2), b = model.relay_rate, in which the relay law
    is Exp(1) whatever the parameters; with dx = ds/(2*b*x) the integrand
    is P_s(x) * x * exp(-s) over s in [0, inf). The law's density is
    written in s itself, so no node recomputes x^2 - r_m^2 and pays its
    rounding, about b*r_m^2*eps relative. Its mass cannot hide in a
    thin sliver away from the lower limit (as it does in x when b*r_m^2
    is large): a fast outage decay only moves it towards s = 0, where the
    exp-sinh nodes cluster. Takes P_s only through success_law, as a black
    box, so the route stays independent of the closed form; the law is
    built once per integral, not once per node. Raises QuadratureError
    rather than return a value the rule could not certify (see
    specfun.integrate_semi_infinite).
    """
    angular_mean = 2.0 / params.phi * math.sin(params.phi / 2.0)
    b = relay_rate(params)
    r_m2 = params.r_m**2
    p_s = success_law(params, variant)

    def integrand(s: float) -> float:
        x = math.sqrt(r_m2 + s / b)
        return p_s(x) * x * math.exp(-s)

    quad = specfun.integrate_semi_infinite(integrand, 0.0)
    return params.p * params.lam * angular_mean * quad.value


# =====================================================================
# bounds and closed-form optima for the reference distance
# =====================================================================

def rm_quadratic_roots(params: NetworkParams, variant: str = "standard") -> tuple[float, float]:
    """Both roots of the bound quadratic at fixed p, smaller first.

    variant="standard": k*C*r^2 - 4*k^(3/2)*r + 2*C = 0 with
    C = lambda*(1-p)*phi. At a stationary point of the progress density,
    the strict bound Gamma(3/2, u) < (Gamma(1,u)+Gamma(2,u))/2 forces that
    quadratic positive, and the optimum falls below the smaller root; this
    is the bound that provably dominates the numerical optimum.

    variant="alternate": same quadratic with the constant term halved
    (discriminant 4k^3 - k*C^2 instead of 4k^3 - 2k*C^2). Kept only for
    side-by-side reporting: it does NOT dominate the optimum (it sits at
    about 0.52x the optimum where the standard root sits at 1.10x).

    Vieta: the product of the roots is 2/k for the standard variant and
    1/k for the alternate one (constant term over leading coefficient).
    Raises VacuousBoundError when the discriminant is negative (possible
    for the standard variant at small t): the parabola is then positive
    everywhere and the stationarity argument constrains nothing.
    """
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}; use one of {BOUND_VARIANTS}")
    k = radial_decay_rate(params)
    c = 2.0 * relay_rate(params)
    factor = 2.0 if variant == "standard" else 1.0
    disc = 4.0 * k**3 - factor * k * c * c
    if disc < 0.0:
        raise VacuousBoundError(
            f"negative discriminant ({disc:.6g}) for the {variant} bound: "
            "the quadratic has no real root and the bound is vacuous"
        )
    # the smaller root through Vieta: the difference of the two terms of
    # the textbook form cancels when c is small against k
    hi = (2.0 * k**1.5 + math.sqrt(disc)) / (k * c)
    lo = factor / k / hi
    return lo, hi


def rm_upper_bound(params: NetworkParams, variant: str = "standard") -> float:
    """Upper bound on the optimal reference distance at fixed p: the
    smaller root of rm_quadratic_roots (see there for the variants)."""
    return rm_quadratic_roots(params, variant)[0]


def rm_from_p(params: NetworkParams, p: float) -> float:
    """Closed-form optimal reference distance at the jointly optimal p.

    r_m = sqrt( 2*(p*(t-pi) + pi)*(1-2p) / (p*(1-p)*t) - 3*(t-pi)/t )
          / sqrt(phi*lambda)

    Valid only where the radicand is positive, which requires p < 1/2;
    the map agrees with the stationarity system at the joint optimum and
    scales as 1/sqrt(phi*lambda).
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    t = spatial_interference_constant(params.alpha, params.beta)
    if t <= math.pi:
        raise DomainError(
            f"closed-form r_m requires t > pi (got t={t:.6g}); "
            "the threshold/path-loss combination is outside the regime"
        )
    radicand = (
        2.0 * (p * (t - math.pi) + math.pi) * (1.0 - 2.0 * p) / (p * (1.0 - p) * t)
        - 3.0 * (t - math.pi) / t
    )
    if radicand <= 0.0:
        raise DomainError(
            f"non-positive radicand ({radicand:.6g}) in the closed-form r_m: "
            f"p={p} is outside the regime where the map is defined"
        )
    return math.sqrt(radicand) / math.sqrt(params.phi * params.lam)


# =====================================================================
# stationarity residuals in scale-free (p, u) coordinates
# =====================================================================

@dataclass(frozen=True)
class StationarityResiduals:
    """First-order conditions of the joint (p, r_m) optimum.

    Expressed in u = k*r_m^2, both residuals depend only on (p, u, t):
    the beamwidth phi cancels, which is why the jointly optimal p is
    beamwidth-independent. For the omnidirectional variant t is the
    effective constant 2*pi*t/phi (model.effective_interference_constant).

    res_rm: stationarity in the reference distance,
        Gamma(3/2, u)*(1-p) - (p*t/pi + 1 - p)*sqrt(u)*exp(-u).
    res_p: stationarity in the transmission probability,
        B(p, u)*S(u) + (t-pi)*(S(u)*u - u^(3/2)),  S(u) = exp(u)*Gamma(3/2, u),
        B = -t*u - (3/2)*(t-pi) + (1-2p)*(p*t + pi*(1-p))/(p*(1-p)).
    res_p is written without a division by (t - pi), so it is defined for
    every t > 0.
    """

    res_rm: float
    res_p: float


def stationarity_residuals(p: float, u: float, t: float) -> StationarityResiduals:
    """Evaluate both first-order residuals at scale-free coordinates (p, u).

    A joint optimum of the expected density of progress corresponds to a
    simultaneous zero. res_rm is proportional to the radial derivative of
    the progress density (same sign); res_p combines it with the
    p-derivative. Uses the scaled gamma so res_p stays finite for large u.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if u < 0.0:
        raise DomainError(f"u = k*r_m^2 must be >= 0, got {u}")
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"stationarity residuals require finite t > 0, got t={t:.6g}")
    g = specfun.gamma_upper_3half(u)
    res_rm = g * (1.0 - p) - (p * t / math.pi + 1.0 - p) * math.sqrt(u) * math.exp(-u)
    s = specfun.gamma_upper_3half_scaled(u)
    bracket = (
        -t * u
        - 1.5 * (t - math.pi)
        + (1.0 - 2.0 * p) * (p * t + math.pi * (1.0 - p)) / (p * (1.0 - p))
    )
    res_p = bracket * s + (t - math.pi) * (s * u - u**1.5)
    return StationarityResiduals(res_rm=res_rm, res_p=res_p)
