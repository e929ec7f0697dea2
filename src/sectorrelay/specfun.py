"""Special functions and quadrature used by the analytic formulas.

Everything downstream (success probabilities, expected density of progress,
stationarity residuals) reduces to two primitives:

  - the upper incomplete gamma function at shape 3/2,
  - semi-infinite quadrature for the independent numerical cross-checks.

Only shape 3/2 is provided (plus shape 1/2, which solves the radial
optimality condition for p); this is not a general incomplete-gamma library.
Both primitives are written here on top of the standard library: the
scaled complementary error function behind shape 1/2, and the exp-sinh
double-exponential rule of Takahasi and Mori for the quadrature.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureError

SQRT_PI = math.sqrt(math.pi)

# Gamma(3/2) = sqrt(pi)/2, the x=0 value of the upper incomplete gamma.
GAMMA_3HALF = SQRT_PI / 2.0

#: Below this x, exp(x)*erfc(sqrt(x)) loses nothing; above it the
#: continued fraction converges within _ERFCX_TERMS terms.
_ERFCX_SPLIT = 16.0
_ERFCX_TERMS = 40


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a converged numerical integration."""

    value: float
    abs_error_estimate: float
    evaluations: int


def gamma_upper_3half(x: float) -> float:
    """Upper incomplete gamma of shape 3/2: integral of sqrt(u)*exp(-u) on [x, inf).

    Uses the closed form sqrt(pi)/2 * erfc(sqrt(x)) + sqrt(x)*exp(-x),
    which is the stable rearrangement of
    Gamma(3/2) + sqrt(x)*exp(-x) - sqrt(pi)/2 * erf(sqrt(x)):
    erfc avoids the cancellation of the erf form for large x.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_3half requires x >= 0, got {x}")
    if x == 0.0:
        return GAMMA_3HALF
    s = math.sqrt(x)
    return GAMMA_3HALF * math.erfc(s) + s * math.exp(-x)


def gamma_upper_half_scaled(x: float) -> float:
    """exp(x) * Gamma(1/2, x) = sqrt(pi) * erfcx(sqrt(x)) for any x >= 0.

    Decays like 1/sqrt(x), with full relative precision: it is the
    difference exp(x)*Gamma(3/2, x) - sqrt(x) (times 2) without the
    cancellation of subtracting the two. Below x = 16 it is
    sqrt(pi)*exp(x)*erfc(sqrt(x)), where erfc(4) ~ 1.5e-8 is still far
    from underflow. Above, it is Laplace's continued fraction
    1/(r + (1/2)/(r + 1/(r + (3/2)/(r + ...)))) with r = sqrt(x),
    evaluated backwards from 40 terms.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_half_scaled requires x >= 0, got {x}")
    r = math.sqrt(x)
    if x < _ERFCX_SPLIT:
        return SQRT_PI * math.erfc(r) * math.exp(x)
    f = r
    for n in range(_ERFCX_TERMS, 0, -1):
        f = r + 0.5 * n / f
    return 1.0 / f


def gamma_upper_3half_scaled(x: float) -> float:
    """exp(x) * Gamma(3/2, x), computed without overflow for any x >= 0.

    By Gamma(3/2, x) = Gamma(1/2, x)/2 + sqrt(x)*exp(-x), the scaled form
    sqrt(pi)/2 * erfcx(sqrt(x)) + sqrt(x) stays O(sqrt(x)) as x grows,
    where the unscaled product would overflow past x ~ 709.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_3half_scaled requires x >= 0, got {x}")
    return gamma_upper_half_scaled(x) / 2.0 + math.sqrt(x)


# =====================================================================
# exp-sinh quadrature on [lower, inf)
# =====================================================================

#: Two successive step sizes must agree to this relative tolerance.
QUAD_RTOL = 1e-10

#: Range of the exp-sinh variable t and the step sizes tried, coarsest
#: first: h = 1/2, 1/4, ..., 1/128.
_T_LO, _T_HI = -5.0, 3.0
_LEVELS = 8


def _exp_sinh_level(h: float, odd: bool) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The offsets x - lower and the weights dx/dt at t = j*h in
    [_T_LO, _T_HI], every j or odd j only."""
    step = 2 if odd else 1
    nodes = []
    for j in range(round(_T_LO / h) + odd, round(_T_HI / h) + 1, step):
        t = j * h
        x = math.exp(0.5 * math.pi * math.sinh(t))
        nodes.append((x, 0.5 * math.pi * math.cosh(t) * x))
    return tuple(zip(*nodes))


#: (offsets, weights) per level; each level after the first holds only the
#: nodes that halving h adds. The first level's ends are t = _T_LO, _T_HI.
_LEVEL_TABLES = tuple(_exp_sinh_level(0.5 / 2**n, n > 0) for n in range(_LEVELS))


def integrate_semi_infinite(f: Callable[[float], float], lower: float) -> QuadratureResult:
    """Quadrature of f over [lower, inf) by the exp-sinh rule.

    The double-exponential substitution of Takahasi and Mori (1974),
    x = lower + exp((pi/2)*sinh t), makes the transformed integrand
    decay double-exponentially at both ends of t for integrands that
    vanish at infinity faster than 1/x and have at most an integrable
    singularity at lower; the trapezoid rule in t then converges
    exponentially in 1/h, each halving of h about doubling the correct
    digits. t runs over [-5, 3], that is
    x - lower from about 1e-51 to 7e6, with h halved from 1/2 to 1/128,
    each halving evaluating only the new nodes. The nodes' offsets from
    lower and their weights are tabulated once, at import, one pair of
    tuples per step size (_LEVEL_TABLES). The value is returned
    once two successive step sizes agree to QUAD_RTOL relative; the
    reported abs_error_estimate is their difference.

    Raises QuadratureError when no step size converges, when the
    integrand does not vanish at the ends of the t range (a tail heavier
    than the range covers, or a non-integrable singularity), or when the
    value is 0 although the integrand was not; a silent wrong value is
    never returned.
    """
    if not math.isfinite(lower):
        raise DomainError(f"lower limit must be finite, got {lower}")
    lower = float(lower)
    h = 1.0
    value = math.nan
    nonzero = False
    evaluations = 0
    for level, (offsets, weights) in enumerate(_LEVEL_TABLES):
        fx = [f(lower + x) for x in offsets]
        evaluations += len(fx)
        nonzero = nonzero or any(fx)
        h *= 0.5
        added = h * math.fsum(map(operator.mul, weights, fx))
        previous = value
        if level == 0:
            ends = abs(weights[0] * fx[0]) + abs(weights[-1] * fx[-1])
            value = added
        else:
            value = 0.5 * previous + added
        if abs(value - previous) <= QUAD_RTOL * abs(value):
            break
    else:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge from lower={lower}: "
            f"step sizes {2 * h} and {h} disagree ({previous!r} against {value!r})"
        )
    if h * ends > QUAD_RTOL * abs(value):
        raise QuadratureError(
            f"semi-infinite quadrature from lower={lower}: the integrand does not "
            "vanish at the ends of the exp-sinh range (a heavy tail or a singularity)"
        )
    if value == 0.0 and nonzero:
        raise QuadratureError(
            f"semi-infinite quadrature from lower={lower} underflowed to 0 "
            "although the integrand is nonzero"
        )
    return QuadratureResult(
        value=value,
        abs_error_estimate=abs(value - previous),
        evaluations=evaluations,
    )
