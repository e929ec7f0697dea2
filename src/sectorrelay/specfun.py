"""Special functions and quadrature used by the analytic formulas.

Everything downstream (success probabilities, expected density of progress,
stationarity residuals) reduces to two primitives:

  - the upper incomplete gamma function at shape 3/2,
  - semi-infinite quadrature for the independent numerical cross-checks.

Only shape 3/2 is provided (plus shape 1/2, which solves the radial
optimality condition for p); this is not a general incomplete-gamma library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .errors import DomainError, QuadratureError

SQRT_PI = math.sqrt(math.pi)

# Gamma(3/2) = sqrt(pi)/2, the x=0 value of the upper incomplete gamma.
GAMMA_3HALF = SQRT_PI / 2.0


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
    cancellation of subtracting the two.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_half_scaled requires x >= 0, got {x}")
    return SQRT_PI * float(_special.erfcx(math.sqrt(x)))


def gamma_upper_3half_scaled(x: float) -> float:
    """exp(x) * Gamma(3/2, x), computed without overflow for any x >= 0.

    By Gamma(3/2, x) = Gamma(1/2, x)/2 + sqrt(x)*exp(-x), the scaled form
    sqrt(pi)/2 * erfcx(sqrt(x)) + sqrt(x) stays O(sqrt(x)) as x grows,
    where the unscaled product would overflow past x ~ 709.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_3half_scaled requires x >= 0, got {x}")
    return gamma_upper_half_scaled(x) / 2.0 + math.sqrt(x)


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lower, inf).

    Wraps QUADPACK's infinite-interval routine. Raises QuadratureError if
    the integrator reports non-convergence within 200 subdivisions; a
    silent wrong value is never returned. The reported abs_error_estimate
    is QUADPACK's bound on |value - true integral|.
    """
    if not math.isfinite(lower):
        raise DomainError(f"lower limit must be finite, got {lower}")
    # With full_output set, QUADPACK signals failure by appending a message
    # to the return tuple instead of warning.
    ret = _integrate.quad(
        f,
        lower,
        np.inf,
        epsabs=0.0,
        epsrel=rel_tol,
        limit=200,
        full_output=1,
    )
    if len(ret) > 3:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge from lower={lower}: {ret[-1]}"
        )
    value, abserr, info = ret
    if not math.isfinite(value):
        raise QuadratureError(
            f"semi-infinite quadrature produced a non-finite value from lower={lower}"
        )
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abserr),
        evaluations=int(info["neval"]),
    )
