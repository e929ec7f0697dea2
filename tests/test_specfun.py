"""Special-function primitives against independent oracles.

Oracle policy: every nontrivial expected value here is produced by a route
that shares no code with the implementation -- mpmath at 50 digits for
function values and raw QUADPACK on the defining integral for the
incomplete gamma. The frozen literals were computed from those oracles and
are asserted against both the oracle (to keep them honest) and the
implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from sectorrelay import specfun
from sectorrelay.errors import DomainError, QuadratureError

mpmath.mp.dps = 50

# frozen oracle values (mpmath, 50 digits, rounded to double)
GAMMA_3HALF_AT_0 = 0.88622692545275801  # sqrt(pi)/2
GAMMA_3HALF_AT_1 = 0.50728223381177331

SAMPLE_POINTS = [0.0, 1e-8, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]


# ---------------------------------------------------------------------
# upper incomplete gamma, shape 3/2
# ---------------------------------------------------------------------

def test_gamma_3half_matches_defining_integral():
    # oracle: QUADPACK directly on the definition, no shared code. The
    # integrand beyond u = 60 contributes ~ sqrt(60)*exp(-60) ~ 7e-26,
    # far below the tolerance, so a finite upper limit with tight epsabs
    # is more reliable than the semi-infinite transform here.
    for x in SAMPLE_POINTS:
        oracle, _ = integrate.quad(
            lambda u: math.sqrt(u) * math.exp(-u),
            x,
            60.0,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=300,
        )
        assert specfun.gamma_upper_3half(x) == pytest.approx(oracle, rel=1e-9)


def test_gamma_3half_matches_mpmath():
    for x in SAMPLE_POINTS + [25.0, 100.0]:
        oracle = float(mpmath.gammainc(mpmath.mpf(3) / 2, x))
        assert specfun.gamma_upper_3half(x) == pytest.approx(oracle, rel=1e-13)


def test_gamma_3half_frozen_values():
    assert float(mpmath.gammainc(mpmath.mpf(3) / 2, 0)) == pytest.approx(
        GAMMA_3HALF_AT_0, rel=1e-16
    )
    assert float(mpmath.gammainc(mpmath.mpf(3) / 2, 1)) == pytest.approx(
        GAMMA_3HALF_AT_1, rel=1e-16
    )
    assert specfun.gamma_upper_3half(0.0) == specfun.GAMMA_3HALF
    assert specfun.GAMMA_3HALF == pytest.approx(GAMMA_3HALF_AT_0, rel=1e-16)
    assert specfun.gamma_upper_3half(1.0) == pytest.approx(GAMMA_3HALF_AT_1, rel=1e-14)


def test_gamma_3half_erf_and_erfc_forms_agree():
    # the erf rearrangement Gamma(3/2) + sqrt(x)exp(-x) - sqrt(pi)/2*erf(sqrt(x))
    # is fine at moderate x; past x ~ 30 it cancels, which is why the
    # implementation uses erfc
    for x in [0.0, 0.2, 0.7, 1.0, 2.0, 3.0]:
        s = math.sqrt(x)
        erf_form = (
            specfun.GAMMA_3HALF
            + s * math.exp(-x)
            - specfun.SQRT_PI / 2.0 * math.erf(s)
        )
        assert specfun.gamma_upper_3half(x) == pytest.approx(erf_form, rel=1e-12)


def test_gamma_scaled_form_consistent():
    for x in [0.0, 0.1, 1.0, 5.0, 30.0, 100.0]:
        unscaled = math.exp(x) * specfun.gamma_upper_3half(x)
        assert specfun.gamma_upper_3half_scaled(x) == pytest.approx(unscaled, rel=1e-12)


def test_gamma_half_scaled_against_mpmath():
    # exp(x)*Gamma(1/2, x) keeps full relative precision where
    # exp(x)*Gamma(3/2, x) - sqrt(x) would cancel to nothing
    for x in [0.0, 1e-8, 0.1, 1.0, 10.0, 1e4, 1e12]:
        oracle = float(mpmath.exp(x) * mpmath.gammainc(0.5, x))
        assert specfun.gamma_upper_half_scaled(x) == pytest.approx(oracle, rel=1e-13)
    with pytest.raises(DomainError):
        specfun.gamma_upper_half_scaled(-1.0)


def test_gamma_half_scaled_continued_fraction_branch_against_mpmath():
    # from x = 16 on, the value comes from the continued fraction
    for x in np.concatenate(([16.0, 16.5, 20.0, 50.0], np.geomspace(100.0, 1e300, 40))):
        x = float(x)
        oracle = float(mpmath.exp(x) * mpmath.gammainc(0.5, x))
        assert specfun.gamma_upper_half_scaled(x) == pytest.approx(oracle, rel=1e-13)


def test_gamma_scaled_form_survives_huge_argument():
    # exp(x)*Gamma(3/2, x) ~ sqrt(x) + 1/(2 sqrt(x)) as x -> inf; the
    # unscaled product overflows near x = 709 but the scaled form must not
    x = 1e6
    val = specfun.gamma_upper_3half_scaled(x)
    assert math.isfinite(val)
    assert math.sqrt(x) < val < math.sqrt(x) + 1.0


def test_two_sided_shape_bound_direction():
    # Gamma(3/2, x) < (Gamma(1, x) + Gamma(2, x))/2 strictly for all x >= 0:
    # the difference h(x) = exp(-x)(2 + x)/2 - Gamma(3/2, x) has
    # h'(x) = -exp(-x)(sqrt(x) - 1)^2 / 2 <= 0 and h(inf) = 0, so h > 0.
    # This is the inequality behind the reference-distance bound quadratic.
    xs = np.concatenate(([0.0], np.geomspace(1e-6, 20.0, 60)))
    for x in xs:
        mid = 0.5 * (math.exp(-x) + (1.0 + x) * math.exp(-x))
        assert specfun.gamma_upper_3half(x) < mid


def test_gamma_domain_errors():
    for fn in (
        specfun.gamma_upper_3half,
        specfun.gamma_upper_3half_scaled,
    ):
        with pytest.raises(DomainError):
            fn(-0.5)


# ---------------------------------------------------------------------
# semi-infinite quadrature wrapper
# ---------------------------------------------------------------------

def test_quadrature_exact_on_exponential():
    res = specfun.integrate_semi_infinite(lambda u: math.exp(-u), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.abs_error_estimate >= abs(res.value - 1.0)
    assert res.evaluations > 0


def test_quadrature_shifted_lower_limit():
    res = specfun.integrate_semi_infinite(lambda u: u * math.exp(-u), 2.0)
    assert res.value == pytest.approx(3.0 * math.exp(-2.0), rel=1e-10)


def test_quadrature_frozen_anchor():
    # integrable singularity at the lower limit: exact value sqrt(pi); the
    # literals freeze the rule's value, error estimate and node count
    res = specfun.integrate_semi_infinite(
        lambda u: math.exp(-u) / math.sqrt(u) if u > 0 else 0.0, 0.0
    )
    assert res.value == 1.7724538509055159
    assert res.abs_error_estimate == 2.453592884421596e-11
    assert res.evaluations == 129


def test_quadrature_divergent_integrand_raises():
    with pytest.raises(QuadratureError):
        specfun.integrate_semi_infinite(lambda u: 1.0 / (1.0 + u), 0.0)


def test_quadrature_rejects_nonfinite_lower_limit():
    with pytest.raises(DomainError):
        specfun.integrate_semi_infinite(lambda u: math.exp(-u), math.inf)


# exponential, shifted and singular integrands that the exp-sinh rule
# resolves, power-law tails (x^-1.1, x^-1.01) heavier than its range
# x - lower <= 7e6 covers, a power-law tail it does cover (x^-4), and an
# oscillatory tail
QUADPACK_CASES = [
    (lambda u: math.exp(-u), 0.0, 1e-10),
    (lambda u: u * math.exp(-u), 2.0, 1e-10),
    (lambda u: math.exp(-u) / math.sqrt(u) if u > 0 else 0.0, 0.0, 1e-10),
    (lambda u: 1.0 / (1.0 + u) ** 1.1, 0.0, 1e-10),
    (lambda r: 2 * math.pi * r * 3.0 * r**-2.1 / (1 + 3.0 * r**-2.1), 1.0, 1e-12),
    (lambda r: 2 * math.pi * r * 1e3 * r**-2.01 / (1 + 1e3 * r**-2.01), 2.0, 1e-12),
    (lambda r: 2 * math.pi * r * 0.5 * r**-5.0 / (1 + 0.5 * r**-5.0), 10.0, 1e-12),
    (lambda u: math.sin(u) / (1.0 + u * u), 0.0, 1e-10),
]
HEAVY_TAILS = [QUADPACK_CASES[i] for i in (3, 4, 5, 7)]


@pytest.mark.parametrize("f, lower, rel_tol", QUADPACK_CASES)
def test_quadrature_matches_quadpack(f, lower, rel_tol):
    # oracle: scipy's compiled QUADPACK at the case's tolerance; the tails
    # that the rule's range does not cover raise instead
    if (f, lower, rel_tol) in HEAVY_TAILS:
        with pytest.raises(QuadratureError):
            specfun.integrate_semi_infinite(f, lower)
        return
    oracle, _ = integrate.quad(f, lower, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    res = specfun.integrate_semi_infinite(f, lower)
    assert res.value == pytest.approx(oracle, rel=rel_tol, abs=0.0)
    assert res.abs_error_estimate <= specfun.QUAD_RTOL * abs(res.value)


def test_quadrature_refuses_end_terms_that_cancel():
    # equal and opposite spikes on the two end nodes of the t range cancel
    # in every step size's sum, so the steps agree; the end-term check
    # still sees that the range was cut where the integrand is not small
    offsets, weights = specfun._LEVEL_TABLES[0]
    spikes = {offsets[0]: 1.0 / weights[0], offsets[-1]: -1.0 / weights[-1]}
    with pytest.raises(QuadratureError, match="ends"):
        specfun.integrate_semi_infinite(lambda u: spikes.get(u, math.exp(-u)), 0.0)


def test_quadrature_refuses_a_zero_from_a_nonzero_integrand():
    # every weighted term underflows, though the integrand itself does not
    tiny = math.ulp(0.0)
    with pytest.raises(QuadratureError, match="underflowed"):
        specfun.integrate_semi_infinite(lambda u: tiny if u < 1e-3 else 0.0, 0.0)
    assert specfun.integrate_semi_infinite(lambda u: 0.0, 0.0).value == 0.0
