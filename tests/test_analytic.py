"""Closed-form expressions against independent numerical routes.

Oracle policy: the expected density of progress has two deliberately
separate routes -- the closed form and 1-D quadrature over the explicit
integrand -- and the tests here drive them against each other over a
randomized parameter cloud. Link-level pieces (success probability,
relay-distance law) are checked against hand-recomputed formulas and
frozen anchors; the reference-distance bound variants are characterized
against the numerically optimized distance, including the fact that only
one of the two variants actually dominates it.

Frozen anchors (computed at the default operating point lam=1, alpha=3,
beta=10, p=0.12, phi=pi/2 and cross-checked against mpmath during
development):
    t  = 35.26505141002736
    k  = 1.7491019260905754
    P_s(d=0.3)      = 0.9091768595149018
    relay CDF(r=1)  = 0.49900060415176933
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from sectorrelay import analytic, optimize
from sectorrelay.errors import DomainError, QuadratureError, VacuousBoundError
from sectorrelay.model import (
    NetworkParams,
    ProtocolVariant,
    radial_decay_rate,
    spatial_interference_constant,
)

T_BASE = 35.26505141002736
K_BASE = 1.7491019260905754
PS_AT_03 = 0.9091768595149018
CDF_AT_1 = 0.49900060415176933

# jointly optimal operating point; certified in test_optimize against the
# stationarity system, reused here as a fixed evaluation point
P_STAR = 0.1188294545528762
RM_STAR = 0.29916418937863037

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)


def _with(params, **kw):
    return dataclasses.replace(params, **kw)


# ---------------------------------------------------------------------
# link success probability
# ---------------------------------------------------------------------

def test_success_probability_frozen_anchor():
    # independent recomputation: exp(-p*(phi/2pi)*lam*t*d^2)
    recomputed = math.exp(-0.12 * 0.25 * 1.0 * T_BASE * 0.09)
    assert recomputed == pytest.approx(PS_AT_03, rel=1e-14)
    assert analytic.success_probability(BASE, 0.3) == pytest.approx(PS_AT_03, rel=1e-14)


def test_success_probability_at_zero_distance_is_one():
    assert analytic.success_probability(BASE, 0.0) == 1.0


def test_success_probability_monotone_in_distance():
    vals = [analytic.success_probability(BASE, d) for d in [0.0, 0.1, 0.5, 1.0, 3.0]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_success_probability_sector_halving_identity():
    # the outage exponent is linear in phi, so halving the beamwidth takes
    # a square root of the success probability
    for d in [0.2, 0.7, 1.5]:
        full = analytic.success_probability(BASE, d)
        half = analytic.success_probability(_with(BASE, phi=BASE.phi / 2), d)
        assert full == pytest.approx(half**2, rel=1e-12)


def test_success_probability_omni_equals_full_circle():
    for d in [0.2, 0.9]:
        omni = analytic.success_probability(BASE, d, ProtocolVariant.OMNIDIRECTIONAL)
        full_circle = analytic.success_probability(_with(BASE, phi=2 * math.pi), d)
        assert omni == pytest.approx(full_circle, rel=1e-14)


def test_success_probability_negative_distance_rejected():
    with pytest.raises(DomainError):
        analytic.success_probability(BASE, -0.1)
    with pytest.raises(DomainError):
        analytic.success_law(BASE)(-0.1)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_success_probability_is_the_curried_law(variant):
    # one P_s formula: the per-distance entry point is the law at one d,
    # to the bit
    for alpha, beta, p, phi, lam in itertools.product(
        [2.01, 3.0, 8.0], [1e-3, 10.0, 1e3], [1e-4, 0.5, 0.99], [0.05, math.pi, 6.2], [1e-3, 1e3]
    ):
        params = NetworkParams(lam=lam, alpha=alpha, beta=beta, p=p, phi=phi)
        law = analytic.success_law(params, variant)
        for d in [0.0, 1e-3, 0.3, 1.0, 3.0, 30.0]:
            assert analytic.success_probability(params, d, variant) == law(d)


def test_interferer_density_both_variants():
    assert analytic.interferer_density(BASE) == pytest.approx(0.03, rel=1e-15)
    assert analytic.interferer_density(
        BASE, ProtocolVariant.OMNIDIRECTIONAL
    ) == pytest.approx(0.12, rel=1e-15)


# ---------------------------------------------------------------------
# relay-distance law
# ---------------------------------------------------------------------

def test_relay_cdf_frozen_anchor():
    recomputed = -math.expm1(-1.0 * 0.88 * (math.pi / 4.0))
    assert recomputed == pytest.approx(CDF_AT_1, rel=1e-14)
    assert analytic.relay_distance_cdf(BASE, 1.0) == pytest.approx(CDF_AT_1, rel=1e-14)


def test_relay_cdf_boundary_and_limits():
    params = _with(BASE, r_m=0.4)
    assert analytic.relay_distance_cdf(params, 0.4) == 0.0
    assert analytic.relay_distance_cdf(params, 50.0) == pytest.approx(1.0, abs=1e-12)
    vals = [analytic.relay_distance_cdf(params, r) for r in [0.4, 0.6, 1.0, 2.0]]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for below_r_m in (analytic.relay_distance_cdf, analytic.relay_distance_pdf):
        with pytest.raises(DomainError):
            below_r_m(params, 0.39)


def test_relay_pdf_is_cdf_derivative():
    params = _with(BASE, r_m=0.3)
    h = 1e-6
    for r in [0.5, 1.0, 1.8]:
        diff = (
            analytic.relay_distance_cdf(params, r + h)
            - analytic.relay_distance_cdf(params, r - h)
        ) / (2 * h)
        assert analytic.relay_distance_pdf(params, r) == pytest.approx(diff, rel=1e-7)


def test_relay_pdf_normalizes():
    params = _with(BASE, r_m=0.3)
    total, _ = integrate.quad(lambda r: analytic.relay_distance_pdf(params, r), 0.3, np.inf)
    assert total == pytest.approx(1.0, rel=1e-9)


def test_relay_cdf_full_circle_is_rayleigh_law():
    # phi=2*pi, r_m=0 reduces to the classical nearest-neighbor law
    params = NetworkParams(lam=1.3, alpha=3.0, beta=10.0, p=0.5, phi=2 * math.pi)
    for r in [0.1, 0.4, 1.0]:
        rayleigh = -math.expm1(-1.3 * 0.5 * math.pi * r * r)
        assert analytic.relay_distance_cdf(params, r) == pytest.approx(rayleigh, rel=1e-13)


# ---------------------------------------------------------------------
# expected density of progress: closed form vs quadrature twin
# ---------------------------------------------------------------------

def test_closed_form_matches_quadrature_on_random_cloud():
    rng = np.random.default_rng(20250823)
    worst = 0.0
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-0.5, 0.5)
        alpha = rng.uniform(2.3, 5.0)
        beta = 10.0 ** rng.uniform(-0.5, 1.5)
        p = rng.uniform(0.03, 0.6)
        phi = rng.uniform(0.15, 2 * math.pi * 0.999)
        params = NetworkParams(lam=lam, alpha=alpha, beta=beta, p=p, phi=phi)
        k = radial_decay_rate(params)
        params = _with(params, r_m=math.sqrt(rng.uniform(0.0, 4.0) / k))
        closed = analytic.expected_density_closed(params)
        numeric = analytic.expected_density_numeric(params)
        worst = max(worst, abs(closed - numeric) / numeric)
    assert worst <= 1e-8


def test_closed_form_matches_quadrature_omni():
    for p in [0.1, 0.3]:
        params = _with(BASE, p=p, r_m=0.2)
        closed = analytic.expected_density_closed(params, ProtocolVariant.OMNIDIRECTIONAL)
        numeric = analytic.expected_density_numeric(params, ProtocolVariant.OMNIDIRECTIONAL)
        assert closed == pytest.approx(numeric, rel=1e-9)


def test_full_circle_beamwidth_degenerates():
    # at phi = 2*pi the average heading cosine vanishes, so both routes
    # collapse to the rounding residue of sin(pi); they must still agree
    params = _with(BASE, phi=2 * math.pi, r_m=0.2)
    closed = analytic.expected_density_closed(params)
    numeric = analytic.expected_density_numeric(params)
    assert closed < 1e-16
    assert closed == pytest.approx(numeric, rel=1e-8)


# alpha x beta_dB x p x phi x r_m x lambda x variant: 7680 cases, reaching
# the corners where k*r_m^2 or k is huge and the integrand's mass sits in a
# thin sliver of [r_m, inf)
TWIN_DOMAIN_GRID = list(itertools.product(
    [2.01, 2.2, 3.0, 5.0, 8.0],
    [-30.0, -10.0, 10.0, 30.0],
    [1e-4, 0.1, 0.5, 0.99],
    [0.05, 1.0, math.pi, 6.2],
    [0.0, 0.3, 3.0, 30.0],
    [1e-3, 1.0, 1e3],
    list(ProtocolVariant),
))


def test_quadrature_twin_over_the_admissible_domain():
    # every 7th case (7 is prime to each axis length, so all values and
    # both variants come up): the twin agrees with the closed form, or the
    # closed form lies below the double range, or the twin raises; it
    # never returns a silent 0
    for alpha, beta_db, p, phi, r_m, lam, variant in TWIN_DOMAIN_GRID[::7]:
        params = NetworkParams(
            lam=lam, alpha=alpha, beta=10.0 ** (beta_db / 10.0), p=p, phi=phi, r_m=r_m
        )
        closed = analytic.expected_density_closed(params, variant)
        try:
            numeric = analytic.expected_density_numeric(params, variant)
        except QuadratureError:
            continue
        if closed >= 1e-250:
            assert numeric == pytest.approx(closed, rel=1e-7, abs=0.0), (params, variant)


def test_quadrature_twin_frozen_anchors():
    # exact values, so that any change to the twin's evaluation order shows
    assert analytic.expected_density_numeric(BASE) == 0.02860692543750733
    assert analytic.expected_density_numeric(_with(BASE, r_m=0.3)) == 0.029140359307878574
    assert analytic.expected_density_numeric(
        _with(BASE, r_m=0.2), ProtocolVariant.OMNIDIRECTIONAL
    ) == 0.005863913824219895


def test_quadrature_twin_takes_p_s_only_through_the_law(monkeypatch):
    # halve the law: the twin's value halves exactly (a factor of 2 is
    # exact in binary), so it reads P_s through success_law and nowhere else
    params = _with(BASE, r_m=0.3)
    law = analytic.success_law
    baseline = analytic.expected_density_numeric(params)
    monkeypatch.setattr(
        analytic, "success_law", lambda params, variant: lambda d: 0.5 * law(params, variant)(d)
    )
    assert analytic.expected_density_numeric(params) == 0.5 * baseline


def test_quadrature_twin_raises_where_its_integrand_underflows():
    # exp(-a*r_m^2) is about 5e-324 here: the integrand is subnormal and
    # its weighted terms round to 0, which the twin reports, not returns
    params = NetworkParams(lam=1.0, alpha=5.0, beta=0.1, p=0.5, phi=0.05, r_m=30.0)
    with pytest.raises(QuadratureError, match="underflowed"):
        analytic.expected_density_numeric(params, ProtocolVariant.OMNIDIRECTIONAL)


def test_progress_density_scales_as_sqrt_lambda():
    # E(lam, r_m/sqrt(lam)) = sqrt(lam) * E(1, r_m): exact scaling identity
    base = _with(BASE, r_m=0.3)
    e1 = analytic.expected_density_closed(base)
    for lam in [0.5, 2.0, 4.0, 9.0]:
        scaled = _with(BASE, lam=lam, r_m=0.3 / math.sqrt(lam))
        e = analytic.expected_density_closed(scaled)
        assert e / math.sqrt(lam) == pytest.approx(e1, rel=1e-12)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("p, r_m", [(1e-4, 30.0), (1e-6, 100.0), (1e-6, 300.0)])
def test_closed_form_matches_mpmath_at_large_u(p, r_m, variant):
    # u = k*r_m^2 runs to 3e8 here; forming the outage decay as k - b
    # would cancel and cost about u*eps relative
    mpmath = pytest.importorskip("mpmath")
    params = NetworkParams(lam=1000.0, alpha=2.2, beta=1e-3, p=p, phi=6.2, r_m=r_m)  # -30 dB
    with mpmath.workdps(50):
        lam, alpha, beta, p_, phi, rm = map(
            mpmath.mpf, (params.lam, params.alpha, params.beta, params.p, params.phi, params.r_m)
        )
        t = (2 * mpmath.pi**2 / alpha) / mpmath.sin(2 * mpmath.pi / alpha) * beta ** (2 / alpha)
        covered = phi / (2 * mpmath.pi) if variant is ProtocolVariant.DIRECTIONAL else 1
        b = lam * (1 - p_) * phi / 2
        k = p_ * lam * covered * t + b
        oracle = float(
            lam**2 * p_ * (1 - p_) * mpmath.gammainc(mpmath.mpf(3) / 2, k * rm**2)
            * k ** (-mpmath.mpf(3) / 2) * mpmath.exp(b * rm**2) * mpmath.sin(phi / 2)
        )
    assert analytic.expected_density_closed(params, variant) == pytest.approx(
        oracle, rel=1e-12, abs=0.0
    )
    # the twin integrates the relay law in s = b*(x^2 - r_m^2) itself, so
    # its nodes carry no rounding of order b*r_m^2*eps either
    assert analytic.expected_density_numeric(params, variant) == pytest.approx(
        oracle, rel=1e-12, abs=0.0
    )


def test_log_route_survives_huge_reference_distance():
    params = _with(BASE, r_m=50.0)
    log_val = analytic.log_expected_density(params)
    assert math.isfinite(log_val)
    assert log_val < -500.0
    assert analytic.expected_density_closed(params) == pytest.approx(0.0, abs=1e-200)


def test_omni_never_beats_directional():
    for phi in np.linspace(0.3, 2 * math.pi * 0.99, 8):
        params = _with(BASE, phi=float(phi), r_m=0.25)
        directional = analytic.expected_density_closed(params)
        omni = analytic.expected_density_closed(params, ProtocolVariant.OMNIDIRECTIONAL)
        assert omni < directional


def test_omni_equals_directional_at_full_circle():
    params = _with(BASE, phi=2 * math.pi, r_m=0.2)
    omni = analytic.expected_density_closed(params, ProtocolVariant.OMNIDIRECTIONAL)
    assert omni == pytest.approx(analytic.expected_density_closed(params), rel=1e-12)


# ---------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------

def test_radial_residual_sign_tracks_objective_derivative():
    rng = np.random.default_rng(42)
    t = spatial_interference_constant(3.0, 10.0)
    checked = 0
    for _ in range(200):
        if checked >= 20:
            break
        p = rng.uniform(0.05, 0.45)
        phi = rng.uniform(0.3, 2 * math.pi * 0.95)
        r_m = rng.uniform(0.05, 1.2)
        params = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=p, phi=phi, r_m=r_m)
        u = radial_decay_rate(params) * r_m**2
        res = analytic.stationarity_residuals(p, u, t).res_rm
        h = 1e-6 * max(r_m, 0.1)
        de = (
            analytic.expected_density_closed(_with(params, r_m=r_m + h))
            - analytic.expected_density_closed(_with(params, r_m=r_m - h))
        ) / (2 * h)
        scale = analytic.expected_density_closed(params)
        if abs(de) < 1e-6 * scale:  # too close to the optimum to call a sign
            continue
        assert math.copysign(1.0, res) == math.copysign(1.0, de)
        checked += 1
    assert checked >= 20


def test_residuals_vanish_at_certified_optimum():
    u = radial_decay_rate(_with(BASE, p=P_STAR)) * RM_STAR**2
    res = analytic.stationarity_residuals(P_STAR, u, T_BASE)
    assert abs(res.res_rm) < 1e-9
    assert abs(res.res_p) < 1e-9


def test_optimum_is_local_max_in_both_coordinates():
    at_opt = _with(BASE, p=P_STAR, r_m=RM_STAR)
    e_star = analytic.expected_density_closed(at_opt)
    for dp in [-1e-3, 1e-3]:
        assert analytic.expected_density_closed(_with(at_opt, p=P_STAR + dp)) < e_star
    for dr in [-1e-3, 1e-3]:
        assert analytic.expected_density_closed(_with(at_opt, r_m=RM_STAR + dr)) < e_star


def test_radial_residual_is_linear_in_p():
    for u in [0.05, 0.2, 1.0]:
        r1 = analytic.stationarity_residuals(0.1, u, T_BASE).res_rm
        r2 = analytic.stationarity_residuals(0.2, u, T_BASE).res_rm
        r3 = analytic.stationarity_residuals(0.3, u, T_BASE).res_rm
        assert r2 == pytest.approx((r1 + r3) / 2.0, rel=1e-12)


def test_residual_domain_errors():
    with pytest.raises(DomainError):
        analytic.stationarity_residuals(0.0, 0.1, T_BASE)
    with pytest.raises(DomainError):
        analytic.stationarity_residuals(0.1, -0.1, T_BASE)
    with pytest.raises(DomainError):
        analytic.stationarity_residuals(0.1, 0.1, 0.0)


@pytest.mark.parametrize("t", [math.pi, 2.0])
def test_residuals_vanish_at_grid_optimum_for_t_up_to_pi(t):
    # res_p carries the factor (t - pi) instead of dividing by it, so the
    # first-order conditions still locate the optimum at t <= pi, where the
    # optimal p climbs past 0.45 (past 1/2 at t = 2); the optimum here
    # comes from a plain grid
    params = _with(BASE, beta=(t / spatial_interference_constant(3.0, 1.0)) ** 1.5)
    assert spatial_interference_constant(3.0, params.beta) == pytest.approx(t, rel=1e-12)
    ps, rs = np.linspace(0.05, 0.95, 91), np.linspace(0.05, 2.0, 79)
    for _ in range(5):
        values = np.array([
            [analytic.expected_density_closed(_with(params, p=p, r_m=r)) for r in rs]
            for p in ps
        ])
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        p_g, r_g = float(ps[i]), float(rs[j])
        ps = np.linspace(ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)], 21)
        rs = np.linspace(rs[max(j - 1, 0)], rs[min(j + 1, len(rs) - 1)], 21)
    assert p_g > 0.45
    u = radial_decay_rate(_with(params, p=p_g)) * r_g**2
    res = analytic.stationarity_residuals(p_g, u, t)
    assert abs(res.res_rm) < 1e-5
    assert abs(res.res_p) < 1e-4


# ---------------------------------------------------------------------
# reference-distance bound and closed-form optimum
# ---------------------------------------------------------------------

def test_bound_quadratic_vieta_products():
    for params in [
        _with(BASE, p=0.1),
        NetworkParams(lam=2.0, alpha=3.5, beta=5.0, p=0.2, phi=1.0),
    ]:
        k = radial_decay_rate(params)
        lo, hi = analytic.rm_quadratic_roots(params, "standard")
        assert 0 < lo < hi
        assert lo * hi == pytest.approx(2.0 / k, rel=1e-12)
        lo_a, hi_a = analytic.rm_quadratic_roots(params, "alternate")
        assert lo_a * hi_a == pytest.approx(1.0 / k, rel=1e-12)


def test_only_the_standard_bound_dominates_the_optimum():
    # the two variants differ in the constant term of the sufficient
    # quadratic; only the doubled one is implied by the strict gamma
    # bound, and only it sits above the optimum (ratio ~1.10 vs ~0.52)
    p_fixed = 0.1
    ratios_std, ratios_alt = [], []
    for phi in np.linspace(math.pi / 6, 2 * math.pi, 6):
        params = _with(BASE, p=p_fixed, phi=float(phi))
        rm_opt = optimize.optimize_rm(params).rm_star
        ratios_std.append(analytic.rm_upper_bound(params, "standard") / rm_opt)
        ratios_alt.append(analytic.rm_upper_bound(params, "alternate") / rm_opt)
    assert all(1.0 < r < 1.2 for r in ratios_std)
    assert all(r < 1.0 for r in ratios_alt)
    # both ratios are beamwidth-free: every factor scales as 1/sqrt(k)
    assert max(ratios_std) - min(ratios_std) < 1e-6
    assert max(ratios_alt) - min(ratios_alt) < 1e-6


def test_standard_bound_vacuous_at_small_threshold():
    # discriminant 4k^3 - 2kC^2 < 0 iff t < pi*(sqrt(2)-1)*(1-p)/p;
    # at p=0.1, beta=1 gives t ~ 7.6 < 11.7, so the bound must refuse
    params = _with(BASE, p=0.1, beta=1.0)
    t = spatial_interference_constant(3.0, 1.0)
    assert t < math.pi * (math.sqrt(2.0) - 1.0) * 0.9 / 0.1
    with pytest.raises(VacuousBoundError):
        analytic.rm_upper_bound(params, "standard")
    assert analytic.rm_upper_bound(params, "alternate") > 0.0


def test_standard_bound_dominates_over_the_admissible_space():
    # log-uniform admissible cases out to the model's corners, where the
    # relay rate is tiny against k: the smaller root must not cancel to
    # rounding noise below the optimum (or to 0)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        near = 10.0 ** rng.uniform(-12.0, -1.0)
        params = NetworkParams(
            lam=10.0 ** rng.uniform(-12.0, 12.0),
            alpha=2.0 + 10.0 ** rng.uniform(-6.0, 2.0),
            beta=10.0 ** rng.uniform(-30.0, 30.0),
            p=near if rng.random() < 0.5 else 1.0 - near,
            phi=2.0 * math.pi * 10.0 ** rng.uniform(-9.0, 0.0),
        )
        try:
            bound = analytic.rm_upper_bound(params, "standard")
        except VacuousBoundError:
            continue
        assert bound >= optimize.optimize_rm(params).rm_star, params


def test_bound_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown bound variant"):
        analytic.rm_upper_bound(BASE, "best")


def test_closed_form_rm_scales_with_beamwidth_and_density():
    base_val = analytic.rm_from_p(BASE, 0.12)
    assert analytic.rm_from_p(_with(BASE, phi=math.pi), 0.12) == pytest.approx(
        base_val / math.sqrt(2.0), rel=1e-12
    )
    assert analytic.rm_from_p(_with(BASE, lam=4.0), 0.12) == pytest.approx(
        base_val / 2.0, rel=1e-12
    )


def test_closed_form_rm_matches_certified_optimum():
    assert analytic.rm_from_p(BASE, P_STAR) == pytest.approx(RM_STAR, rel=1e-10)


def test_closed_form_rm_domain_errors():
    with pytest.raises(DomainError):
        analytic.rm_from_p(BASE, 1.2)
    with pytest.raises(DomainError):  # radicand goes negative past p = 1/2
        analytic.rm_from_p(BASE, 0.6)
    with pytest.raises(DomainError):  # t <= pi regime
        analytic.rm_from_p(_with(BASE, beta=0.1), 0.12)
