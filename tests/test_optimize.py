"""The optimizer against brute-force grids, residual roots and frozen anchors.

Oracle policy: the optimizer is one root search on the scale-free
stationarity system, so its oracle is a brute-force nested grid on the
closed form (_grid_best), which no reported optimum may trail by more
than 1e-6 relative, plus a plain brentq on the radial residual.

Frozen anchors at lam=1, alpha=3, beta=10 (t = 35.26505141002736),
obtained from the residual system at 1e-13 tolerance and confirmed by
searches on the objective itself:
    p*  = 0.1188294545528762
    u*  = 0.15570190781695342
    rm* = 0.2991641893786304   (phi = pi/2)
    E*  = 0.029141266278579252 (lam = 1, phi = pi/2)
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sectorrelay import analytic, optimize
from sectorrelay.errors import ParameterError, RootFindError
from sectorrelay.model import (
    NetworkParams,
    ProtocolVariant,
    radial_decay_rate,
    spatial_interference_constant,
)

P_STAR = 0.1188294545528762
U_STAR = 0.15570190781695342
RM_STAR = 0.2991641893786304
E_STAR = 0.029141266278579252

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)


def _with(params, **kw):
    return dataclasses.replace(params, **kw)


#: Nested closed-form reference grid: log-spaced (p, r_m), then
#: ZOOM_LEVELS zooms onto the cells next to the best point.
P_GRID = np.geomspace(1e-4, 1.0 - 1e-4, 48)
RM_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 48)))
ZOOM_LEVELS = 4
ZOOM_POINTS = 17


def _zoom(grid, i):
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    return np.geomspace(lo, hi, ZOOM_POINTS) if lo > 0 else np.linspace(lo, hi, ZOOM_POINTS)


def _grid_best(params, variant=ProtocolVariant.DIRECTIONAL, fixed_p=False):
    """Largest closed-form value on the nested (p, r_m) grid (r_m only if fixed_p)."""
    ps = np.array([params.p]) if fixed_p else P_GRID
    rs = RM_GRID
    best = -math.inf
    for _ in range(ZOOM_LEVELS):
        values = np.array([
            [
                analytic.expected_density_closed(_with(params, p=float(p), r_m=float(r)), variant)
                for r in rs
            ]
            for p in ps
        ])
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        best = max(best, float(values[i, j]))
        ps = ps if fixed_p else _zoom(ps, i)
        rs = _zoom(rs, j)
    return best


# ---------------------------------------------------------------------
# radial search at fixed transmission probability
# ---------------------------------------------------------------------

def _rm_oracle(params):
    """Root of the radial stationarity residual, found by plain bracketing."""
    t = spatial_interference_constant(params.alpha, params.beta)
    k = radial_decay_rate(params)

    def res(r):
        return analytic.stationarity_residuals(params.p, k * r * r, t).res_rm

    return brentq(res, 1e-9, 20.0 / math.sqrt(k), xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize(
    "params",
    [
        _with(BASE, p=0.1),
        NetworkParams(lam=2.0, alpha=4.0, beta=5.0, p=0.25, phi=1.2),
        NetworkParams(lam=0.7, alpha=2.6, beta=20.0, p=0.05, phi=4.0),
    ],
)
def test_optimize_rm_matches_residual_root(params):
    result = optimize.optimize_rm(params)
    oracle = _rm_oracle(params)
    assert result.converged
    assert result.p_star is None
    # the search result carries ~sqrt(eps) argmax noise; the residual root
    # is the sharp reference
    assert result.rm_star == pytest.approx(oracle, abs=1e-7 * max(1.0, oracle))


def test_optimize_rm_extends_bracket_for_slow_decay():
    # tiny p with a weak threshold pushes the optimum far past the default
    # 3/sqrt(k) search limit, forcing repeated bracket doubling
    params = _with(BASE, p=0.005, beta=1.0)
    result = optimize.optimize_rm(params)
    k = radial_decay_rate(params)
    assert result.iterations >= 2
    assert result.rm_star * math.sqrt(k) > 6.0
    assert result.converged
    assert abs(result.residual_rm) < 1e-8


def test_optimize_rm_omni_matches_residual_root():
    # the baseline's radial residual is the directional one at t_eff = 2*pi*t/phi
    params = _with(BASE, p=0.1)
    result = optimize.optimize_rm(params, ProtocolVariant.OMNIDIRECTIONAL)
    t_eff = spatial_interference_constant(3.0, 10.0) * 2 * math.pi / params.phi
    k = radial_decay_rate(params, t_eff)
    oracle = brentq(
        lambda r: analytic.stationarity_residuals(0.1, k * r * r, t_eff).res_rm,
        1e-9, 20.0 / math.sqrt(k), xtol=1e-15, rtol=8.9e-16,
    )
    assert result.converged
    assert result.rm_star == pytest.approx(oracle, rel=1e-12)


def test_optimize_rm_validates_parameters():
    with pytest.raises(ParameterError):
        optimize.optimize_rm(_with(BASE, p=0.0))


# ---------------------------------------------------------------------
# joint optimum
# ---------------------------------------------------------------------

def test_joint_optimum_frozen_anchor():
    result = optimize.optimize_joint(BASE)
    assert result.converged
    assert result.p_star == pytest.approx(P_STAR, abs=1e-9)
    assert result.rm_star == pytest.approx(RM_STAR, abs=1e-9)
    assert result.objective == pytest.approx(E_STAR, rel=1e-12)
    assert math.hypot(result.residual_rm, result.residual_p) < 1e-8


def test_joint_optimum_against_plain_grid():
    # coarse but fully independent check: no point of a 60x60 grid around
    # the reported optimum may beat it
    result = optimize.optimize_joint(BASE)
    best = result.objective
    for i in range(60):
        for j in range(60):
            p = 0.02 + 0.3 * i / 59
            rm = 0.05 + 0.6 * j / 59
            val = analytic.expected_density_closed(_with(BASE, p=p, r_m=rm))
            assert val <= best * (1.0 + 1e-12)


def test_joint_omni_baseline():
    directional = optimize.optimize_joint(BASE)
    omni = optimize.optimize_joint(BASE, ProtocolVariant.OMNIDIRECTIONAL)
    assert omni.converged
    assert omni.p_star < directional.p_star
    ratio = directional.objective / omni.objective
    assert 3.7 < ratio < 3.9


def test_optimum_scales_as_sqrt_density():
    anchors = []
    for lam in [0.5, 1.0, 2.0, 4.0]:
        result = optimize.optimize_joint(_with(BASE, lam=lam))
        assert result.converged
        anchors.append(result.objective / math.sqrt(lam))
    spread = (max(anchors) - min(anchors)) / min(anchors)
    assert spread <= 1e-6


@pytest.mark.parametrize("variant", list(ProtocolVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("alpha", [2.1, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("beta_db", [-15.0, -10.0, -5.0, 0.0, 10.0, 20.0])
def test_optima_never_beaten_by_brute_force_grid(beta_db, alpha, variant):
    params = _with(BASE, alpha=alpha, beta=10.0 ** (beta_db / 10.0))
    joint = optimize.optimize_joint(params, variant)
    assert joint.converged
    assert 0.0 < joint.p_star < 1.0
    assert _grid_best(params, variant) <= joint.objective * (1.0 + 1e-6)
    radial = optimize.optimize_rm(params, variant)
    assert radial.converged
    assert _grid_best(params, variant, fixed_p=True) <= radial.objective * (1.0 + 1e-6)


def test_uncertifiable_alpha_edge_now_certifies():
    # alpha barely above 2 drives t to ~6e8 and p* down to ~1e-8
    params = _with(BASE, alpha=2.0000001)
    result = optimize.optimize_joint(params)
    assert result.converged
    assert result.p_star == pytest.approx(9.25e-9, rel=1e-3)
    k = radial_decay_rate(_with(params, p=result.p_star))
    assert k * result.rm_star**2 == pytest.approx(0.1151, rel=1e-3)
    assert _grid_best(params) <= result.objective * (1.0 + 1e-6)


# ---------------------------------------------------------------------
# scale-free stationarity system
# ---------------------------------------------------------------------

def test_stationary_system_frozen_anchor():
    t = spatial_interference_constant(3.0, 10.0)
    p, u = optimize.solve_stationary_system(t)
    assert p == pytest.approx(P_STAR, abs=1e-10)
    assert u == pytest.approx(U_STAR, abs=1e-10)
    res = analytic.stationarity_residuals(p, u, t)
    assert math.hypot(res.res_rm, res.res_p) < 1e-10


def test_stationary_system_agrees_with_joint_optimizer():
    t = spatial_interference_constant(3.0, 10.0)
    p_sys, u_sys = optimize.solve_stationary_system(t)
    joint = optimize.optimize_joint(BASE)
    k = radial_decay_rate(_with(BASE, p=joint.p_star))
    assert abs(p_sys - joint.p_star) <= 1e-6
    assert abs(u_sys - k * joint.rm_star**2) <= 1e-6


def test_stationary_system_near_degenerate_threshold():
    # as t drops toward pi the optimal p climbs toward 1/2; the solver must
    # still land the root rather than bail out
    p, u = optimize.solve_stationary_system(math.pi + 1e-3)
    assert p == pytest.approx(0.45506040341927195, abs=1e-8)
    assert u == pytest.approx(0.36195695807883227, abs=1e-8)
    res = analytic.stationarity_residuals(p, u, math.pi + 1e-3)
    assert math.hypot(res.res_rm, res.res_p) < 1e-10


def _params_with_t(t, **kw):
    """BASE with beta chosen so that the interference constant is t (alpha = 3)."""
    beta = (t / spatial_interference_constant(3.0, 1.0)) ** 1.5
    return _with(BASE, beta=beta, **kw)


@pytest.mark.parametrize("t", [math.pi, 2.0, 0.3])
def test_stationary_system_at_subcritical_t_matches_grid(t):
    # t <= pi is admissible (weak thresholds); the optimum then has p >= 1/2
    p, u = optimize.solve_stationary_system(t)
    res = analytic.stationarity_residuals(p, u, t)
    assert math.hypot(res.res_rm, res.res_p) < 1e-12
    params = _params_with_t(t)
    assert spatial_interference_constant(params.alpha, params.beta) == pytest.approx(t, rel=1e-12)
    rm = math.sqrt(u / radial_decay_rate(_with(params, p=p)))
    best = analytic.expected_density_closed(_with(params, p=p, r_m=rm))
    assert _grid_best(params) <= best * (1.0 + 1e-6)


@pytest.mark.parametrize(
    "alpha, beta",
    [(math.nextafter(2.0, 3.0), 1e30), (3.0, 1e-30), (1e6, 1.0)],
    ids=["t-huge", "t-tiny", "alpha-huge"],
)
def test_extreme_admissible_params_certify(alpha, beta):
    for p in [1e-9, 0.5, 1.0 - 1e-9]:
        for variant in ProtocolVariant:
            params = _with(BASE, alpha=alpha, beta=beta, p=p)
            joint = optimize.optimize_joint(params, variant)
            radial = optimize.optimize_rm(params, variant)
            assert joint.converged and radial.converged
            assert 0.0 < joint.p_star < 1.0
            assert joint.rm_star > 0.0 and radial.rm_star > 0.0
            assert math.isfinite(joint.objective) and math.isfinite(radial.objective)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_missing_bracket_raises_root_find_error(sign):
    # a slope that never changes sign: halving reaches 0 or doubling reaches inf
    with pytest.raises(RootFindError) as exc:
        optimize._ascent_root(lambda u: sign)
    assert len(exc.value.sign_map["u"]) > 1000
    assert set(exc.value.sign_map["slope"]) == {sign}


def test_root_find_error_carries_sign_map():
    err = RootFindError("no root", sign_map={"signs": [[1, -1]]})
    assert err.sign_map == {"signs": [[1, -1]]}
    assert RootFindError("plain").sign_map is None


# ---------------------------------------------------------------------
# beamwidth constancy of the optimal transmission probability
# ---------------------------------------------------------------------

def test_p_constancy_across_beamwidths():
    phis = [math.pi / 6, math.pi / 2, math.pi, 3 * math.pi / 2, 11 * math.pi / 6]
    directional, omni = [], []
    for phi in phis:
        at_phi = dataclasses.replace(BASE, phi=phi)
        directional.append(optimize.optimize_joint(at_phi, ProtocolVariant.DIRECTIONAL))
        omni.append(optimize.optimize_joint(at_phi, ProtocolVariant.OMNIDIRECTIONAL))
    p_dir = [res.p_star for res in directional]
    p_omni = [res.p_star for res in omni]
    assert max(p_dir) - min(p_dir) < 1e-4
    # the baseline's optimal p genuinely moves with phi - that contrast is
    # the point of comparing both variants
    assert max(p_omni) - min(p_omni) > 0.01
    for d, o in zip(directional, omni):
        assert d.p_star == pytest.approx(P_STAR, abs=1e-6)
        assert o.objective < d.objective
    rms = [res.rm_star for res in directional]
    assert all(a > b for a, b in zip(rms, rms[1:]))


@pytest.mark.parametrize("t", list(np.geomspace(1e-3, 1e4, 60)))
def test_brent_port_matches_scipy_brentq(t):
    # same bracket, same tolerances: the port must take brentq's steps
    tau = t / math.pi

    def slope(u):
        return optimize._ridge_slope(u, tau)

    lo = hi = 1.0
    while not slope(lo) > 0.0:
        lo, hi = lo / 2.0, lo
    while not slope(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    root, info = brentq(
        slope, lo, hi, xtol=optimize.U_RTOL * lo, rtol=optimize.U_RTOL,
        full_output=True, disp=False,
    )
    got = optimize._brent(
        slope, lo, hi, slope(lo), slope(hi), optimize.U_RTOL * lo, optimize.U_RTOL
    )
    assert got == (root, info.iterations, info.converged)
