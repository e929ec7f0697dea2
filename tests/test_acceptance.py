"""Acceptance gate: the package's headline claims, one test per criterion.

Each test asserts a pinned tolerance and prints a one-line quantitative
summary tagged [criterion N]. The criteria:

 1. the jointly optimal transmission probability is ~0.12 and does not
    move with the beamwidth;
 2. the closed-form progress density matches 1-D quadrature everywhere;
 3. the dominating reference-distance bound actually dominates the
    optimum, and the non-dominating variant is flagged per row;
 4. the closed-form optimal reference distance matches the numerical
    argmax and shrinks with widening beams;
 5. the scale-free stationarity system reproduces the joint optimizer
    and is beamwidth-free, bitwise;
 6. the optimized progress density scales exactly as sqrt(density);
 7. the Monte-Carlo estimator reproduces the closed form (mean, relay
    law, link outages) inside tight statistical budgets, quickly;
 8. directional selection beats the omnidirectional baseline at every
    beamwidth short of the full circle, analytically and in simulation;
 9. recorded runs replay byte-for-byte, serially or in parallel.

On the bound variants in criterion 3: of the two quadratic-root formulas
the table publishes, only the one with the doubled constant term (the
`standard'/printed column) is implied by the strict incomplete-gamma
bound, and only it dominates the numerical optimum (ratio ~1.10,
beamwidth-free). The other root (`alternate'/derived column) sits below
the optimum (~0.52) and must be flagged as a non-bound, never asserted as
one.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

from sectorrelay import analytic, cli, optimize, simulate
from sectorrelay.model import (
    NetworkParams,
    ProtocolVariant,
    radial_decay_rate,
    spatial_interference_constant,
)

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)
OPT = dataclasses.replace(BASE, p=0.1188294545528762, r_m=0.2991641893786304)
PHI_GRID = [float(phi) for phi in np.linspace(math.pi / 6, 2 * math.pi, 12)]


def _with(params, **kw):
    return dataclasses.replace(params, **kw)


def _report(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


@pytest.fixture(scope="module")
def joint_grid():
    """Joint optima for both variants over the 12-point beamwidth grid."""
    rows = []
    for phi in PHI_GRID:
        params = _with(BASE, phi=phi)
        d = optimize.optimize_joint(params, ProtocolVariant.DIRECTIONAL)
        o = optimize.optimize_joint(params, ProtocolVariant.OMNIDIRECTIONAL)
        assert d.converged and o.converged
        rows.append((phi, d, o))
    return rows


def test_criterion_1_optimal_p_near_012_and_beamwidth_free(joint_grid):
    p_stars = [d.p_star for _, d, _ in joint_grid]
    for p in p_stars:
        assert abs(p - 0.12) <= 0.005
    spread = max(p_stars) - min(p_stars)
    assert spread < 1e-4
    _report(1, f"p* in [{min(p_stars):.10f}, {max(p_stars):.10f}], spread {spread:.3e}")


def test_criterion_2_closed_form_matches_quadrature():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(100):
        params = NetworkParams(
            lam=10.0 ** rng.uniform(-0.5, 0.5),
            alpha=rng.uniform(2.3, 5.0),
            beta=10.0 ** rng.uniform(-0.5, 1.5),
            p=rng.uniform(0.03, 0.6),
            phi=rng.uniform(0.15, 2 * math.pi * 0.999),
        )
        k = radial_decay_rate(params)
        params = _with(params, r_m=math.sqrt(rng.uniform(0.0, 4.0) / k))
        closed = analytic.expected_density_closed(params)
        numeric = analytic.expected_density_numeric(params)
        worst = max(worst, abs(closed - numeric) / numeric)
    assert worst <= 1e-8
    _report(2, f"worst closed-vs-quadrature relative gap {worst:.3e} over 100 draws")


def test_criterion_3_bound_dominance_and_flagging(tmp_path):
    assert cli.main(["fig2", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    import csv as _csv

    rows = list(_csv.DictReader(lines[1:]))
    assert len(rows) == 24
    ratios = []
    for row in rows:
        rm_num = float(row["rm_numerical"])
        printed = float(row["rm_bound_printed"])
        derived = float(row["rm_bound_derived"])
        assert printed >= rm_num  # the dominating variant must dominate
        assert row["printed_bound_holds"] == "1"
        # the non-dominating variant must be flagged per row, not hidden
        assert row["derived_bound_holds"] == ("1" if derived >= rm_num else "0")
        assert derived < rm_num  # ... and at p=0.1 it violates everywhere
        if math.isfinite(printed):
            ratios.append(printed / rm_num)
    _report(
        3,
        f"printed/optimum ratio in [{min(ratios):.6f}, {max(ratios):.6f}] "
        f"on {len(rows)} rows; derived variant flagged on all rows",
    )


def test_criterion_4_closed_form_rm_matches_argmax(joint_grid):
    closed_vals = []
    worst = 0.0
    for phi, d, _ in joint_grid:
        closed = analytic.rm_from_p(_with(BASE, phi=phi), d.p_star)
        worst = max(worst, abs(closed - d.rm_star))
        closed_vals.append(closed)
    assert worst <= 1e-3
    assert all(a >= b for a, b in zip(closed_vals, closed_vals[1:]))
    _report(4, f"max |closed-form - argmax| = {worst:.3e}; non-increasing in phi")


def test_criterion_5_stationarity_system_is_beamwidth_free(joint_grid):
    t = spatial_interference_constant(BASE.alpha, BASE.beta)
    p_sys, u_sys = optimize.solve_stationary_system(t)
    res = analytic.stationarity_residuals(p_sys, u_sys, t)
    assert math.hypot(res.res_rm, res.res_p) < 1e-8

    worst_p = worst_u = 0.0
    residual_pairs = set()
    for phi, d, _ in joint_grid:
        worst_p = max(worst_p, abs(d.p_star - p_sys))
        k = radial_decay_rate(_with(BASE, phi=phi, p=d.p_star))
        worst_u = max(worst_u, abs(k * d.rm_star**2 - u_sys))
        # the residual map takes no beamwidth argument at all, so its
        # output is bitwise identical no matter which phi led us here
        r = analytic.stationarity_residuals(p_sys, u_sys, t)
        residual_pairs.add((r.res_rm, r.res_p))
    assert worst_p <= 1e-6
    assert worst_u <= 1e-6
    assert len(residual_pairs) == 1
    _report(
        5,
        f"|p*(phi) - p_sys| <= {worst_p:.3e}, |u*(phi) - u_sys| <= {worst_u:.3e}, "
        f"residual norm {math.hypot(res.res_rm, res.res_p):.3e}, bitwise phi-free",
    )


def test_criterion_6_sqrt_density_scaling():
    ratios = []
    for lam in [0.5, 1.0, 2.0, 4.0]:
        result = optimize.optimize_joint(_with(BASE, lam=lam))
        assert result.converged
        ratios.append(result.objective / math.sqrt(lam))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread <= 1e-6
    _report(6, f"E*/sqrt(lambda) relative spread {spread:.3e} over lambda in 0.5..4")


def test_criterion_7_simulation_reproduces_the_closed_form():
    t0 = time.monotonic()

    # progress-density estimate: 2e4 trials, 3-sigma agreement, tight sigma
    sim = simulate.SimConfig.for_params(OPT, trials=20_000, seed=0)
    est = simulate.estimate_density_of_progress(OPT, sim)
    target = analytic.expected_density_closed(OPT)
    z = (est.mean - target) / est.std_error
    rel_sigma = est.std_error / est.mean
    assert abs(z) <= 3.0
    assert rel_sigma < 0.02

    # relay-distance law: KS at the 1% level over 1e4 draws
    params_rm = _with(BASE, r_m=0.1)
    ds, _ = simulate.sample_relay_distances(params_rm, window_radius=4.0, trials=10_000, seed=2)
    clean = ds[~np.isnan(ds)]
    ks = stats.kstest(
        clean,
        lambda x: np.vectorize(lambda r: analytic.relay_distance_cdf(params_rm, float(r)))(x),
    )
    assert ks.pvalue > 0.01

    # link outages at three distances, 2% relative
    worst_link = 0.0
    for i, d in enumerate([0.1, 0.2, 0.3]):
        sir = simulate.sample_link_sir(
            BASE, np.full(20_000, d), seed=60 + i, interference_radius=9.0
        )
        p_hat = np.mean(sir > BASE.beta)
        ref = analytic.success_probability(BASE, d)
        worst_link = max(worst_link, abs(p_hat - ref) / ref)
    assert worst_link < 0.02

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(
        7,
        f"z={z:+.3f}, sigma/mean={rel_sigma:.4f}, KS p={ks.pvalue:.3f}, "
        f"worst link gap {worst_link:.4f}, {elapsed:.0f}s",
    )


def test_criterion_8_directional_beats_omnidirectional(joint_grid):
    ratios = []
    for phi, d, o in joint_grid:
        if phi < 2 * math.pi - 1e-9:
            assert d.objective > o.objective
            ratios.append(d.objective / o.objective)
        else:
            # full circle: the variants are one protocol
            assert d.objective == pytest.approx(o.objective, rel=1e-9)

    sim = simulate.SimConfig(trials=600, seed=53, guard_radius=40.0)
    directional = simulate.estimate_density_of_progress(OPT, sim)
    omni = simulate.estimate_density_of_progress(OPT, sim, ProtocolVariant.OMNIDIRECTIONAL)
    gap = directional.mean - omni.mean
    budget = 3.0 * math.hypot(directional.std_error, omni.std_error)
    assert gap > budget
    _report(
        8,
        f"analytic ratio {min(ratios):.3f}..{max(ratios):.3f} below the full circle; "
        f"simulated gap {gap:.3e} > 3-sigma budget {budget:.3e}",
    )


def test_criterion_9_runs_replay_byte_for_byte(tmp_path):
    grid = "0.5:6.0:6"
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["fig2", "--phi-grid", grid, "--outdir", str(a)]) == 0
    assert cli.main(["--from-manifest", str(a / "fig2_manifest.json"), "--outdir", str(b)]) == 0
    assert cli.main(["fig2", "--phi-grid", grid, "--workers", "2", "--outdir", str(c)]) == 0
    fig2 = (a / "fig2.csv").read_bytes()
    assert fig2 == (b / "fig2.csv").read_bytes()
    assert fig2 == (c / "fig2.csv").read_bytes()

    sa, sb = tmp_path / "sa", tmp_path / "sb"
    args = [
        "simulate", "--trials", "150", "--seed", "9",
        "--p", "0.1188294545528762", "--r-m", "0.2991641893786304",
        "--emit-trials",
    ]
    assert cli.main(args + ["--outdir", str(sa)]) == 0
    assert cli.main(
        ["--from-manifest", str(sa / "simulate_manifest.json"), "--outdir", str(sb)]
    ) == 0
    for name in ("simulate.csv", "simulate_trials.csv"):
        assert (sa / name).read_bytes() == (sb / name).read_bytes()
    _report(9, "fig2 x3 (fresh, replay, parallel) and simulate x2 byte-identical")
