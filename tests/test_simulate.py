"""Monte-Carlo machinery: geometry, streams, estimators, invariances.

Oracle policy: every statistical assertion is either a distributional test
with an explicit significance floor (KS at 1%), a z/t-style comparison
with a 3-sigma budget against the closed-form value, or an exact
structural property (determinism, stream independence, boundary
semantics). Seeds are fixed; the margins were checked to sit well inside
their budgets, not at the edge.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import stats

from sectorrelay import analytic, simulate, specfun
from sectorrelay.errors import (
    DegenerateSampleError,
    DomainError,
    ParameterError,
)
from sectorrelay.model import NetworkParams, ProtocolVariant

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)
OPT = dataclasses.replace(BASE, p=0.1188294545528762, r_m=0.2991641893786304)


def _with(params, **kw):
    return dataclasses.replace(params, **kw)


def _same_sample(a, b):
    if (a.trial, a.relay_found, a.success) != (b.trial, b.relay_found, b.success):
        return False
    for x, y in [(a.d, b.d), (a.cos_offset, b.cos_offset), (a.sir, b.sir), (a.progress, b.progress)]:
        if math.isnan(x) != math.isnan(y):
            return False
        if not math.isnan(x) and x != y:
            return False
    return True


# ---------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------

def test_substream_is_reproducible():
    a = simulate.substream(123, 0, 7).random(5)
    b = simulate.substream(123, 0, 7).random(5)
    assert np.array_equal(a, b)


def test_substream_cells_are_distinct():
    base = simulate.substream(123, 0, 7).random(5)
    for seed, tag, index, attempt in [
        (124, 0, 7, 0), (123, 1, 7, 0), (123, 0, 8, 0), (123, 0, 7, 1),
    ]:
        other = simulate.substream(seed, tag, index, attempt).random(5)
        assert not np.array_equal(base, other)


def test_substream_coordinate_ranges():
    for bad in [(123, 256, 0, 0), (123, 0, 2**36, 0), (123, 0, 0, 2**20), (123, -1, 0, 0)]:
        with pytest.raises(ValueError):
            simulate.substream(*bad)


# ---------------------------------------------------------------------
# point process sampling
# ---------------------------------------------------------------------

def test_sample_ppp_count_distribution():
    rng = simulate.substream(2024, 0, 0)
    counts = np.array([len(simulate.sample_ppp(2.0, 2.0, rng)) for _ in range(3000)])
    expected = 2.0 * math.pi * 4.0
    z = (counts.mean() - expected) / math.sqrt(expected / len(counts))
    assert abs(z) < 3.5
    # Poisson counts have unit variance-to-mean ratio
    fano = counts.var(ddof=1) / counts.mean()
    assert abs(fano - 1.0) < 0.09


def test_sample_ppp_conditional_uniformity():
    # given the count, points must be uniform in the disk: squared radius
    # and angle are both uniform
    rng = simulate.substream(2024, 0, 1)
    pts = simulate.sample_ppp(50.0, 5.0, rng)
    assert len(pts) > 3000
    r2 = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 25.0
    theta = (np.arctan2(pts[:, 1], pts[:, 0]) + math.pi) / (2 * math.pi)
    assert stats.kstest(r2, "uniform").pvalue > 0.01
    assert stats.kstest(theta, "uniform").pvalue > 0.01


def test_sample_ppp_domain_errors():
    rng = simulate.substream(1, 0, 0)
    with pytest.raises(DomainError):
        simulate.sample_ppp(-1.0, 2.0, rng)
    with pytest.raises(DomainError):
        simulate.sample_ppp(1.0, 0.0, rng)


def test_assign_roles_thinning_fraction():
    rng = simulate.substream(99, 0, 0)
    pts = rng.uniform(-1, 1, size=(100_000, 2))
    config = simulate.assign_roles(pts, 0.12, rng, 1.0)
    # 3-sigma band: sqrt(0.12*0.88/1e5) ~ 0.00103
    assert config.transmitter_fraction == pytest.approx(0.12, abs=0.0031)
    # NaN heading exactly on receivers, uniform heading on transmitters
    assert np.array_equal(np.isnan(config.orientations), ~config.is_transmitter)
    tx_orient = config.orientations[config.is_transmitter]
    assert stats.kstest(tx_orient / (2 * math.pi), "uniform").pvalue > 0.01


def test_assign_roles_edge_probabilities():
    rng = simulate.substream(99, 0, 1)
    pts = rng.uniform(-1, 1, size=(500, 2))
    assert simulate.assign_roles(pts, 0.0, rng, 1.0).is_transmitter.sum() == 0
    assert simulate.assign_roles(pts, 1.0, rng, 1.0).is_transmitter.all()
    with pytest.raises(DomainError):
        simulate.assign_roles(pts, 1.2, rng, 1.0)


def test_covering_transmitter_density():
    # transmitters whose sector covers a fixed point form a thinned process
    # of density p * lam * phi / (2*pi); 1% check over 1e4 draws
    p, lam, phi, radius = 0.3, 1.0, math.pi, 6.0
    total = 0
    trials = 10_000
    for i in range(trials):
        rng = simulate.substream(314, 0, i)
        pts = simulate.sample_ppp(lam, radius, rng)
        config = simulate.assign_roles(pts, p, rng, radius)
        tx_pos = config.positions[config.is_transmitter]
        tx_orient = config.orientations[config.is_transmitter]
        total += int(simulate.sector_covers(tx_pos, tx_orient, (0.0, 0.0), phi).sum())
    measured = total / trials / (math.pi * radius**2)
    expected = p * lam * phi / (2 * math.pi)
    assert abs(measured - expected) / expected < 0.01


# ---------------------------------------------------------------------
# relay selection
# ---------------------------------------------------------------------

def test_select_relay_picks_nearest_eligible():
    receivers = np.array([[0.5, 0.1], [0.3, 0.0], [0.9, -0.1], [-0.4, 0.0]])
    relay = simulate.select_relay(receivers, math.pi / 2, 0.2)
    assert np.array_equal(relay, [0.3, 0.0])


def test_select_relay_empty_cases():
    assert simulate.select_relay(np.empty((0, 2)), math.pi / 2, 0.0) is None
    behind = np.array([[-1.0, 0.0]])  # outside the forward sector
    assert simulate.select_relay(behind, math.pi / 2, 0.0) is None


def test_select_relay_distance_edge_is_exclusive():
    # a receiver at exactly r_m must be skipped; just beyond, taken
    at_edge = np.array([[0.25, 0.0]])
    assert simulate.select_relay(at_edge, math.pi / 2, 0.25) is None
    beyond = np.array([[0.25 + 1e-12, 0.0]])
    assert simulate.select_relay(beyond, math.pi / 2, 0.25) is not None


def test_select_relay_angular_edge_location():
    # the angular boundary sits at phi/2 (to within arctan rounding);
    # pin it from both sides at 1e-12
    phi = 1.0
    for eps, expected in [(-1e-12, True), (1e-12, False)]:
        angle = phi / 2 + eps
        rx = np.array([[math.cos(angle), math.sin(angle)]])
        got = simulate.select_relay(rx, phi, 0.0) is not None
        assert got is expected


def test_select_relay_respects_pose():
    # transmitter away from the origin, rotated heading
    tx = np.array([3.0, 4.0])
    heading = 2.0
    rx = tx + 0.7 * np.array([math.cos(heading), math.sin(heading)])
    relay = simulate.select_relay(
        rx[None, :], math.pi / 3, 0.1, tx_position=tx, tx_orientation=heading
    )
    assert relay is not None
    assert np.hypot(*(relay - tx)) == pytest.approx(0.7, rel=1e-12)


def test_select_relay_wraps_across_the_angle_cut():
    heading = math.pi - 0.05
    angle = -math.pi + 0.05  # 0.1 rad away from the heading, across the cut
    rx = np.array([[math.cos(angle), math.sin(angle)]])
    assert simulate.select_relay(rx, 0.5, 0.0, tx_orientation=heading) is not None


# ---------------------------------------------------------------------
# relay distance distribution
# ---------------------------------------------------------------------

def test_relay_distances_follow_the_closed_cdf():
    params = _with(BASE, r_m=0.1)
    ds = simulate.sample_relay_distances(params, window_radius=4.0, trials=6000, seed=21)
    clean = ds[~np.isnan(ds)]
    assert len(clean) > 5900  # window is ~4 sigma past the law's tail
    result = stats.kstest(clean, lambda x: np.vectorize(
        lambda r: analytic.relay_distance_cdf(params, float(r)))(x))
    assert result.pvalue > 0.01


def test_relay_distances_rayleigh_specialization():
    # full-circle beam with no dead zone: classical nearest-receiver law
    params = NetworkParams(lam=1.3, alpha=3.0, beta=10.0, p=0.5, phi=2 * math.pi)
    ds = simulate.sample_relay_distances(params, window_radius=4.0, trials=4000, seed=22)
    clean = ds[~np.isnan(ds)]
    scale = 1.0 / math.sqrt(2.0 * 1.3 * 0.5 * math.pi)
    result = stats.kstest(clean, lambda x: stats.rayleigh.cdf(x, scale=scale))
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------
# SIR of a single link
# ---------------------------------------------------------------------

def _config(positions, orientations, radius=10.0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return simulate.PointConfiguration(
        positions=positions,
        is_transmitter=np.ones(len(positions), dtype=bool),
        orientations=np.asarray(orientations, dtype=float),
        window_radius=radius,
    )


def test_sir_without_interferers_is_infinite():
    rng = simulate.substream(5, 1, 0)
    empty = _config(np.empty((0, 2)), np.empty(0))
    sir = simulate.sir_at((0.0, 0.0), (-1.0, 0.0), 0.0, empty, BASE, rng)
    assert sir == math.inf


def test_sir_excludes_non_covering_interferers():
    # one interferer aiming away from the receiver: silent for the
    # directional variant, audible for the baseline
    interferer = _config([[1.0, 0.0]], [0.0])  # beam points further +x
    rng = simulate.substream(5, 1, 1)
    sir_dir = simulate.sir_at((0.0, 0.0), (-1.0, 0.0), 0.0, interferer, BASE, rng)
    assert sir_dir == math.inf
    sir_omni = simulate.sir_at(
        (0.0, 0.0), (-1.0, 0.0), 0.0, interferer, BASE, rng,
        ProtocolVariant.OMNIDIRECTIONAL,
    )
    assert math.isfinite(sir_omni)


def test_sir_matched_distance_success_rate():
    # serving and interfering transmitters at the same distance: the SIR is
    # a ratio of two i.i.d. exponentials, so P(success) = 1/(1+beta) = 1/11
    interferer = _config([[1.0, 0.0]], [math.pi])  # aimed back at the origin
    rng = simulate.substream(5, 1, 2)
    draws = 100_000
    wins = 0
    for _ in range(draws):
        sir = simulate.sir_at((0.0, 0.0), (-1.0, 0.0), 0.0, interferer, BASE, rng)
        wins += sir > BASE.beta
    assert wins / draws == pytest.approx(1.0 / 11.0, abs=0.003)


def test_sir_degenerate_draws_raise():
    rng = simulate.substream(5, 1, 3)
    empty = _config(np.empty((0, 2)), np.empty(0))
    with pytest.raises(DegenerateSampleError):  # zero-length link
        simulate.sir_at((0.0, 0.0), (0.0, 0.0), 0.0, empty, BASE, rng)
    on_top = _config([[0.0, 0.0]], [0.0])  # interferer on the receiver
    with pytest.raises(DegenerateSampleError):
        simulate.sir_at((0.0, 0.0), (-1.0, 0.0), 0.0, on_top, BASE, rng)


def test_sir_requires_serving_coverage():
    rng = simulate.substream(5, 1, 4)
    empty = _config(np.empty((0, 2)), np.empty(0))
    with pytest.raises(DomainError):  # serving beam points away
        simulate.sir_at((0.0, 0.0), (-1.0, 0.0), math.pi, empty, BASE, rng)


def test_link_success_matches_closed_form():
    radius = 9.0
    for i, d in enumerate([0.1, 0.2, 0.3]):
        p_hat, se = simulate.simulate_link_success(
            BASE, d, trials=20_000, seed=40 + i, interference_radius=radius
        )
        target = analytic.success_probability(BASE, d)
        assert abs(p_hat - target) / target < 0.02
        # finite interference disk biases success upward by roughly
        # exp(density * 2*pi*beta*d^3 / radius) - 1 at alpha = 3
        truncation = (
            analytic.interferer_density(BASE)
            * 2.0 * math.pi * BASE.beta * d**3 / radius * target
        )
        assert abs(p_hat - target) < 3.5 * se + 1.5 * truncation


# ---------------------------------------------------------------------
# full trials and the progress estimator
# ---------------------------------------------------------------------

def test_run_trial_is_deterministic():
    sim = simulate.SimConfig(window_radius=8.0, trials=1, seed=77, guard_radius=20.0)
    for idx in [0, 3, 11]:
        a = simulate.run_trial(BASE, sim, idx)
        b = simulate.run_trial(BASE, sim, idx)
        assert _same_sample(a, b)
        assert a.trial == idx


def test_run_trial_unreachable_region():
    # dead zone larger than the window: no relay can ever be found
    params = _with(BASE, r_m=20.0)
    sim = simulate.SimConfig(window_radius=15.0, trials=1, seed=3, guard_radius=20.0)
    samples = [simulate.run_trial(params, sim, i) for i in range(50)]
    assert not any(s.relay_found for s in samples)
    assert all(s.progress == 0.0 for s in samples)
    est = simulate.summarize_trials(samples, params)
    assert est.relay_found_fraction == 0.0
    assert est.mean == 0.0


def test_worker_count_caps_a_huge_request():
    cpus = os.cpu_count() or 1
    assert simulate.worker_count(10**9, 10**6) == min(10**6, cpus)
    assert simulate.worker_count(10**9, 1) == 1
    assert simulate.worker_count(1, 10**6) == 1


def test_collect_trials_parallel_matches_serial():
    sim = simulate.SimConfig(window_radius=6.0, trials=60, seed=123, guard_radius=10.0)
    serial = simulate.collect_trials(BASE, sim, workers=1)
    parallel = simulate.collect_trials(BASE, sim, workers=2)
    assert [s.trial for s in serial] == list(range(60))
    assert all(_same_sample(a, b) for a, b in zip(serial, parallel))


def test_summarize_trials_exact_scaling():
    params = _with(BASE, lam=2.0, p=0.2)
    samples = [
        simulate.TrialSample(i, True, 1.0, 1.0, 50.0, True, float(v))
        for i, v in enumerate([1.0, 2.0, 3.0])
    ]
    est = simulate.summarize_trials(samples, params)
    scale = 0.2 * 2.0
    assert est.mean == scale * 2.0
    assert est.std_error == pytest.approx(scale * 1.0 / math.sqrt(3.0), rel=1e-15)
    assert est.trials_used == 3
    assert est.relay_found_fraction == 1.0


def test_summarize_trials_needs_two_trials():
    samples = [simulate.TrialSample(0, True, 1.0, 1.0, 50.0, True, 1.0)]
    with pytest.raises(DomainError):
        simulate.summarize_trials(samples, BASE)


def test_validate_for_estimation_names_violations():
    sim = simulate.SimConfig(window_radius=15.0, trials=50, seed=0, guard_radius=5.0)
    with pytest.raises(ParameterError) as err:
        simulate.validate_for_estimation(BASE, sim)
    message = str(err.value)
    assert "trials" in message
    assert "guard_radius" in message


def test_estimator_agrees_with_closed_form():
    sim = simulate.SimConfig.for_params(OPT, trials=2000, seed=7)
    est = simulate.estimate_density_of_progress(OPT, sim)
    target = analytic.expected_density_closed(OPT)
    z = (est.mean - target) / est.std_error
    assert abs(z) < 3.0
    assert est.trials_used == 2000
    assert est.relay_found_fraction > 0.9


def test_estimator_orders_transmission_probabilities():
    # p = 0.5 wastes the network on interference; p near the optimum wins
    sim = lambda seed: simulate.SimConfig(
        window_radius=10.0, trials=500, seed=seed, guard_radius=40.0
    )
    good = simulate.estimate_density_of_progress(_with(OPT, p=0.12), sim(31))
    bad = simulate.estimate_density_of_progress(_with(OPT, p=0.5), sim(32))
    assert bad.mean + 3 * bad.std_error < good.mean - 3 * good.std_error


def test_fading_scale_invariance():
    # the SIR is a ratio of exponentials, so the fading scale must cancel
    # draw-by-draw up to rounding; the estimates then agree trivially
    sim = simulate.SimConfig(window_radius=8.0, trials=300, seed=5, guard_radius=30.0)
    base = simulate.collect_trials(BASE, sim)
    scaled = simulate.collect_trials(_with(BASE, mu=5.0), sim)
    for a, b in zip(base, scaled):
        assert a.relay_found == b.relay_found
        if not a.relay_found:
            continue
        assert a.d == b.d  # geometry is untouched by the fading scale
        if math.isinf(a.sir) or math.isinf(b.sir):
            assert a.sir == b.sir
        else:
            assert a.sir == pytest.approx(b.sir, rel=1e-12)
        assert a.success == b.success
    ea = simulate.summarize_trials(base, BASE)
    eb = simulate.summarize_trials(scaled, BASE)
    assert abs(ea.mean - eb.mean) < 3.0 * math.hypot(ea.std_error, eb.std_error)


@pytest.mark.parametrize("alpha", [2.1, 3.0, 5.0])
@pytest.mark.parametrize("s, radius", [(0.5, 10.0), (10.0, 0.5), (3.0, 1.0)])
def test_far_field_integral_matches_quadrature(alpha, s, radius):
    # (10, 0.5) and (3, 1) put s*L^-alpha past 1, where hyp2f1 continues
    # its series analytically
    quad = specfun.integrate_semi_infinite(
        lambda r: 2 * math.pi * r * s * r**-alpha / (1 + s * r**-alpha),
        radius, rel_tol=1e-12,
    )
    got = simulate.far_field_integral(s, alpha, radius)
    assert got == pytest.approx(quad.value, rel=1e-10)


def test_far_field_integral_domain_errors():
    for bad in [(1.0, 2.0, 1.0), (1.0, 3.0, 0.0), (-1.0, 3.0, 1.0)]:
        with pytest.raises(DomainError):
            simulate.far_field_integral(*bad)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_empty_near_field_gives_the_closed_success_probability(variant):
    # a near field too small to hold a point leaves only the exact far
    # field, whose radius-0 limit is the closed-form success probability
    sim = simulate.SimConfig(window_radius=15.0, trials=1, seed=9, guard_radius=1e-8)
    found = 0
    for i in range(40):
        sample = simulate.run_trial(OPT, sim, i, variant)
        if not sample.relay_found:
            continue
        found += 1
        assert sample.sir == math.inf
        expected = sample.d * sample.cos_offset * analytic.success_probability(
            OPT, sample.d, variant
        )
        assert sample.progress == pytest.approx(expected, rel=1e-12)
    assert found > 30


def test_near_field_radius_leaves_the_estimate_unbiased():
    sim = simulate.SimConfig(window_radius=15.0, trials=500, seed=3, guard_radius=10.0)
    small, large = simulate.guard_sensitivity(OPT, sim, guards=[5.0, 20.0])
    assert abs(small.mean - large.mean) < 3.0 * math.hypot(small.std_error, large.std_error)


def test_default_near_field_dominates_the_interference():
    # the far-field closed form must stay a small correction, so that the
    # simulator still samples most of the interference it is checking
    sim = simulate.SimConfig.for_params(OPT, trials=300, seed=11)
    assert sim.guard_radius >= sim.min_guard(OPT)
    density = analytic.interferer_density(OPT)
    far = total = 0.0
    for sample in simulate.collect_trials(OPT, sim):
        if not sample.relay_found:
            continue
        s = OPT.beta * sample.d**OPT.alpha
        far += density * simulate.far_field_integral(s, OPT.alpha, sim.guard_radius)
        total -= math.log(sample.progress / (sample.d * sample.cos_offset))
    assert far < 0.1 * total


def test_guard_doubling_shifts_less_than_one_sigma():
    sim = simulate.SimConfig(window_radius=10.0, trials=400, seed=17, guard_radius=40.0)
    far, near = simulate.guard_sensitivity(OPT, sim, guards=[80.0, 40.0])
    assert abs(far.mean - near.mean) < max(far.std_error, near.std_error)


def test_directional_beats_omni_in_simulation():
    sim = simulate.SimConfig(window_radius=10.0, trials=600, seed=53, guard_radius=40.0)
    directional = simulate.estimate_density_of_progress(OPT, sim)
    omni = simulate.estimate_density_of_progress(
        OPT, sim, ProtocolVariant.OMNIDIRECTIONAL
    )
    assert omni.mean + 3 * omni.std_error < directional.mean - 3 * directional.std_error
