"""Monte-Carlo machinery: geometry, streams, estimators, invariances.

Oracle policy: every statistical assertion is either a distributional test
with an explicit significance floor (KS at 1%), a z/t-style comparison
with a 3-sigma budget against the closed-form value, or an exact
structural property (determinism, stream independence, boundary
semantics). Seeds are fixed; the margins were checked to sit well inside
their budgets, not at the edge.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from sectorrelay import analytic, optimize, simulate
from sectorrelay.errors import DomainError, EmptyEstimateError, ParameterError
from sectorrelay.model import NetworkParams, ProtocolVariant, relay_rate

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)
OPT = dataclasses.replace(BASE, p=0.1188294545528762, r_m=0.2991641893786304)


def _with(params, **kw):
    return dataclasses.replace(params, **kw)


def _item8_grid():
    """ROADMAP item 8's grid, in order: (params, variant) over alpha, beta in
    dB, p, phi, r_m and the variant, at lambda = 1."""
    for alpha, beta_db, p, phi, r_m, variant in itertools.product(
        (2.2, 3.0, 5.0), (-10.0, 10.0, 30.0), (0.01, 0.1, 0.5), (0.3, math.pi / 2, 5.0),
        (0.0, 0.5, 3.0), ProtocolVariant,
    ):
        params = NetworkParams(
            lam=1.0, alpha=alpha, beta=10.0 ** (beta_db / 10.0), p=p, phi=phi, r_m=r_m
        )
        yield params, variant


# ---------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------

def test_stream_is_reproducible():
    a = simulate._stream(123, simulate._TAG_NEAR).random(5)
    b = simulate._stream(123, simulate._TAG_NEAR).random(5)
    assert np.array_equal(a, b)


def test_streams_of_other_seeds_and_tags_differ():
    base = simulate._stream(123, simulate._TAG_RELAY).random(5)
    for seed, tag in [
        (124, simulate._TAG_RELAY), (123, simulate._TAG_NEAR),
        (123, simulate._TAG_LINK), (123, simulate._TAG_SAMPLE),
    ]:
        assert not np.array_equal(base, simulate._stream(seed, tag).random(5))


# ---------------------------------------------------------------------
# per-trial segment sums
# ---------------------------------------------------------------------

@pytest.mark.parametrize("counts", [
    [0, 3, 1, 2], [2, 1, 0, 4], [3, 1, 2, 0], [0, 0, 2, 0, 0], [0, 0, 0], [],
], ids=["first-empty", "middle-empty", "last-empty", "mostly-empty", "all-empty", "no-trials"])
def test_segment_sums_match_bincount(counts):
    counts = np.array(counts, dtype=np.int64)
    # whole numbers sum exactly in any order: reduceat adds a segment
    # pairwise and bincount in sequence, which may differ in the last bit
    values = np.random.default_rng(6).integers(1, 2**20, int(counts.sum())).astype(float)
    reference = np.bincount(np.repeat(np.arange(len(counts)), counts), values, len(counts))
    assert np.array_equal(simulate._segment_sums(values, counts), reference)


# ---------------------------------------------------------------------
# hand-fed raw draws
# ---------------------------------------------------------------------

class _Fed:
    """A stand-in for a run's stream: every Poisson call returns counts,
    padded with zeros to a whole chunk, and every uniform call fill(size)."""

    def __init__(self, counts, fill):
        self._counts = np.pad(np.asarray(counts, dtype=np.int64), (0, simulate.CHUNK - len(counts)))
        self._fill = fill

    def poisson(self, lam, size):
        return self._counts

    def random(self, size):
        return self._fill(size)


def _relays_among(monkeypatch, receivers, phi, r_m):
    """(distances, angles) of the relays among hand-placed receivers in a
    unit disk: receivers[i] lists trial i's (distance, angle) pairs."""
    points = np.array([point for trial in receivers for point in trial], dtype=float)
    radius, angle = points.reshape(-1, 2).T
    u = np.array([radius**2, (angle + math.pi) / (2 * math.pi)])
    counts = [len(trial) for trial in receivers]
    monkeypatch.setattr(simulate, "_stream", lambda seed, tag: _Fed(counts, lambda size: u))
    params = _with(BASE, phi=phi, r_m=r_m)
    return simulate.sample_relay_distances(params, 1.0, trials=len(receivers), seed=0)


def _links_among(monkeypatch, interferers, variant=ProtocolVariant.DIRECTIONAL):
    """SIRs of unit links among hand-placed interferers in a disk of radius
    2, every fading exactly Exp(1)'s mean: interferers[i] lists trial i's
    (distance, angle, heading) triples."""
    points = np.array([point for trial in interferers for point in trial], dtype=float)
    radius, angle, heading = points.reshape(-1, 3).T
    unit_fading = np.full(len(radius) + simulate.CHUNK, -math.expm1(-1.0))
    u = np.concatenate(
        ((radius / 2.0) ** 2, angle / (2 * math.pi), heading / (2 * math.pi), unit_fading)
    )
    counts = [len(trial) for trial in interferers]
    monkeypatch.setattr(simulate, "_stream", lambda seed, tag: _Fed(counts, lambda size: u))
    return simulate.sample_link_sir(
        BASE, np.ones(len(interferers)), seed=0, interference_radius=2.0, variant=variant
    )


# ---------------------------------------------------------------------
# relay selection
# ---------------------------------------------------------------------

def test_select_relay_picks_nearest_eligible(monkeypatch):
    # trial 0 holds a receiver inside r_m, one behind the transmitter and
    # three in the sector, the nearest of them at 0.3; trial 1 keeps its own
    receivers = [
        [(0.1, 0.0), (0.51, 0.197), (0.3, 0.0), (0.906, -0.11), (0.4, math.pi)],
        [(0.7, -0.5)],
    ]
    d, angle = _relays_among(monkeypatch, receivers, math.pi / 2, 0.2)
    assert d.tolist() == [0.3, 0.7]
    assert angle.tolist() == pytest.approx([0.0, -0.5], abs=1e-12)


def test_select_relay_empty_cases(monkeypatch):
    # no receiver at all, or only one behind the transmitter: no relay
    d, angle = _relays_among(monkeypatch, [[], [(1.0, math.pi)]], math.pi / 2, 0.0)
    assert np.isnan(d).all() and np.isnan(angle).all()


def test_select_relay_distance_edge_is_exclusive(monkeypatch):
    # a receiver at exactly r_m must be skipped; just beyond, taken
    d, _ = _relays_among(monkeypatch, [[(0.25, 0.0)], [(0.25 + 1e-12, 0.0)]], math.pi / 2, 0.25)
    assert math.isnan(d[0]) and d[1] > 0.25


def test_select_relay_angular_edge_location(monkeypatch):
    # the angular boundary sits at +-phi/2 (to within the angle's rounding);
    # pin it from both sides at 1e-12
    phi = 1.0
    inside = [[(1.0, phi / 2 - 1e-12)], [(1.0, 1e-12 - phi / 2)]]
    outside = [[(1.0, phi / 2 + 1e-12)], [(1.0, -1e-12 - phi / 2)]]
    d, _ = _relays_among(monkeypatch, inside + outside, phi, 0.0)
    assert np.isnan(d).tolist() == [False, False, True, True]


# ---------------------------------------------------------------------
# relay distance distribution
# ---------------------------------------------------------------------

def test_relay_distances_follow_the_closed_cdf():
    # the full-disk draw: distances follow the relay-distance CDF, and the
    # angle, which the trial kernel integrates out, is uniform on the sector
    params = _with(BASE, r_m=0.1)
    ds, angles = simulate.sample_relay_distances(params, window_radius=4.0, trials=6000, seed=21)
    found = ~np.isnan(ds)
    assert np.array_equal(found, ~np.isnan(angles))
    clean = ds[found]
    assert len(clean) > 5900  # window is ~4 sigma past the law's tail
    result = stats.kstest(clean, lambda x: np.vectorize(
        lambda r: analytic.relay_distance_cdf(params, float(r)))(x))
    assert result.pvalue > 0.01
    sector = (angles[found] + params.phi / 2) / params.phi
    assert stats.kstest(sector, "uniform").pvalue > 0.01


def test_relay_distances_rayleigh_specialization():
    # full-circle beam with no dead zone: classical nearest-receiver law
    params = NetworkParams(lam=1.3, alpha=3.0, beta=10.0, p=0.5, phi=2 * math.pi)
    ds, _ = simulate.sample_relay_distances(params, window_radius=4.0, trials=4000, seed=22)
    clean = ds[~np.isnan(ds)]
    scale = 1.0 / math.sqrt(2.0 * 1.3 * 0.5 * math.pi)
    result = stats.kstest(clean, lambda x: stats.rayleigh.cdf(x, scale=scale))
    assert result.pvalue > 0.01


def test_relay_distance_draws_are_a_prefix():
    # whole chunks run in order on one stream, so a shorter run repeats the
    # start of a longer one, across a chunk boundary
    short, long = simulate.CHUNK - 30, simulate.CHUNK + 50
    few = simulate.sample_relay_distances(BASE, window_radius=4.0, trials=short, seed=23)
    many = simulate.sample_relay_distances(BASE, window_radius=4.0, trials=long, seed=23)
    for head, full in zip(few, many):
        assert np.array_equal(head, full[:short], equal_nan=True)


def test_trial_kernel_relays_follow_the_closed_laws():
    # the kernel draws d^2 - r_m^2 from the proposal Exp(b + kappa) through
    # the inverse CDF, with kappa = rho*beta^(2/alpha)*pi; its distances must
    # follow that law, and the weighted distances the relay-distance CDF.
    # The strata only make the draws more even than independent ones, so
    # both checks keep their meaning
    params = _with(BASE, r_m=0.1)
    sim = simulate.SimConfig(trials=6000, seed=21, guard_radius=1.0)
    trials = simulate.collect_trials(params, sim)
    ds = trials.d
    b = (1.0 - params.p) * params.lam * params.phi / 2.0
    kappa = analytic.interferer_density(params) * params.beta ** (2.0 / params.alpha) * math.pi
    result = stats.kstest(ds**2 - params.r_m**2, stats.expon(scale=1.0 / (b + kappa)).cdf)
    assert result.pvalue > 0.01
    # the weighted empirical CDF at the relay law's deciles, within 3 sigma.
    # The relay is drawn before the near field, so a near field too small to
    # hold a point keeps these distances and leaves the relay's likelihood
    # ratio alone in the weight (the near field's own weights have a variance
    # that grows like exp(C*d^alpha); only their product with P_s is tamed)
    relay_only = simulate.collect_trials(params, dataclasses.replace(sim, guard_radius=1e-8))
    assert np.array_equal(relay_only.d, ds)
    deciles = np.sqrt(params.r_m**2 - np.log1p(-np.arange(1, 10) / 10.0) / b)
    for x in deciles:
        below = relay_only.weight * (ds <= x)
        z = (below.mean() - analytic.relay_distance_cdf(params, float(x))) / (
            below.std(ddof=1) / math.sqrt(len(below))
        )
        assert abs(z) < 3.0


# ---------------------------------------------------------------------
# SIR of a single link
# ---------------------------------------------------------------------

def test_sir_without_interferers_is_infinite(monkeypatch):
    assert _links_among(monkeypatch, [[], []]).tolist() == [math.inf, math.inf]


def test_sir_excludes_non_covering_interferers(monkeypatch):
    # one interferer at distance 1 with the signal's fading: beaming further
    # +x, away from the receiver (trial 0), it is silent for the directional
    # variant and audible for the baseline; aimed back (trial 1), audible
    interferers = [[(1.0, 0.0, 0.0)], [(1.0, 0.0, math.pi)]]
    directional = _links_among(monkeypatch, interferers)
    omni = _links_among(monkeypatch, interferers, ProtocolVariant.OMNIDIRECTIONAL)
    assert directional[0] == math.inf
    assert directional[1] == pytest.approx(1.0, rel=1e-12)
    assert omni.tolist() == pytest.approx([1.0, 1.0], rel=1e-12)


def test_sir_matched_distance_success_rate(monkeypatch):
    # serving and interfering transmitters at the same distance, the
    # interferer aimed back at the receiver: the SIR is a ratio of two i.i.d.
    # exponentials, so P(success) = 1/(1+beta) = 1/11
    draws = 100_000
    rng = np.random.default_rng((5, 2))
    n = simulate.CHUNK

    def fill(size):
        u = rng.random(size)
        u[:n] = 0.25  # distance 1 in the disk of radius 2
        u[2 * n : 3 * n] = (u[n : 2 * n] + 0.5) % 1.0  # heading back along the bearing
        return u

    monkeypatch.setattr(simulate, "_stream", lambda seed, tag: _Fed(np.ones(n), fill))
    sir = simulate.sample_link_sir(BASE, np.ones(draws), seed=0, interference_radius=2.0)
    wins = int(np.count_nonzero(sir > BASE.beta))
    assert wins / draws == pytest.approx(1.0 / 11.0, abs=0.003)


def test_sir_with_an_interferer_on_the_receiver_is_zero(monkeypatch):
    # the first trial of every chunk gets an interferer at radius exactly 0:
    # infinite interference wherever its sector covers the receiver, as
    # every sector does at phi = 2*pi, and so does every omnidirectional
    # transmitter. At phi = pi/2 it covers in some chunks and not in the
    # others; no warning and no NaN either way
    real = simulate._stream
    monkeypatch.setattr(
        simulate, "_stream",
        lambda seed, tag: _ZeroFirst(real(seed, tag)) if tag == simulate._TAG_LINK
        else real(seed, tag),
    )
    d = np.full(32 * simulate.CHUNK, 0.5)
    firsts = np.arange(0, len(d), simulate.CHUNK)
    runs = [
        (_with(BASE, phi=2 * math.pi), ProtocolVariant.DIRECTIONAL),
        (BASE, ProtocolVariant.OMNIDIRECTIONAL),
        (BASE, ProtocolVariant.DIRECTIONAL),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full_circle, omni, sector = (
            simulate.sample_link_sir(params, d, seed=5, interference_radius=9.0, variant=variant)
            for params, variant in runs
        )
    for sir in (full_circle, omni):
        assert np.all(sir[firsts] == 0.0) and np.all(sir[firsts + 1] > 0.0)
    assert not np.isnan(sector).any()
    assert 0 < np.count_nonzero(sector[firsts] == 0.0) < len(firsts)


def test_zero_length_link_raises_domain_error():
    for d in ([0.0], [math.nan], [1.0, -1.0]):
        with pytest.raises(DomainError):
            simulate.sample_link_sir(BASE, d, seed=0, interference_radius=9.0)


def test_raw_draws_need_a_positive_window():
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            simulate.sample_relay_distances(BASE, radius, trials=1, seed=0)
        with pytest.raises(DomainError):
            simulate.sample_link_sir(BASE, [1.0], seed=0, interference_radius=radius)


def test_link_draws_are_a_prefix():
    # one trial per link, in chunks drawn in order: a shorter run repeats the
    # start of a longer one, across a chunk boundary
    d = np.linspace(0.1, 1.0, simulate.CHUNK + 50)
    short = simulate.CHUNK - 30
    full = simulate.sample_link_sir(BASE, d, seed=23, interference_radius=9.0)
    head = simulate.sample_link_sir(BASE, d[:short], seed=23, interference_radius=9.0)
    assert np.array_equal(head, full[:short])


def test_covering_transmitter_density():
    # transmitters (density p*lam) with uniform headings whose sector covers
    # a fixed receiver form a thinned process of density
    # rho = p*lam*phi/(2*pi), all of them omnidirectionally, so a disk of
    # radius R holds none of them, SIR = inf, with probability
    # exp(-rho*pi*R^2). R puts rho*pi*R^2 at 1.6, where -log of that share
    # estimates rho best: 300k trials give a relative standard error of
    # 0.23 %, below the 0.24 % of counting them over 1e4 draws at radius 6.
    # 1% check
    params = _with(BASE, p=0.3, phi=math.pi)
    for variant in ProtocolVariant:
        rho = analytic.interferer_density(params, variant)
        radius = math.sqrt(1.6 / (math.pi * rho))
        sir = simulate.sample_link_sir(
            params, np.ones(300_000), seed=314, interference_radius=radius, variant=variant
        )
        measured = -math.log(np.mean(sir == math.inf)) / (math.pi * radius**2)
        assert abs(measured - rho) / rho < 0.01


def test_link_success_matches_closed_form():
    # each variant against its own closed form. The omnidirectional links
    # hear every transmitter in the disk, four times the directional density,
    # so its truncation bias reaches 2.3 % at d = 0.3: the 2 % relative
    # bound is the directional link's alone
    radius = 9.0
    for variant in ProtocolVariant:
        density = analytic.interferer_density(BASE, variant)
        for i, d in enumerate([0.1, 0.2, 0.3]):
            sir = simulate.sample_link_sir(
                BASE, np.full(20_000, d), seed=40 + i, interference_radius=radius, variant=variant
            )
            p_hat = float(np.mean(sir > BASE.beta))
            se = math.sqrt(p_hat * (1.0 - p_hat) / len(sir))
            target = analytic.success_probability(BASE, d, variant)
            if variant is ProtocolVariant.DIRECTIONAL:
                assert abs(p_hat - target) / target < 0.02
            # finite interference disk biases success upward by roughly
            # exp(density * 2*pi*beta*d^3 / radius) - 1 at alpha = 3
            truncation = density * 2.0 * math.pi * BASE.beta * d**3 / radius * target
            assert abs(p_hat - target) < 3.5 * se + 1.5 * truncation


# ---------------------------------------------------------------------
# full trials and the progress estimator
# ---------------------------------------------------------------------

def _same_trials(a, b) -> bool:
    """Whether two Trials hold bitwise the same values in every column."""
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_collect_trials_is_deterministic():
    # three whole blocks of STRATA trials
    trials = 3 * simulate.STRATA
    sim = simulate.SimConfig(trials=trials, seed=77, guard_radius=20.0)
    a = simulate.collect_trials(BASE, sim)
    b = simulate.collect_trials(BASE, sim)
    assert _same_trials(a, b)
    assert [len(column) for column in a] == [trials, trials, trials]


def test_runs_draw_whole_strata_blocks():
    # trial i draws its relay uniform in stratum i mod STRATA: each block of
    # STRATA consecutive trials puts one E = d^2 - r_m^2 in each quantile
    # band of the proposal law, and a run rounds its trials up to whole blocks
    sim = simulate.SimConfig(trials=2 * simulate.CHUNK - 2, seed=8, guard_radius=1e-8)
    assert simulate.CHUNK % simulate.STRATA == 0
    trials = simulate.collect_trials(BASE, sim)
    assert len(trials.d) == 2 * simulate.CHUNK
    table = simulate._proposal(BASE, ProtocolVariant.DIRECTIONAL, (sim.guard_radius,))
    u = -np.expm1(-table.rate * (trials.d**2 - BASE.r_m**2))
    band = np.floor(u * simulate.STRATA)
    assert np.array_equal(band, np.arange(len(u)) % simulate.STRATA)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_estimator_agrees_at_a_distant_reference(variant):
    # r_m = 20/sqrt(lambda) puts every relay twenty relay scales out; the
    # kernel must still draw it, and the estimate meet the closed form
    params = NetworkParams(lam=1.0, alpha=3.0, beta=0.1, p=0.01, phi=math.pi / 2, r_m=20.0)
    sim = simulate.SimConfig.for_params(params, trials=2000, seed=3)
    est = simulate.estimate_density_of_progress(params, sim, variant)
    target = analytic.expected_density_closed(params, variant)
    assert abs(est.mean - target) < 3.0 * est.std_error


def test_collect_trials_is_a_prefix_across_a_chunk_boundary():
    # the short run ends inside the chunk that the long run runs past, two
    # blocks before its end (128 and 278 trials at CHUNK = 256, STRATA = 64)
    short, long = simulate.CHUNK - 2 * simulate.STRATA, simulate.CHUNK + 22
    assert short // simulate.CHUNK < long // simulate.CHUNK and short % simulate.STRATA == 0
    sim = simulate.SimConfig(trials=long, seed=123, guard_radius=10.0)
    full = simulate.collect_trials(BASE, sim)
    prefix = simulate.collect_trials(BASE, dataclasses.replace(sim, trials=short))
    assert len(prefix.progress) == short
    assert _same_trials(prefix, (column[:short] for column in full))


class _ZeroFirst:
    """A generator whose every batch of uniforms starts with an exact 0, and
    whose first Poisson count is at least 1: the trial kernel's first cell
    is the inner disk, the only ring that reaches the relay."""

    def __init__(self, rng):
        self._rng = rng

    def poisson(self, *args):
        counts = self._rng.poisson(*args)
        counts.flat[0] = max(counts.flat[0], 1)
        return counts

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        u.flat[0] = 0.0
        return u


def test_interferer_on_the_relay_gives_zero_progress(monkeypatch):
    # the first trial of every chunk gets an inner-disk point at radius 0:
    # its link cannot survive, so its progress is exactly 0, while its
    # relay and weight stay as finite as any other trial's
    sim = simulate.SimConfig(trials=2 * simulate.CHUNK, seed=5, guard_radius=10.0)
    clean = simulate.collect_trials(BASE, sim)
    real = simulate._stream
    monkeypatch.setattr(
        simulate, "_stream",
        lambda seed, tag: _ZeroFirst(real(seed, tag)) if tag == simulate._TAG_NEAR
        else real(seed, tag),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forced = simulate.collect_trials(BASE, sim)
    firsts = np.arange(0, sim.trials, simulate.CHUNK)
    assert np.array_equal(forced.d, clean.d)
    assert np.all(forced.progress[firsts] == 0.0)
    assert np.all(forced.progress[firsts + 1] > 0.0)
    assert np.all(np.isfinite(forced.weight)) and np.all(forced.weight > 0.0)


def test_summarize_trials_exact_scaling():
    # three blocks of STRATA trials: stratum h holds c_h - 1, c_h and c_h + 1,
    # with the c_h spread about 2 by half-integer offsets, which sum exactly.
    # The standard error is the spread within the strata, 1/sqrt(n), not the
    # spread of the trials nor that of the block means 1, 2 and 3
    params = _with(BASE, lam=2.0, p=0.2)
    offsets = np.arange(simulate.STRATA) - 0.5 * (simulate.STRATA - 1)
    progress = np.concatenate([2.0 + offsets + step for step in (-1.0, 0.0, 1.0)])
    est = simulate.summarize_trials(progress, params)
    scale = 0.2 * 2.0
    assert est.mean == scale * 2.0
    assert est.std_error == pytest.approx(scale / math.sqrt(3 * simulate.STRATA), rel=1e-15)
    assert est.trials_used == 3 * simulate.STRATA


def test_summarize_trials_needs_two_trials():
    # two whole blocks at least: one block, or a partial one, is refused
    for n in (simulate.STRATA, 2 * simulate.STRATA + 1, 2 * simulate.STRATA - 1):
        with pytest.raises(DomainError):
            simulate.summarize_trials(np.arange(float(n)), BASE)
    two_blocks = simulate.summarize_trials(np.arange(2.0 * simulate.STRATA), BASE)
    assert two_blocks.trials_used == 2 * simulate.STRATA


def test_summarize_trials_refuses_all_zero_progress():
    # no trial carried progress: no estimate, rather than a mean of 0 with
    # a standard error of 0
    with pytest.raises(EmptyEstimateError):
        simulate.summarize_trials(np.zeros(2 * simulate.STRATA), BASE)
    tiny = np.zeros(2 * simulate.STRATA)
    tiny[-1] = 1e-300
    assert simulate.summarize_trials(tiny, BASE).mean > 0.0


def test_summarize_trials_refuses_an_estimate_that_underflows():
    # one trial of 128 carries the smallest subnormal: its mean and spread
    # underflow to exactly 0, which must not pass as an estimate of 0 with a
    # standard error of 0
    y = np.zeros(2 * simulate.STRATA)
    y[5] = 5e-324
    with pytest.raises(EmptyEstimateError):
        simulate.summarize_trials(y, BASE)


def test_validate_for_estimation_names_violations():
    sim = simulate.SimConfig(trials=50, seed=0, guard_radius=5.0)
    with pytest.raises(ParameterError) as err:
        simulate.validate_for_estimation(BASE, sim)
    message = str(err.value)
    assert "trials" in message
    assert "guard_radius" in message


@pytest.mark.parametrize(
    "trials, guard_radius, named",
    [(0, 1.0, "trials"), (10, math.inf, "guard_radius")],
    ids=["no-trials", "infinite-guard"],
)
def test_sim_config_checks_itself_when_built(trials, guard_radius, named):
    with pytest.raises(ParameterError, match=named):
        simulate.SimConfig(trials=trials, seed=0, guard_radius=guard_radius)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 2], ids=["pi-over-6", "pi-over-2"])
def test_estimator_agrees_with_closed_form(phi, variant):
    # at each variant's joint optimum: the directional kernel keeps 1/12 or
    # 1/4 of the transmitters, the omnidirectional one all of them
    best = optimize.optimize_joint(_with(BASE, phi=phi), variant)
    params = _with(BASE, phi=phi, p=best.p_star, r_m=best.rm_star)
    sim = simulate.SimConfig.for_params(params, trials=2000, seed=7)
    est = simulate.estimate_density_of_progress(params, sim, variant)
    target = analytic.expected_density_closed(params, variant)
    z = (est.mean - target) / est.std_error
    assert abs(z) < 3.0
    assert est.trials_used == simulate.STRATA * math.ceil(2000 / simulate.STRATA)


def test_variants_coincide_at_full_circle():
    # at phi = 2*pi every sector covers the relay: both variants draw the
    # same covering density and must give bitwise the same samples
    params = _with(OPT, phi=2 * math.pi)
    sim = simulate.SimConfig.for_params(params, trials=100, seed=19)
    directional = simulate.collect_trials(params, sim, ProtocolVariant.DIRECTIONAL)
    omni = simulate.collect_trials(params, sim, ProtocolVariant.OMNIDIRECTIONAL)
    assert _same_trials(directional, omni)


def test_estimator_orders_transmission_probabilities():
    # p = 0.5 wastes the network on interference; p near the optimum wins
    sim = lambda seed: simulate.SimConfig(trials=500, seed=seed, guard_radius=40.0)
    good = simulate.estimate_density_of_progress(_with(OPT, p=0.12), sim(31))
    bad = simulate.estimate_density_of_progress(_with(OPT, p=0.5), sim(32))
    assert bad.mean + 3 * bad.std_error < good.mean - 3 * good.std_error


def test_fading_scale_invariance():
    # Rayleigh fading enters P_s only through the SIR, a ratio of
    # exponentials, so the fading scale cancels: the trial kernel integrates
    # fading out and its progress is bitwise independent of mu
    sim = simulate.SimConfig(trials=300, seed=5, guard_radius=30.0)
    base = simulate.collect_trials(BASE, sim)
    scaled = simulate.collect_trials(_with(BASE, mu=5.0), sim)
    assert _same_trials(base, scaled)
    ea = simulate.summarize_trials(base.progress, BASE)
    eb = simulate.summarize_trials(scaled.progress, BASE)
    assert abs(ea.mean - eb.mean) < 3.0 * math.hypot(ea.std_error, eb.std_error)


@pytest.mark.parametrize("alpha", [2.1, 3.0, 5.0])
@pytest.mark.parametrize("s, radius", [(0.5, 10.0), (10.0, 0.5), (3.0, 1.0)])
def test_far_field_integral_matches_quadrature(alpha, s, radius):
    # (10, 0.5) and (3, 1) put s*L^-alpha past 1, where hyp2f1 continues
    # its series analytically
    quad, _ = integrate.quad(
        lambda r: 2 * math.pi * r * s * r**-alpha / (1 + s * r**-alpha),
        radius, np.inf, epsabs=0.0, epsrel=1e-12, limit=200,
    )
    got = simulate.far_field_integral(s, alpha, radius)
    assert got == pytest.approx(quad, rel=1e-10)


@pytest.mark.parametrize("alpha", [2.01, 2.1, 2.5, 3.0, 4.0, 8.0, 50.0])
def test_far_field_integral_matches_hyp2f1(alpha):
    # oracle: the termwise-integrated form through scipy's hyp2f1, on both
    # sides of z = s*L^-alpha = 1 where the series changes branch
    radius = 1.3
    z = np.concatenate((np.geomspace(1e-12, 1e12, 49), [1.0, np.nextafter(1.0, 2.0)]))
    s = z * radius**alpha
    a = 1.0 - 2.0 / alpha
    oracle = (
        2 * math.pi * s * radius ** (2.0 - alpha) / (alpha - 2.0)
        * special.hyp2f1(1.0, a, 1.0 + a, -z)
    )
    got = simulate.far_field_integral(s, alpha, radius)
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)
    assert [simulate.far_field_integral(float(x), alpha, radius) for x in s] == got.tolist()
    assert simulate.far_field_integral(0.0, alpha, radius) == 0.0


def test_far_field_integral_domain_errors():
    for bad in [(1.0, 2.0, 1.0), (1.0, 3.0, 0.0), (-1.0, 3.0, 1.0)]:
        with pytest.raises(DomainError):
            simulate.far_field_integral(*bad)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_empty_near_field_gives_the_closed_success_probability(variant):
    # a near field too small to hold a point leaves only the exact far
    # field, whose radius-0 limit is the closed-form success probability
    sim = simulate.SimConfig(trials=40, seed=9, guard_radius=1e-8)
    mean_cosine = simulate.sector_mean_cosine(OPT.phi)
    for d, progress, _ in zip(*simulate.collect_trials(OPT, sim, variant)):
        expected = d * mean_cosine * analytic.success_probability(OPT, float(d), variant)
        assert progress == pytest.approx(expected, rel=1e-12)


def test_near_field_radius_leaves_the_estimate_unbiased():
    sim = simulate.SimConfig(trials=500, seed=3, guard_radius=10.0)
    small, large = simulate.guard_sensitivity(OPT, sim, guards=[5.0, 20.0])
    assert abs(small.mean - large.mean) < 3.0 * math.hypot(small.std_error, large.std_error)


def test_default_near_field_dominates_the_interference():
    # the far-field closed form must stay a small correction, so that the
    # simulator still samples most of the interference it is checking: in
    # the kernel's own draws, whose thinned near field makes the share larger
    # than the network's
    sim = simulate.SimConfig.for_params(OPT, trials=300, seed=11)
    assert sim.guard_radius >= sim.min_guard(OPT)
    density = analytic.interferer_density(OPT)
    mean_cosine = simulate.sector_mean_cosine(OPT.phi)
    far = total = 0.0
    for d, progress, _ in zip(*simulate.collect_trials(OPT, sim)):
        s = OPT.beta * d**OPT.alpha
        far += density * simulate.far_field_integral(s, OPT.alpha, sim.guard_radius)
        total -= math.log(progress / (d * mean_cosine))
    assert far < 0.1 * total


def test_guard_doubling_shifts_less_than_one_sigma():
    sim = simulate.SimConfig(trials=400, seed=17, guard_radius=40.0)
    far, near = simulate.guard_sensitivity(OPT, sim, guards=[80.0, 40.0])
    assert abs(far.mean - near.mean) < max(far.std_error, near.std_error)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_importance_sampling_cuts_the_per_trial_variance(variant):
    # at the default joint optimum the plain draws gave n*RSE^2 of 0.66
    # (directional) and 0.76 (omnidirectional)
    best = optimize.optimize_joint(BASE, variant)
    params = _with(BASE, p=best.p_star, r_m=best.rm_star)
    sim = simulate.SimConfig.for_params(params, trials=20_000, seed=3)
    est = simulate.estimate_density_of_progress(params, sim, variant)
    assert sim.trials * (est.std_error / est.mean) ** 2 <= 0.15


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize(
    "phi, bound", [(math.pi / 2, 0.05), (1.5 * math.pi, 0.15)], ids=["pi-over-2", "3pi-over-2"]
)
def test_strata_and_the_mean_cosine_cut_the_per_trial_variance(phi, bound, variant):
    # at the joint optimum: independent relay draws gave n*RSE^2 of 0.068
    # (directional) and 0.077 (omnidirectional) at pi/2, where the relay
    # distance carries most of the variance, and a drawn relay angle gave 3.7
    # (directional) at 3*pi/2, where its cosine changes sign over the sector
    best = optimize.optimize_joint(_with(BASE, phi=phi), variant)
    params = _with(BASE, phi=phi, p=best.p_star, r_m=best.rm_star)
    sim = simulate.SimConfig.for_params(params, trials=20_000, seed=3)
    est = simulate.estimate_density_of_progress(params, sim, variant)
    assert sim.trials * (est.std_error / est.mean) ** 2 <= bound


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize(
    "phi, beta_db, bound",
    [
        (math.pi / 6, 10.0, 0.005),
        (math.pi / 2, 10.0, 0.005),
        (math.pi / 2, 30.0, 0.0015),
        (math.pi / 2, -20.0, 0.0015),
    ],
    ids=["pi-over-6", "pi-over-2", "30dB", "minus-20dB"],
)
def test_rings_about_the_bend_cut_the_per_trial_variance(phi, beta_db, bound, variant):
    # at the joint optimum, alpha = 3 (perfbench's montecarlo points at
    # 10 dB): rings at fixed fractions of L with blocks of 16 relay strata
    # gave n*RSE^2 of 0.0094/0.0080 at pi/6, 0.0052/0.0053 at pi/2,
    # 0.077/0.074 at 30 dB and 0.0022/0.0030 at -20 dB (directional/omni).
    # At 30 dB the survival curve bends beyond L/4: shaped rings that stop
    # at L/4 left 0.020/0.021 there, and rings that reach eight times past
    # the bend leave 0.00045/0.00046 (at most 0.00058 over seeds 3-12). At
    # -20 dB the bend lies far inside the relay distance
    base = _with(BASE, phi=phi, beta=10.0 ** (beta_db / 10.0))
    best = optimize.optimize_joint(base, variant)
    params = _with(base, p=best.p_star, r_m=best.rm_star)
    sim = simulate.SimConfig.for_params(params, trials=20_000, seed=3)
    est = simulate.estimate_density_of_progress(params, sim, variant)
    assert sim.trials * (est.std_error / est.mean) ** 2 <= bound


def test_ring_count_stays_bounded():
    # the shaped rings run from an eighth of the survival curve's bend, never
    # below RING_INNER*L, to eight times it, never below L/4 nor past L, and
    # step by at most RING_RATIO: with the inner disk and at most one flat
    # ring out to L, at most 15 rings over ROADMAP item 8's grid (default
    # near field) and exactly 15 as beta -> 0, where the floor binds (13
    # shaped rings from L/1000 to L/4; an eighth of the bend alone would
    # give about 50 at beta = 1e-30)
    counts = {
        len(simulate._proposal(params, variant, (40.0,)).mid_power)
        for params, variant in _item8_grid()
    }
    assert max(counts) <= 15 and min(counts) < max(counts)
    for beta in (1e-30, 1e-300):
        table = simulate._proposal(_with(OPT, beta=beta), ProtocolVariant.DIRECTIONAL, (40.0,))
        assert len(table.mid_power) == 15


def test_shaped_rings_end_exactly_at_their_end():
    # the last geometric edge is the rings' end itself: the geometric
    # series' own last edge can miss it by rounding, which left a sliver
    # ring beside a radius at that end (3 of these 61 near-field radii at
    # beta = 0.1, where the rings end at L/4). Where 8*r_b passes L (30 dB,
    # r_m = 3), the shaped rings reach L and no flat ring follows
    near_bend = _with(OPT, beta=0.1)
    far_bend = NetworkParams(lam=1.0, alpha=3.0, beta=1000.0, p=0.1, phi=0.3, r_m=3.0)
    for radius in np.linspace(40.0, 100.0, 61).tolist():
        alone = simulate._proposal(near_bend, ProtocolVariant.DIRECTIONAL, (radius,))
        quarter = simulate._proposal(near_bend, ProtocolVariant.DIRECTIONAL, (radius / 4, radius))
        assert len(quarter.mid_power) == len(alone.mid_power), radius
        table = simulate._proposal(far_bend, ProtocolVariant.OMNIDIRECTIONAL, (radius,))
        assert table.shaped.stop == len(table.mid_power), radius


@pytest.mark.parametrize(
    "alpha, beta_db, bound",
    [(4.0, 10.0, 0.025), (5.0, 30.0, 0.045)],
    ids=["alpha-4", "alpha-5-30dB"],
)
def test_shaped_tilts_cut_the_per_trial_variance_off_the_default(alpha, beta_db, bound):
    # directional, phi = pi/2, at the joint optimum: one flat tilt per ring
    # gave n*RSE^2 of 0.044 at alpha = 4 and 0.078 at alpha = 5, 30 dB, where
    # the link's survival changes most across a ring
    base = _with(BASE, alpha=alpha, beta=10.0 ** (beta_db / 10.0))
    best = optimize.optimize_joint(base)
    params = _with(base, p=best.p_star, r_m=best.rm_star)
    sim = simulate.SimConfig.for_params(params, trials=20_000, seed=3)
    est = simulate.estimate_density_of_progress(params, sim)
    assert sim.trials * (est.std_error / est.mean) ** 2 <= bound


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_estimates_are_calibrated(variant):
    # 100 independent 300-trial estimates at the joint optimum for
    # phi = pi/2: their z-scores against the closed form must look N(0, 1),
    # so that the weights neither bias the mean nor hide its spread
    best = optimize.optimize_joint(BASE, variant)
    params = _with(BASE, p=best.p_star, r_m=best.rm_star)
    target = analytic.expected_density_closed(params, variant)
    zs = []
    for seed in range(100):
        sim = simulate.SimConfig.for_params(params, trials=300, seed=seed)
        est = simulate.estimate_density_of_progress(params, sim, variant)
        zs.append((est.mean - target) / est.std_error)
    assert max(abs(z) for z in zs) <= 4.0
    assert stats.kstest(zs, "norm").pvalue > 0.01


def test_smallest_runs_cover_at_the_nominal_rate():
    # the smallest run validate_for_estimation accepts, 100 trials (128, two
    # blocks), at the joint optimum for phi = pi/2: its ci95, the mean +- 1.96
    # standard errors, must cover the closed form about 95 % of the time. The
    # spread within the strata keeps up to STRATA*(blocks - 1) degrees of
    # freedom and covers 93.5 % here (94.5 % in seven blocks of 16); with 16
    # strata the spread of the seven block means kept 6 and covered 90.7 %
    covered = 0
    for variant in ProtocolVariant:
        best = optimize.optimize_joint(BASE, variant)
        params = _with(BASE, p=best.p_star, r_m=best.rm_star)
        target = analytic.expected_density_closed(params, variant)
        for seed in range(1000):
            sim = simulate.SimConfig.for_params(params, trials=100, seed=seed)
            est = simulate.estimate_density_of_progress(params, sim, variant)
            covered += abs(est.mean - target) <= 1.96 * est.std_error
    assert covered / 2000 >= 0.93


@pytest.mark.parametrize(
    "alpha, p, phi", [(3.0, 0.1, 0.3), (5.0, 0.5, math.pi / 2)], ids=["alpha-3", "alpha-5"]
)
def test_bend_beyond_a_quarter_of_the_near_field_is_estimated(alpha, p, phi):
    # 30 dB and r_m = 3 put the survival curve's bend beyond L/4 (about
    # 30 at alpha = 3, omni). Shaped rings that stopped at L/4 left it in a
    # flat ring and wrote confident wrong estimates: at seeds 1-40 only 10
    # and 7 of 40 runs kept |z| <= 4, with z down to -65 and -413
    params = NetworkParams(lam=1.0, alpha=alpha, beta=1000.0, p=p, phi=phi, r_m=3.0)
    variant = ProtocolVariant.OMNIDIRECTIONAL
    target = analytic.expected_density_closed(params, variant)
    for seed in range(1, 6):
        sim = simulate.SimConfig.for_params(params, trials=2000, seed=seed)
        est = simulate.estimate_density_of_progress(params, sim, variant)
        assert abs(est.mean - target) <= 4.0 * est.std_error, seed


def test_strided_grid_is_estimated_or_refused():
    # every seventh case of ROADMAP item 8's grid, each under its own seed
    # (shared draws would correlate the z's and void the KS test): a run
    # either estimates the closed form within 4 sigma or refuses with
    # EmptyEstimateError, and the accepted z's look N(0, 1). The offset puts
    # in a case that rings stopping at L/4 got wrong (alpha = 5, 30 dB,
    # p = 0.5, phi = 5, r_m = 3, directional: z = -32)
    grid = list(_item8_grid())
    zs = []
    for index in range(1, len(grid), 7):
        params, variant = grid[index]
        sim = simulate.SimConfig.for_params(params, trials=2000, seed=1 + 1000 * index)
        try:
            est = simulate.estimate_density_of_progress(params, sim, variant)
        except EmptyEstimateError:
            continue
        z = (est.mean - analytic.expected_density_closed(params, variant)) / est.std_error
        assert abs(z) <= 4.0, (params, variant, z)
        zs.append(z)
    assert stats.kstest(zs, "norm").pvalue > 0.01


# ---------------------------------------------------------------------
# the paper's own Monte Carlo: a raw draw of the whole network
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "beta_db, variant",
    [
        (10.0, ProtocolVariant.DIRECTIONAL),
        (10.0, ProtocolVariant.OMNIDIRECTIONAL),
        (30.0, ProtocolVariant.DIRECTIONAL),
    ],
    ids=["directional", "omni", "directional-30dB"],
)
def test_raw_network_draw_matches_the_kernel(beta_db, variant):
    # the kernel reaches the mean progress through six reductions: the exact
    # relay law, the relay angle and the fading integrated out, coverage as
    # a thinning, the far field from the Laplace functional and importance
    # weights. The raw draw makes only the far field's: each trial's relay is
    # the nearest receiver in the sector beyond r_m, at its drawn angle, and
    # its link's SIR is drawn with the interferers, headings and fading out
    # to 40/sqrt(lambda). Beyond that the exact factor exp(-rho*F(40))
    # scales the success indicator, exact because the signal's fading is
    # exponential. Joint optimum at phi = pi/2, 10k trials each: the raw
    # estimate's RSE is about 1.5 %, the kernel's 0.07 % (0.3 % at 30 dB)
    base = _with(BASE, beta=10.0 ** (beta_db / 10.0))
    best = optimize.optimize_joint(base, variant)
    params = _with(base, p=best.p_star, r_m=best.rm_star)
    # a receiver window missing the relay law's mass but e^-30
    window = math.sqrt(params.r_m**2 + 30.0 / relay_rate(params))
    d, angle = simulate.sample_relay_distances(params, window, trials=10_000, seed=71)
    radius = 40.0 / math.sqrt(params.lam)
    sir = simulate.sample_link_sir(params, d, seed=71, interference_radius=radius, variant=variant)
    far = analytic.interferer_density(params, variant) * simulate.far_field_integral(
        params.beta * d**params.alpha, params.alpha, radius
    )
    progress = params.p * params.lam * d * np.cos(angle) * (sir > params.beta) * np.exp(-far)
    raw, raw_se = progress.mean(), progress.std(ddof=1) / math.sqrt(len(progress))
    sim = simulate.SimConfig.for_params(params, trials=10_000, seed=71)
    kernel = simulate.estimate_density_of_progress(params, sim, variant)
    assert abs(raw - kernel.mean) < 3.0 * math.hypot(raw_se, kernel.std_error)
    assert abs(raw - analytic.expected_density_closed(params, variant)) < 3.0 * raw_se


def _log_weight_second_moment(params, table, d):
    """log E[w^2] of the near field's likelihood ratio around a relay at d.

    Ring k draws at density rho*g(r), g = h_k*(r/r_k)^gamma_k with h_k the
    link's survival 1/(1 + s*r_k^-alpha) and gamma_k = alpha*(1 - h_k) on
    the shaped rings (0 elsewhere), so log E[w^2] sums
    rho*integral of (1 - g)^2/g dA = rho*integral of (1/g - 2 + g) dA over
    the rings: power integrals in t = r/r_k, with dA = 2*pi*r_k^2*t dt.
    """
    h = 1.0 / (1.0 + table.mid_power * params.beta * d**params.alpha)
    gamma = np.zeros(len(h))
    gamma[table.shaped] = params.alpha * (1.0 - h[table.shaped])
    lo = np.sqrt(table.square_lo)
    hi = np.sqrt(table.square_lo + table.square_span)
    total = 0.0
    for h_k, gamma_k, lo, hi, scale in zip(h, gamma, lo, hi, table.scale):
        def integral(a):
            # rho * integral over the ring of t^a dA
            if a == -2.0:
                return scale * math.log(hi / lo)
            return scale * (hi ** (a + 2.0) - lo ** (a + 2.0)) / (a + 2.0)

        total += integral(-gamma_k) / h_k - 2.0 * integral(0.0) + h_k * integral(gamma_k)
    return total


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_near_field_weights_average_to_one(variant):
    # the near field's likelihood ratio alone, with the progress factor set
    # to 1, around relays fixed at d = 0.2: its mean is 1. Given d, the
    # weight has the exact second moment exp(rho*integral of (1 - g)^2/g dA)
    # (_log_weight_second_moment), so the budget uses that sigma; a sample's
    # own sigma misses the rare draws next to the relay that carry the
    # weights' tail. The sign of the normalizers' term M_k - rho*A_k
    # matters: flipped, the mean is 1.08 (directional) or 1.36
    # (omnidirectional), 19 or 28 sigma away
    d = 0.2
    table = simulate._proposal(OPT, variant, (40.0,))
    rng = np.random.default_rng(4)
    weights = np.concatenate([
        np.exp(simulate._near_field(
            OPT, table, np.full(simulate.CHUNK, d), rng, simulate._Scratch(),
        )[1][0])
        for _ in range(160)
    ])
    sigma = math.sqrt(math.expm1(_log_weight_second_moment(OPT, table, d)))
    assert abs(weights.mean() - 1.0) < 4.0 * sigma / math.sqrt(len(weights))


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_shaped_rings_reproduce_the_link_law(variant):
    # around relays fixed at d, the near field's weight times its survival
    # factor, times the exact far field, averages to the closed-form success
    # probability. The product is bounded, as the tilt's ratio to the link's
    # survival is bounded on every ring, so a sample sigma serves. A wrong
    # sign of the shape's slope or a wrong normalizer moves the mean
    radius = 40.0
    table = simulate._proposal(OPT, variant, (radius,))
    density = analytic.interferer_density(OPT, variant)
    rng = np.random.default_rng(12)
    for d in (0.2, 1.0, 3.0):
        far = density * simulate.far_field_integral(OPT.beta * d**OPT.alpha, OPT.alpha, radius)
        survival = np.concatenate([
            np.exp(log_weight[0] - near[0] - far)
            for near, log_weight in (
                simulate._near_field(
                    OPT, table, np.full(simulate.CHUNK, d), rng, simulate._Scratch(),
                )
                for _ in range(100)
            )
        ])
        target = analytic.success_probability(OPT, d, variant)
        sigma = survival.std(ddof=1) / math.sqrt(len(survival))
        assert abs(survival.mean() - target) < 4.0 * sigma, (d, survival.mean(), target, sigma)


def test_directional_beats_omni_in_simulation():
    sim = simulate.SimConfig(trials=600, seed=53, guard_radius=40.0)
    directional = simulate.estimate_density_of_progress(OPT, sim)
    omni = simulate.estimate_density_of_progress(
        OPT, sim, ProtocolVariant.OMNIDIRECTIONAL
    )
    assert omni.mean + 3 * omni.std_error < directional.mean - 3 * directional.std_error
