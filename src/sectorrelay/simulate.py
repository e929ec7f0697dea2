"""Monte-Carlo validation of the closed forms.

Each trial adopts the viewpoint of a typical transmitter: by Slivnyak's
theorem the rest of the network seen from one of its points is again the
unconditioned process, so the trial places the tagged transmitter at the
origin with heading 0 and looks for its relay. The tagged transmitter
itself is never counted as an interferer.

Receivers: the relay is the nearest receiver (density (1-p)*lambda) in
the selection region, the sector |angle| <= phi/2 beyond r_m. The region
is unbounded, so the relay always exists, and the void probability of
the annular sector out to d makes d^2 - r_m^2 exactly Exp(b), with
b = (1-p)*lambda*phi/2 (model.relay_rate): the law the closed form
integrates. The relay's angle is uniform on the sector and independent
of everything else in the trial, so it is integrated out rather than
drawn (below). sample_relay_distances keeps a raw draw of the receivers
in a disk as the independent check of both laws.

Conditional estimator: a trial records the expected progress given its
draws, d*c*P_s, instead of a sampled success indicator. Averaging the
relay's cos(angle) over the sector gives c = sin(phi/2)/(phi/2)
(sector_mean_cosine); P_s depends on d alone, because the near field is
centred on the relay and isotropic, so this is exact. Only the
transmitters whose sector covers the relay interfere. Uniform headings
make them an independent thinning of the transmitters (density p*lambda)
by q, the chance that a sector covers a point (phi/(2*pi) directional, 1
omnidirectional): a Poisson process of density rho = p*lambda*q.
Coverage is sampled by drawing only those, in the near field, a disk of
radius L centred on the relay (independent of the receivers, so centring
it there loses nothing). Fading still integrates out given the positions:
with x_i = s*r_i^-alpha and s = beta*d^alpha, interferer i lets the link
through with probability 1/(1 + x_i); the variants differ only in rho.
Transmitters beyond L integrate out exactly through the Poisson Laplace
functional, exp(-rho*F(L)) with F in closed form (far_field_integral).
P_s is therefore the exact success probability given the near-field
radii, and the estimator is unbiased for any L; the radius only decides
how much of the interference is sampled rather than integrated. The
default L = 40/sqrt(lambda) leaves the far field under a tenth of
-log P_s at the paper's default optimum (about a quarter at
10/sqrt(lambda), since relays sit near d = 1/sqrt(lambda)), so the
simulator still samples the interference it is checking.

Importance sampling: both draws come from proposals that favour the
trials which carry the estimate, and each trial carries their likelihood
ratio as its weight; the estimator averages weight*progress. The
normalizers are elementary (an exponential rate and power integrals over
the rings), so no closed-form integral enters and the simulator stays an
independent check of the formula.
- Relay: E = d^2 - r_m^2 ~ Exp(b + kappa), kappa = rho*beta^(2/alpha)*pi,
  drawn through the inverse CDF (one uniform per trial, no window to
  truncate it), with log weight log(b/(b + kappa)) + kappa*E. P_s decays
  in d^2 at kappa*x/sin(x), x = 2*pi/alpha, which is at least kappa for
  every alpha > 2: the proposal's tail never falls below the integrand's,
  so the relay weight cannot outgrow P_s.
- Interferers: the near field, out to the run's one radius L, is split
  into rings: an inner disk, geometric rings, and at most one flat ring
  out to L. The geometric rings run
  from r_b/8, never below L/1000, to 8*r_b, never below L/4 nor past L,
  where r_b = (beta*D^alpha)^(1/alpha) and D^2 = r_m^2 + 1/(b + kappa) is
  a typical relay's: the link's survival curve h(r) = 1/(1 + s*r^-alpha)
  bends at r_b (h = 1/2), so the rings follow the bend as beta moves it,
  also where it lies beyond L/4. Their edges step by at most FINE_RATIO
  from r_b/2 to 8*r_b, where the curve turns, and by at most COARSE_RATIO
  below r_b/2 and past 8*r_b, where it is nearly a power law; each zone's
  last edge is exact. A run has at most 15 rings (12 at
  perfbench's points, 10 as beta -> 0). Each ring has a tilt radius r_k,
  its geometric mid radius (the inner disk's outer edge), and
  h_k = 1/(1 + s*r_k^-alpha), the link's survival past one interferer
  there. A geometric ring is shaped: it draws at density
  rho*h_k*(r/r_k)^gamma_k, gamma_k = alpha*(1 - h_k), which follows the
  survival curve in log-log space about r_k (at alpha = 3, s*r^-alpha
  changes by up to 3x across a fine ring and 8x across a coarse one,
  which one flat tilt per ring misses).
  Its mass is the power integral
      M_k = 2*pi*rho*r_k^2*h_k*(hi^(gamma_k+2) - lo^(gamma_k+2))/(gamma_k+2),
  lo and hi its edges over r_k, and a point's t = r/r_k is drawn by the
  inverse CDF, t^(gamma_k+2) uniform between lo^(gamma_k+2) and
  hi^(gamma_k+2); r_k is the geometric mid radius, so lo = 1/hi and one
  exp gives both. The inner disk and the flat ring keep gamma_k = 0
  (density rho*h_k, so mass rho*h_k*A_k, squared radii uniform): beyond
  8*r_b a typical link's h exceeds 1/(1 + 8^-alpha), over 0.98, the inner
  disk rarely holds a point, and a flat inner disk keeps every ring's
  weight second moment finite. Ring k's N_k points add
  M_k - rho*A_k - N_k*log(h_k) - gamma_k*sum(log t) to the log weight,
  computed per (ring, trial) cell, and each point still contributes its
  own log1p(x_i) to -log P_s.
The weights alone are heavy-tailed (a rare point next to the relay
weighs 1/h_k); only their product with P_s is tamed, so a weight
averages to 1 but its own sample variance says little.

Relay strata: trial i draws its relay uniform in stratum i mod STRATA,
u = (i mod STRATA + U)/STRATA, so each block of STRATA consecutive
trials covers the relay law's quantiles evenly; the inverse CDF and the
weight are unchanged. Every trial is independent, but the strata's laws
differ: the estimate is still the mean over all trials, and its variance
is that of stratified sampling, the mean of the strata's own variances
over n. A run draws whole blocks, at least two, rounding the trial count
up to a multiple of STRATA, so each stratum holds one trial per block,
and the standard error keeps up to STRATA*(blocks - 1) degrees of
freedom (896 at 1000 trials, which round up to 1024, 8 blocks), as
unequal strata variances allow. The spread of the block means would keep
only blocks - 1 (7).

Batches and randomness: trials run in chunks of CHUNK = 256, two blocks;
the proposal's table (ring edges, areas, b, kappa) is built once per run. A
run draws from two SFC64 streams, one per purpose: the relay stream
gives each chunk its relay distance uniforms, the near-field stream its
interferer counts on the (ring, trial) grid and then its interferer
radius uniforms, drawn into one per-run buffer that the chunks reuse. The
relay distances therefore do not depend on the near field or its radius.
Each cell's near-field -log P_s is one segment sum (np.add.reduceat), as
is each shaped cell's sum of log t; the far field is evaluated once per
run, over all trials after the chunks are joined.
The kernel always draws whole chunks in order, each holding whole
blocks, and keeps the trials the run asks for, so trial i's sample
depends only on (seed, i), not on the trial count. An interferer drawn
exactly on the relay (a uniform of exactly 0, probability 2^-53) gives
its trial -log P_s = inf and progress 0, the exact conditional value.
Each run's constants are checked when its table is built, so a parameter
that puts them out of a double's range fails there with a DomainError
that names it, and numpy's floating-point warnings are silenced inside
the kernel.

collect_trials returns the trials as three arrays in trial order, d,
progress and weight, and summarize_trials reduces weight*progress to the
estimate; there are no per-trial SIR diagnostics.
sample_link_sir keeps the raw SIR (interferer positions, beam headings,
sector coverage and fading all sampled) as the independent check of the
thinning and fading laws; callers form the indicator SIR > beta. At the
relays of sample_relay_distances its links make a raw draw of the whole
network, which the tests compare with the kernel. Neither it nor the
trial kernel depends on mu.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it lazily; load it with the module)

from .errors import DomainError, EmptyEstimateError, ParameterError
from .model import NetworkParams, ProtocolVariant, interferer_density, relay_rate

TWO_PI = 2.0 * math.pi

# stream tags give each purpose of a run its own stream
_TAG_RELAY = 0
_TAG_NEAR = 1
_TAG_LINK = 2
_TAG_SAMPLE = 3

#: Trials per chunk. Fixed, so that a trial's sample does not depend on the
#: trial count; 256 spreads the kernel's per-chunk numpy calls (the
#: (ring, trial) grid with the shaped rings' powers, the Poisson draw) over
#: enough trials, and a chunk's arrays stay small (at most about 160k
#: interferer radii at the default near field, at phi = 2*pi); 512 ran
#: slower. It holds two blocks of STRATA, the fewest a run draws, so the
#: smallest run computes one chunk and keeps all of it.
CHUNK = 256

#: Relay strata: trial i draws its relay uniform in stratum i mod STRATA,
#: and the standard error is taken from the spread within each stratum, over
#: consecutive blocks of STRATA trials, at least two. CHUNK holds two
#: blocks, so a run of 1000 trials (1024), 200 or 100 (both 256) uses every
#: trial its chunks compute. The relay-only part of the per-trial variance
#: falls about as 1/STRATA^2; at 128 strata it is about 0.00004 of the
#: per-trial n*RSE^2 at the default joint optima (0.00017 at 64).
STRATA = 128

#: Near-field rings: geometric rings, whose tilts are shaped to the link's
#: survival curve, from its bend over RING_REACH (never below
#: RING_INNER*L, L the near-field radius) to RING_REACH times its bend
#: (never below RING_OUTER*L nor past L), then at most one flat ring out to
#: L. The shaped rings must reach past the bend: a flat ring that holds it
#: carries most of the per-trial variance, and where the bend lies beyond
#: L/4 it gives confident wrong estimates. Between FINE_ZONE times the bend,
#: where the survival curve turns, each edge is at most FINE_RATIO times
#: the last; elsewhere the curve is nearly a power law, which one tilt per
#: ring follows over a ratio of COARSE_RATIO. At the default joint optima
#: these rings leave a per-trial n*RSE^2 of about 0.0003.
RING_INNER = 1e-3
RING_OUTER = 0.25
RING_REACH = 8.0
FINE_ZONE = (0.5, RING_REACH)
FINE_RATIO = 1.45
COARSE_RATIO = 2.0

#: CSV column order and schema version of per-trial streams.
TRIAL_COLUMNS = ("trial", "d", "progress", "weight")
TRIAL_SCHEMA_VERSION = 6


@dataclass(frozen=True)
class SimConfig:
    """Simulation run geometry and bookkeeping.

    guard_radius is the near-field radius L around the relay inside which
    interferers are drawn (beyond it they are integrated out). seed is a
    64-bit integer; trials the number of network draws, which a run rounds
    up to whole blocks of STRATA.
    Checks itself when built (validate), as NetworkParams does.
    """

    trials: int
    seed: int
    guard_radius: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "SimConfig":
        violations = []
        if self.trials < 1:
            violations.append(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            violations.append(f"seed must be a 64-bit integer, got {self.seed}")
        if not (0 < self.guard_radius < math.inf):
            violations.append(f"guard_radius must be finite and > 0, got {self.guard_radius}")
        if violations:
            raise ParameterError(violations)
        return self

    @classmethod
    def for_params(
        cls,
        params: NetworkParams,
        trials: int,
        seed: int,
        guard_radius: float | None = None,
    ) -> "SimConfig":
        """Default geometry: near field 40/sqrt(lambda)."""
        return cls(
            trials=trials,
            seed=seed,
            guard_radius=40.0 / math.sqrt(params.lam) if guard_radius is None else guard_radius,
        )

    def min_guard(self, params: NetworkParams) -> float:
        """Floor on the near-field radius.

        At the floor the far-field closed form already carries about a
        quarter of -log P_s at the default optimum; below it the simulator
        would increasingly restate the formula it is meant to check.
        """
        return 10.0 / math.sqrt(params.lam)


class Trials(NamedTuple):
    """Per-trial outcomes in trial order: trial i sits at index i.

    progress is the conditional expected progress d*c*P_s given the
    trial's draws, with c = sector_mean_cosine(phi), and weight the draws'
    likelihood ratio: the mean of weight*progress estimates the mean
    progress.
    """

    d: np.ndarray
    progress: np.ndarray
    weight: np.ndarray


class _Proposal(NamedTuple):
    """Per-run constants of the trial kernel (built by _proposal).

    The relay's E = d^2 - r_m^2 is drawn at rate = b + kappa, and
    log_ratio = log(b/rate). Ring k has tilt radius r_k, with
    mid_power[k] = r_k^-alpha, and target_mass[k] is density times its
    area, the ring's mean count without a tilt. The rings in the slice
    shaped have tilts that follow the link's survival curve; each spans
    radii r_k*exp(-log_hi[k]) to r_k*exp(log_hi[k]), and
    scale[k] = 2*pi*density*r_k^2. The others are flat, and their squared
    radii over r_k^2 run from square_lo[k] to square_lo[k] + square_span[k].
    """

    density: float
    r_m2: float
    rate: float
    kappa: float
    log_ratio: float
    mid_power: np.ndarray
    target_mass: np.ndarray
    shaped: slice
    log_hi: np.ndarray
    scale: np.ndarray
    square_lo: np.ndarray
    square_span: np.ndarray


@dataclass(frozen=True)
class ProgressEstimate:
    """Monte-Carlo estimate of the expected density of progress."""

    mean: float
    std_error: float
    trials_used: int


# =====================================================================
# sampling primitives
# =====================================================================

def _stream(seed: int, tag: int) -> np.random.Generator:
    """SFC64 generator of one run's draws for one purpose, seeded by
    SeedSequence((seed, tag)); callers draw from it chunk after chunk."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((int(seed), tag))))


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-trial sums of values, of which trial i holds the next counts[i];
    0 for a trial that holds none."""
    sums = np.zeros(len(counts))
    held = counts > 0
    sums[held] = np.add.reduceat(values, (np.cumsum(counts) - counts)[held])
    return sums


# =====================================================================
# the trial kernel and estimator
# =====================================================================

def _pfaff_series(w: np.ndarray, c: float) -> np.ndarray:
    """2F1(1, 1; c; w) = sum over n of n!/(c)_n * w^n, for 0 <= w <= 1/2, c > 1.

    Term n is at most w^n and the sum at least 1, so once w^n <= 2^-54 a
    term lies below half an ulp of the sum and adding it changes nothing.
    The sum runs forwards until that holds for the largest w, so each
    element's value depends only on that element, not on the others.
    """
    total = np.ones_like(w)
    w_max = float(w.max()) if w.size else 0.0
    if w_max == 0.0:
        return total
    term = np.ones_like(w)
    for n in range(math.ceil(54.0 * math.log(2.0) / -math.log(w_max)) + 1):
        term *= (n + 1.0) / (c + n)
        term *= w
        total += term
    return total


def far_field_integral(s, alpha: float, radius: float):
    """F(L) = integral over r > L of 2*pi*r * s*r^-alpha / (1 + s*r^-alpha).

    With v = s*r^-alpha, F = (2*pi/alpha) * s^(2/alpha) * G_a(z) for
    z = s*L^-alpha and a = 1 - 2/alpha, where
    G_a(z) = integral over (0, z) of v^(a-1)/(1+v) dv
           = z^a / (a*(1+z)) * 2F1(1, 1; 1+a; z/(1+z))
    by Pfaff's transformation. For z <= 1 that series runs in
    w = z/(1+z) <= 1/2, and F = 2*pi*s*L^(2-alpha)/(alpha-2) * 2F1/(1+z).
    For z > 1, G_a(z) = pi/sin(pi*a) - G_(1-a)(1/z), whose series again
    runs in w <= 1/2. s may be an array; a scalar s gives a float.
    """
    s = np.asarray(s, dtype=float)
    if not (alpha > 2.0 and radius > 0.0 and np.all(s >= 0.0)):
        raise DomainError(
            f"far field needs alpha > 2, radius > 0, s >= 0; got {(alpha, radius, s)}"
        )
    # a = 1 - 2/alpha and b = 1 - a, each without cancellation
    a, b = (alpha - 2.0) / alpha, 2.0 / alpha
    flat = s.reshape(-1)
    z = flat * radius**-alpha
    value = np.empty_like(z)
    inner = z <= 1.0
    zi = z[inner]
    value[inner] = (
        TWO_PI * flat[inner] * radius ** (2.0 - alpha) / (alpha - 2.0)
        * _pfaff_series(zi / (1.0 + zi), 1.0 + a) / (1.0 + zi)
    )
    y = 1.0 / z[~inner]
    tail = y**b / (b * (1.0 + y)) * _pfaff_series(y / (1.0 + y), 1.0 + b)
    value[~inner] = TWO_PI / alpha * flat[~inner] ** b * (
        math.pi / math.sin(math.pi * min(a, b)) - tail
    )
    return float(value[0]) if s.ndim == 0 else value.reshape(s.shape)


def _geometric_edges(lo: float, hi: float, ratio: float) -> list[float]:
    """Edges from lo to hi, each at most ratio times the last; none when
    hi <= lo. np.geomspace costs more than the rest of the table; the last
    edge is hi itself, so rounding leaves no sliver ring at the zone's end."""
    if not lo < hi:
        return []
    count = math.ceil(math.log(hi / lo) / math.log(ratio))
    return [lo * (hi / lo) ** (i / count) for i in range(count)] + [hi]


def _proposal(
    params: NetworkParams,
    variant: ProtocolVariant,
    radius: float,
) -> _Proposal:
    """The run's proposal table, built once per run, for the near-field
    radius L = radius.

    Rings: the inner disk, geometric rings, and a flat ring out to L,
    unless the geometric rings reach it. The geometric rings run from
    r_b/RING_REACH, never below RING_INNER*L, to RING_REACH*r_b, never
    below RING_OUTER*L nor past L, about the bend
    r_b = (beta*D^alpha)^(1/alpha), D^2 = r_m^2 + 1/(b + kappa), of a
    typical link's survival curve. They step by at most FINE_RATIO between
    FINE_ZONE times r_b and by at most COARSE_RATIO below and past it; each
    of these three zones' last edge is its end itself, so rounding leaves no
    sliver ring. A ring's tilt radius is its geometric mid
    radius, the inner disk's its outer edge. The geometric rings are
    shaped; they lie next to each other, so their points do too in the
    kernel's ring-major order.

    Every constant is checked here: a parameter that puts one outside the
    range of a double raises DomainError naming it, before any draw and
    before the layout is chosen.
    """
    density = interferer_density(params, variant)
    b = relay_rate(params)
    kappa = density * params.beta ** (2.0 / params.alpha) * math.pi
    r_m2 = params.r_m * params.r_m
    if not math.isfinite(r_m2):
        raise DomainError(
            f"r_m = {params.r_m:.6g} is out of the simulator's range: r_m^2 overflows a double"
        )
    if not (0.0 < b and math.isfinite(b + kappa)):
        raise DomainError(
            f"lambda = {params.lam:.6g}, p = {params.p:.6g} and phi = {params.phi:.6g} put "
            f"the relay rate b = {b:.6g} or the tilt rate kappa = {kappa:.6g} out of the "
            "simulator's range: both must be finite doubles, b > 0"
        )
    # every tilt radius lies between these two, whatever the bend
    reach = np.array([RING_INNER * radius, radius])
    reach_power = reach**-params.alpha
    if not np.all(np.isfinite(reach_power) & np.isfinite(1.0 / reach_power)):
        if params.alpha * math.log(reach[1] / reach[0]) > 2.0 * math.log(sys.float_info.max):
            raise DomainError(
                f"alpha = {params.alpha:.6g} is out of the simulator's range: r^alpha over "
                f"the near-field rings, which span a factor {reach[1] / reach[0]:.3g} in "
                "radius, cannot stay within a double at any scale"
            )
        raise DomainError(
            f"lambda = {params.lam:.6g} and the near-field radius {radius:.6g} (guard_radius, "
            "40/sqrt(lambda) by default) are out of the simulator's range: r^alpha and "
            "r^-alpha over the near-field rings leave a double"
        )
    link = params.beta * np.power(r_m2 + 1.0 / (b + kappa), 0.5 * params.alpha)
    if not 0.0 < link < math.inf:
        scale = 1.0 / math.sqrt(b + kappa)
        raise DomainError(
            f"r_m = {params.r_m:.6g} and alpha = {params.alpha:.6g} put beta*D^alpha out of the "
            "simulator's range, a double: D = sqrt(r_m^2 + 1/(b + kappa)) = "
            f"{math.hypot(params.r_m, scale):.6g}, with the relay distance scale "
            f"1/sqrt(b + kappa) = {scale:.6g} set by lambda, p and phi"
        )
    # the survival curve h(r) = 1/(1 + s*r^-alpha) of a link with s = link
    # bends at r_b = link^(1/alpha), where h = 1/2
    bend = link ** (1.0 / params.alpha)
    end = min(radius, max(RING_OUTER * radius, RING_REACH * bend))
    start = min(max(bend / RING_REACH, RING_INNER * radius), end / COARSE_RATIO)
    # coarse rings up to the fine zone about the bend, fine rings across it,
    # coarse rings past it; each zone is clipped to [start, end]
    knots = [start, *(min(max(f * bend, start), end) for f in FINE_ZONE), end]
    ratios = (COARSE_RATIO, FINE_RATIO, COARSE_RATIO)
    geometric = [
        edge
        for lo, hi, ratio in zip(knots, knots[1:], ratios)
        for edge in _geometric_edges(lo, hi, ratio)
    ]
    edges = np.array(sorted({0.0, *geometric, radius}))
    inner, outer = edges[:-1], edges[1:]
    mid = np.sqrt(inner * outer)
    mid[0] = outer[0]
    square_lo = (inner / mid) ** 2
    return _Proposal(
        density=density,
        r_m2=r_m2,
        rate=b + kappa,
        kappa=kappa,
        log_ratio=math.log(b / (b + kappa)),
        mid_power=mid**-params.alpha,
        target_mass=density * math.pi * (outer - inner) * (outer + inner),
        shaped=slice(1, int(np.searchsorted(outer, end, side="right"))),
        log_hi=np.log(outer / mid),
        scale=TWO_PI * density * mid**2,
        square_lo=square_lo,
        square_span=(outer / mid) ** 2 - square_lo,
    )


class _Scratch:
    """One run's buffer for the chunks' interferer uniforms, reused from
    chunk to chunk: a fresh array of that size for every chunk costs page
    faults."""

    def __init__(self) -> None:
        self._array = np.empty(0)

    def take(self, n: int) -> np.ndarray:
        """The buffer's first n elements, after growing it if it holds fewer."""
        if n > self._array.size:
            self._array = np.empty(n + n // 4)
        return self._array[:n]


def _chunk_near_field(
    params: NetworkParams,
    table: _Proposal,
    relays: np.random.Generator,
    near_field: np.random.Generator,
    scratch: _Scratch,
):
    """One chunk: (d, near, log_weight), where near is each trial's
    near-field -log P_s and log_weight the log likelihood ratio of its
    draws. The relay uniforms come from relays, the interferers from
    near_field.

    Trial j of the chunk draws its relay uniform u in stratum j mod STRATA.
    E = -log(1 - u)/rate takes 1 - u = (STRATA - j mod STRATA - U)/STRATA,
    in which the top stratum's 1 - U is exact, so u never rounds to 1.
    """
    upper = STRATA - np.arange(CHUNK) % STRATA
    e = np.log((upper - relays.random(CHUNK)) / STRATA)
    e /= -table.rate
    d = np.sqrt(table.r_m2 + e)
    near, log_weight = _near_field(params, table, d, near_field, scratch)
    log_weight += table.log_ratio + table.kappa * e
    return d, near, log_weight


def _near_field(
    params: NetworkParams,
    table: _Proposal,
    d: np.ndarray,
    rng: np.random.Generator,
    scratch: _Scratch,
):
    """(near, log_weight) of interferers drawn from the proposal around relays
    at distances d, one entry per trial. The points' uniforms are drawn
    into scratch.

    Counts and sums live on a (ring, trial) grid in ring-major order, so
    each ring's points lie next to each other. A point of the inner disk
    drawn at radius exactly 0 lies on the relay: its trial's -log P_s is
    inf.
    """
    # ring k draws at density rho*h*(r/r_k)^gamma, with h = 1/(1 + tilt)
    # the link's survival past an interferer at r_k, tilt = s*r_k^-alpha,
    # and gamma = alpha*(1 - h) its log-log slope there on the shaped rings;
    # a flat ring (gamma = 0) holds mass target_mass*h
    tilt = np.multiply.outer(table.mid_power, _link_scale(params, d))
    h = 1.0 / (1.0 + tilt)
    mass = table.target_mass[:, None] * h
    rings = table.shaped
    gamma = tilt[rings] * h[rings]
    gamma *= params.alpha
    power = gamma + 2.0
    # on a shaped ring t = r/r_k has t^power uniform on [lo, hi], and its
    # edges sit at t = exp(-+log_hi), so lo = 1/hi
    hi = np.exp(power * table.log_hi[rings, None])
    lo = 1.0 / hi
    span = hi
    span -= lo
    mass[rings] = table.scale[rings, None] * h[rings] * span / power
    counts = rng.poisson(mass)
    cells = counts.ravel()
    # the cell's log likelihood ratio: M - rho*A - N*log(h) - gamma*sum(log t)
    log_w = counts * np.log1p(tilt)
    log_w += mass
    log_w -= table.target_mass[:, None]
    # t^power of each point, in the run's buffer: on the flat rings power is
    # 2, so every cell of the ring has the same lo and span; on the shaped
    # rings, each cell its own
    q = rng.random(out=scratch.take(int(cells.sum())))
    bounds = [0, *np.cumsum(counts.sum(axis=1)).tolist()]
    for k in (0, *range(rings.stop, len(counts))):
        ring = q[bounds[k] : bounds[k + 1]]
        ring *= table.square_span[k]
        ring += table.square_lo[k]
    ratio = gamma / power
    cell = np.repeat(np.arange(ratio.size), counts[rings].ravel())
    shaped = q[bounds[rings.start] : bounds[rings.stop]]
    shaped *= span.ravel()[cell]
    shaped += lo.ravel()[cell]
    log_t2 = np.log(q, out=q)
    # on the shaped rings: gamma*log t = ratio*log t^power with ratio =
    # gamma/power, and log t^2 = (1 - ratio)*log t^power
    log_w[rings] -= ratio * np.bincount(cell, shaped, ratio.size).reshape(ratio.shape)
    shaped *= (1.0 - ratio).ravel()[cell]
    # the link survives interferer i with probability 1/(1 + x_i), where
    # x_i = s*r_i^-alpha = tilt*t_i^-alpha
    x = log_t2
    x *= -0.5 * params.alpha
    x += np.repeat(np.log(tilt).ravel(), cells)
    log_loss = np.log1p(np.exp(x, out=x), out=x)
    loss = _segment_sums(log_loss, cells).reshape(counts.shape)
    return np.add.reduce(loss), np.add.reduce(log_w)


def _link_scale(params: NetworkParams, d: np.ndarray) -> np.ndarray:
    """s = beta*d^alpha of each trial's link."""
    return params.beta * d**params.alpha


def sector_mean_cosine(phi: float) -> float:
    """Mean of cos(theta) over a relay angle theta uniform on the sector
    [-phi/2, phi/2]: sin(phi/2)/(phi/2)."""
    half = 0.5 * phi
    return math.sin(half) / half


def collect_trials(
    params: NetworkParams,
    sim: SimConfig,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> Trials:
    """All trials in trial order: sim.trials rounded up to whole blocks of
    STRATA, at least two.

    The proposal table is built once; the chunks draw in order from the
    run's relay and near-field streams and sum the near field; the exact
    far field beyond sim.guard_radius is evaluated once over all trials
    after they are joined. Overflow inside the kernel is left to the
    table's checks and the final one, so numpy's floating-point warnings
    are silenced; an interferer on a relay gives that trial progress 0
    without a warning.
    """
    trials = STRATA * max(2, math.ceil(sim.trials / STRATA))
    relays, near_field = _stream(sim.seed, _TAG_RELAY), _stream(sim.seed, _TAG_NEAR)
    scratch = _Scratch()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = _proposal(params, variant, sim.guard_radius)
        chunks = [
            _chunk_near_field(params, table, relays, near_field, scratch)
            for _ in range(math.ceil(trials / CHUNK))
        ]
        d, near, log_weight = (np.concatenate(column)[:trials] for column in zip(*chunks))
        far = far_field_integral(_link_scale(params, d), params.alpha, sim.guard_radius)
        progress = d * sector_mean_cosine(params.phi) * np.exp(-(near + table.density * far))
        weight = np.exp(log_weight)
        if not np.isfinite(weight * progress).all():
            raise DomainError(
                "the trial kernel produced non-finite values: the parameters are out of "
                "the simulator's range"
            )
    return Trials(d, progress, weight)


def summarize_trials(progress: np.ndarray, params: NetworkParams) -> ProgressEstimate:
    """Reduce per-trial progress to the density-of-progress estimate.

    progress is each trial's weighted progress, weight*progress of Trials,
    in trial order. The estimator is p*lambda times its sample mean. Trial
    i drew its relay in stratum i mod STRATA, so the standard error is the
    stratified one, from each stratum's variance over its trials, one per
    block of STRATA: progress must hold whole blocks, at least two. The
    reductions run in a fixed order over the trial-ordered array, so they
    are reproducible bit-for-bit. Raises EmptyEstimateError when the
    estimate or its standard error is exactly 0: every trial's weighted
    progress underflowed, or the few that did not are so small that the
    mean or the spread underflows. Such a run carries no estimate.
    """
    n = len(progress)
    blocks = n // STRATA
    if n % STRATA or blocks < 2:
        raise DomainError(
            f"need whole blocks of {STRATA} trials, at least 2, to form a std_error; "
            f"got {n} trials"
        )
    scale = params.p * params.lam
    # column h holds stratum h's trials, one per block, which are independent
    # draws of one law: the mean's variance is the mean of the strata's own
    # variances over n. np.var squares the values, which underflow below
    # about 1e-154: divide by a power of two near the largest first. Scaling
    # by a power of two is exact, so wherever nothing underflowed the result
    # keeps its bits.
    exponent = math.frexp(float(np.max(np.abs(progress))))[1]
    strata = np.ldexp(np.reshape(progress, (blocks, STRATA)), -exponent)
    spread = math.ldexp(math.sqrt(float(np.mean(np.var(strata, axis=0, ddof=1)))), exponent)
    estimate = ProgressEstimate(
        mean=scale * float(np.mean(progress)),
        std_error=scale * spread / math.sqrt(n),
        trials_used=n,
    )
    if estimate.mean == 0.0 or estimate.std_error == 0.0:
        raise EmptyEstimateError(
            f"the estimate {estimate.mean:.3g} or its standard error "
            f"{estimate.std_error:.3g} is 0: the weighted progress of the {n} trials "
            "underflows at these parameters, so the run estimates nothing"
        )
    return estimate


def validate_for_estimation(params: NetworkParams, sim: SimConfig) -> None:
    """Preconditions for a trustworthy progress estimate.

    Requires sim.trials >= 100 for a meaningful standard error and a
    near-field radius at or above SimConfig.min_guard.
    """
    violations = []
    if sim.trials < 100:
        violations.append("trials must be >= 100 for a meaningful std_error")
    if sim.guard_radius < sim.min_guard(params):
        violations.append(
            f"guard_radius {sim.guard_radius:.3g} below the near-field floor "
            f"{sim.min_guard(params):.3g}; the far-field closed form would carry "
            "too much of the interference under test"
        )
    if violations:
        raise ParameterError(violations)


def estimate_density_of_progress(
    params: NetworkParams,
    sim: SimConfig,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> ProgressEstimate:
    """Monte-Carlo estimate of the expected density of progress.

    See validate_for_estimation for the trial-count and guard-radius
    preconditions enforced on entry.
    """
    validate_for_estimation(params, sim)
    trials = collect_trials(params, sim, variant)
    return summarize_trials(trials.weight * trials.progress, params)


# =====================================================================
# raw network draws: the independent checks of the kernel's laws
# =====================================================================

def sample_relay_distances(
    params: NetworkParams,
    window_radius: float,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, angles) of the relays over independent draws, NaN where
    no relay exists; an angle is measured from the transmitter's heading.

    Each trial fills the disk of radius window_radius with receivers and
    takes the nearest one in the sector |angle| <= phi/2 strictly beyond
    r_m: geometry only, independent of the trial kernel's draw from the
    relay law and its integral over the angle. Chunks of CHUNK trials draw
    in order from the run's own stream: the counts, then one call for every
    receiver's radius and angle.
    """
    if not window_radius > 0.0:
        raise DomainError(f"window_radius must be > 0, got {window_radius}")
    mean_count = (1.0 - params.p) * params.lam * math.pi * window_radius**2
    rng = _stream(seed, _TAG_SAMPLE)
    size = CHUNK * math.ceil(trials / CHUNK)
    distances = np.full(size, math.nan)
    angles = np.full(size, math.nan)
    for start in range(0, size, CHUNK):
        counts = rng.poisson(mean_count, CHUNK)
        u = rng.random((2, int(counts.sum())))
        radius = window_radius * np.sqrt(u[0])
        angle = TWO_PI * u[1] - math.pi
        eligible = (np.abs(angle) <= 0.5 * params.phi) & (radius > params.r_m)
        trial = np.repeat(np.arange(start, start + CHUNK), counts)[eligible]
        radius, angle = radius[eligible], angle[eligible]
        # sorted by trial, then distance: each trial's first point is its relay
        order = np.lexsort((radius, trial))
        held, first = np.unique(trial[order], return_index=True)
        distances[held] = radius[order][first]
        angles[held] = angle[order][first]
    return distances[:trials], angles[:trials]


def sample_link_sir(
    params: NetworkParams,
    d: np.ndarray,
    seed: int,
    interference_radius: float,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> np.ndarray:
    """Raw SIR of fixed-length links, one trial per entry of the array d.

    The receiver sits at the origin with its serving transmitter d away,
    aimed at it. Each trial draws fresh interferers of density p*lambda,
    uniform in the disk of radius interference_radius around the receiver,
    with uniform beam headings; those whose sector covers the receiver (its
    bearing against the heading; all of them for the omnidirectional
    variant) add their faded power. Fading is Exp(1) by the inverse CDF: the
    SIR does not depend on mu. No covering interferer gives SIR = inf, a
    covering one on the receiver SIR = 0. Chunks of CHUNK trials draw in
    order from the link stream: the counts, then one call for every
    interferer's radius, angle, heading and fading and every signal's
    fading. Raises DomainError unless every d > 0 and interference_radius > 0.
    """
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError("every link distance must be > 0 (and not NaN)")
    if not interference_radius > 0.0:
        raise DomainError(f"interference_radius must be > 0, got {interference_radius}")
    mean_count = params.p * params.lam * math.pi * interference_radius**2
    rng = _stream(seed, _TAG_LINK)
    sir = np.empty(len(d))
    for start in range(0, len(d), CHUNK):
        counts = rng.poisson(mean_count, CHUNK)
        n = int(counts.sum())
        u = rng.random(4 * n + CHUNK)
        radius, angle, heading, fading = u[: 4 * n].reshape(4, n)
        radius = interference_radius * np.sqrt(radius)
        with np.errstate(divide="ignore"):
            power = -np.log1p(-fading) * radius**-params.alpha
        if variant is ProtocolVariant.DIRECTIONAL:
            # an interferer at polar angle 2*pi*angle sees the receiver at that
            # angle + pi; against its heading the bearing lies in (-pi, 3*pi),
            # where the nearer of 0 and 2*pi is the sector's axis
            offset = TWO_PI * (angle - heading) + math.pi
            power[np.minimum(np.abs(offset), np.abs(offset - TWO_PI)) > 0.5 * params.phi] = 0.0
        links = d[start : start + CHUNK]
        signal = -np.log1p(-u[4 * n :][: len(links)]) * links**-params.alpha
        interference = _segment_sums(power, counts)[: len(links)]
        sir[start : start + CHUNK] = np.divide(
            signal, interference, out=np.full(len(links), math.inf), where=interference > 0.0
        )
    return sir
