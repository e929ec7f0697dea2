"""Monte-Carlo validation of the closed forms.

Each trial adopts the viewpoint of a typical transmitter: by Slivnyak's
theorem the rest of the network seen from one of its points is again the
unconditioned process, so the trial places the tagged transmitter at the
origin with heading 0, draws receivers at density (1-p)*lambda inside the
measurement window (15/sqrt(lambda) is far more than enough to contain
the relay) and selects the relay. The tagged transmitter itself is never
counted as an interferer.

Conditional estimator: a trial records the expected progress given its
draws, d*cos*P_s, instead of a sampled success indicator. The other
transmitters (density p*lambda) are drawn in the near field, a disk of
radius L centred on the relay; they are independent of the receivers, so
centring the disk there loses nothing. With x_i = beta*(d/r_i)^alpha and q
the probability that a transmitter's sector covers the relay (phi/(2*pi)
directional, 1 omnidirectional), Rayleigh fading and the uniform headings
integrate out given the positions: interferer i lets the link through with
probability (1 + (1-q)*x_i)/(1 + x_i). Transmitters beyond L integrate out
exactly through the Poisson Laplace functional, exp(-p*lambda*q*F(L)) with
F in closed form (far_field_integral). P_s is therefore the exact success
probability given the near-field positions, and the estimator is unbiased
for any L; the radius only decides how much of the interference is sampled
rather than integrated. The default L = 40/sqrt(lambda) leaves the far
field under a tenth of -log P_s at the paper's default optimum (about a
quarter at 10/sqrt(lambda), since relays sit near d = 1/sqrt(lambda)), so
the simulator still samples the interference it is checking.

The per-trial sir and success columns come from the same draws (headings
and fading sampled over the near field) and are diagnostics only.
simulate_link_success keeps the raw SIR indicator as the independent check
of the fading law.

Randomness: one counter-based Philox substream per trial, keyed by
(seed, stream tag, trial index), so trials are independent, reproducible,
and identical whether executed serially or in parallel. Fading is drawn
through the inverse exponential CDF, which makes the SIR exactly invariant
under changes of the fading rate mu.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .errors import DegenerateSampleError, DomainError, ParameterError
from .model import NetworkParams, ProtocolVariant

TWO_PI = 2.0 * math.pi

# stream tags partition the 128-bit Philox key space per purpose
_TAG_TRIAL = 0
_TAG_LINK = 1
_TAG_SAMPLE = 2

#: CSV column order for per-trial streams.
TRIAL_COLUMNS = ("trial", "relay_found", "d", "cos_offset", "sir", "success", "progress")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run geometry and bookkeeping.

    window_radius bounds the relay search; guard_radius is the near-field
    radius L around the relay inside which interferers are drawn (beyond it
    they are integrated out). seed is a 64-bit integer; trials the number
    of independent network draws.
    """

    window_radius: float
    trials: int
    seed: int
    guard_radius: float

    def validate(self) -> "SimConfig":
        violations = []
        if not (self.window_radius > 0):
            violations.append(f"window_radius must be > 0, got {self.window_radius}")
        if self.trials < 1:
            violations.append(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            violations.append(f"seed must be a 64-bit integer, got {self.seed}")
        if not (self.guard_radius > 0):
            violations.append(f"guard_radius must be > 0, got {self.guard_radius}")
        if violations:
            raise ParameterError(violations)
        return self

    @classmethod
    def for_params(
        cls,
        params: NetworkParams,
        trials: int,
        seed: int,
        window_radius: float | None = None,
        guard_radius: float | None = None,
    ) -> "SimConfig":
        """Default geometry: window 15/sqrt(lambda), near field 40/sqrt(lambda)."""
        scale = 1.0 / math.sqrt(params.lam)
        return cls(
            window_radius=15.0 * scale if window_radius is None else window_radius,
            trials=trials,
            seed=seed,
            guard_radius=40.0 * scale if guard_radius is None else guard_radius,
        ).validate()

    def min_guard(self, params: NetworkParams) -> float:
        """Floor on the near-field radius.

        At the floor the far-field closed form already carries about a
        quarter of -log P_s at the default optimum; below it the simulator
        would increasingly restate the formula it is meant to check.
        """
        return 10.0 / math.sqrt(params.lam)


@dataclass(frozen=True)
class PointConfiguration:
    """A sampled network snapshot.

    orientations is aligned with positions and holds NaN for receivers
    (only transmitters own a beam heading).
    """

    positions: np.ndarray
    is_transmitter: np.ndarray
    orientations: np.ndarray


@dataclass(frozen=True)
class TrialSample:
    """Per-trial outcome.

    progress is the conditional expected progress d*cos_offset*P_s (0 when
    no relay is found); sir and success describe one fading draw over the
    near field and are diagnostics only.
    """

    trial: int
    relay_found: bool
    d: float
    cos_offset: float
    sir: float
    success: bool
    progress: float


@dataclass(frozen=True)
class ProgressEstimate:
    """Monte-Carlo estimate of the expected density of progress."""

    mean: float
    std_error: float
    trials_used: int
    relay_found_fraction: float


# =====================================================================
# sampling primitives
# =====================================================================

def substream(seed: int, tag: int, index: int, attempt: int = 0) -> np.random.Generator:
    """Counter-based generator for one (purpose, index, attempt) cell.

    The Philox key packs the run seed in the high 64 bits and
    tag/index/attempt in the low 64, so every cell owns an independent
    stream regardless of execution order.
    """
    if not (0 <= attempt < 2**20 and 0 <= index < 2**36 and 0 <= tag < 2**8):
        raise ValueError(f"substream coordinates out of range: {(tag, index, attempt)}")
    key = (int(seed) << 64) | (tag << 56) | (index << 20) | attempt
    return np.random.Generator(np.random.Philox(key=key))


def sample_ppp(density: float, window_radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson sample in a disk: Poisson count, uniform positions.

    Returns an (n, 2) array of Cartesian coordinates.
    """
    if density < 0:
        raise DomainError(f"density must be >= 0, got {density}")
    if window_radius <= 0:
        raise DomainError(f"window_radius must be > 0, got {window_radius}")
    n = int(rng.poisson(density * math.pi * window_radius**2))
    radii = window_radius * np.sqrt(rng.random(n))
    angles = TWO_PI * rng.random(n)
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def assign_roles(
    positions: np.ndarray,
    p: float,
    rng: np.random.Generator,
) -> PointConfiguration:
    """Independent Bernoulli(p) thinning into transmitters and receivers.

    Transmitters get i.i.d. uniform beam headings; receivers get NaN.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p}")
    n = len(positions)
    is_tx = rng.random(n) < p
    orientations = np.full(n, np.nan)
    orientations[is_tx] = TWO_PI * rng.random(int(is_tx.sum()))
    return PointConfiguration(
        positions=np.asarray(positions, dtype=float),
        is_transmitter=is_tx,
        orientations=orientations,
    )


def _wrap_angle(x: np.ndarray | float):
    """Wrap to [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


def sector_covers(
    tx_positions: np.ndarray,
    tx_orientations: np.ndarray,
    target: np.ndarray,
    phi: float,
) -> np.ndarray:
    """Mask of transmitters whose beam sector contains the target point."""
    delta = np.asarray(target, dtype=float) - tx_positions
    angles = np.arctan2(delta[:, 1], delta[:, 0])
    return np.abs(_wrap_angle(angles - tx_orientations)) <= phi / 2.0


def select_relay(
    receivers: np.ndarray,
    phi: float,
    r_m: float,
) -> np.ndarray | None:
    """Nearest receiver inside the selection region, or None.

    The transmitter is the Palm point at the origin with heading 0, so the
    region is the sector of half-angle phi/2 around the +x axis, restricted
    to distances strictly greater than r_m. The angular edge is inclusive,
    the distance edge exclusive.
    """
    rx = np.asarray(receivers, dtype=float)
    if rx.size == 0:
        return None
    dist = np.hypot(rx[:, 0], rx[:, 1])
    offset = np.arctan2(rx[:, 1], rx[:, 0])
    eligible = (np.abs(offset) <= phi / 2.0) & (dist > r_m)
    if not eligible.any():
        return None
    idx = int(np.argmin(np.where(eligible, dist, np.inf)))
    return rx[idx]


def _exponential(rng: np.random.Generator, mu: float, size: int | None = None):
    """Exp(mu) fading via the inverse CDF, so draws scale exactly as 1/mu."""
    u = rng.random(size)
    return -np.log1p(-u) / mu


def sir_at(
    receiver_position: np.ndarray | tuple,
    serving_position: np.ndarray | tuple,
    serving_orientation: float,
    config: PointConfiguration,
    params: NetworkParams,
    rng: np.random.Generator,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> float:
    """Signal-to-interference ratio of one link in a sampled network.

    The serving transmitter is given explicitly (it is the Palm point, not
    part of the sampled configuration) and must cover the receiver with its
    sector. Interference sums faded power over the configuration's
    transmitters whose sector covers the receiver (all transmitters for the
    omnidirectional variant). No interferers means SIR = +inf. A
    zero-distance interferer or link makes the sample degenerate and raises
    DegenerateSampleError so the caller can redraw.
    """
    rx = np.asarray(receiver_position, dtype=float)
    tx = np.asarray(serving_position, dtype=float)
    d = float(np.hypot(*(rx - tx)))
    if d == 0.0:
        raise DegenerateSampleError("receiver coincides with its transmitter")
    heading = math.atan2(rx[1] - tx[1], rx[0] - tx[0])
    if abs(_wrap_angle(heading - serving_orientation)) > params.phi / 2.0:
        raise DomainError("serving transmitter's sector does not cover the receiver")

    tx_pos = config.positions[config.is_transmitter]
    tx_orient = config.orientations[config.is_transmitter]
    if variant is ProtocolVariant.DIRECTIONAL:
        mask = sector_covers(tx_pos, tx_orient, rx, params.phi)
    else:
        mask = np.ones(len(tx_pos), dtype=bool)
    interferers = tx_pos[mask]

    signal = float(_exponential(rng, params.mu)) * d ** -params.alpha
    if len(interferers) == 0:
        return math.inf
    dists = np.hypot(interferers[:, 0] - rx[0], interferers[:, 1] - rx[1])
    if (dists == 0.0).any():
        raise DegenerateSampleError("interferer coincides with the receiver")
    fading = _exponential(rng, params.mu, len(interferers))
    interference = float(np.sum(fading * dists ** -params.alpha))
    if interference == 0.0:
        return math.inf
    return signal / interference


# =====================================================================
# trials and estimators
# =====================================================================

def far_field_integral(s: float, alpha: float, radius: float) -> float:
    """F(L) = integral over r > L of 2*pi*r * s*r^-alpha / (1 + s*r^-alpha).

    Termwise integration of the geometric series in -s*r^-alpha gives
    2*pi*s*L^(2-alpha)/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -s*L^-alpha);
    scipy's hyp2f1 continues it analytically where s*L^-alpha > 1.
    """
    if not (alpha > 2.0 and radius > 0.0 and s >= 0.0):
        raise DomainError(
            f"far field needs alpha > 2, radius > 0, s >= 0; got {(alpha, radius, s)}"
        )
    a = 1.0 - 2.0 / alpha
    hyp = float(_special.hyp2f1(1.0, a, 1.0 + a, -s * radius**-alpha))
    return TWO_PI * s * radius ** (2.0 - alpha) / (alpha - 2.0) * hyp


def run_trial(
    params: NetworkParams,
    sim: SimConfig,
    trial_index: int,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> TrialSample:
    """One Palm-viewpoint network draw; see the module docstring.

    Draw order within the trial's substream is fixed (receivers, relay
    choice is deterministic, interferer positions, headings, fading), so a
    given (seed, trial_index) always produces the identical sample. A
    degenerate draw (measure-zero coincidence) is redrawn from a fresh
    attempt substream.
    """
    return _draw_trial(params, sim, trial_index, variant, (sim.guard_radius,))[0]


def _draw_trial(
    params: NetworkParams,
    sim: SimConfig,
    trial_index: int,
    variant: ProtocolVariant,
    radii: tuple[float, ...],
) -> list[TrialSample]:
    """The trial's sample at each near-field radius, from common draws."""
    for attempt in range(100):
        rng = substream(sim.seed, _TAG_TRIAL, trial_index, attempt)
        try:
            return _run_trial_once(params, sim, trial_index, variant, radii, rng)
        except DegenerateSampleError:
            continue
    raise DegenerateSampleError(
        f"trial {trial_index} kept producing degenerate configurations"
    )


def _run_trial_once(
    params: NetworkParams,
    sim: SimConfig,
    trial_index: int,
    variant: ProtocolVariant,
    radii: tuple[float, ...],
    rng: np.random.Generator,
) -> list[TrialSample]:
    receivers = sample_ppp(
        (1.0 - params.p) * params.lam, sim.window_radius, rng
    )
    relay = select_relay(receivers, params.phi, params.r_m)
    if relay is None:
        miss = TrialSample(
            trial=trial_index,
            relay_found=False,
            d=math.nan,
            cos_offset=math.nan,
            sir=math.nan,
            success=False,
            progress=0.0,
        )
        return [miss] * len(radii)
    d = float(np.hypot(*relay))
    cos_offset = float(relay[0] / d)  # heading 0 points along +x

    # interferers are drawn once in the widest disk around the relay; a
    # smaller radius keeps the points inside it, which is exactly its process
    widest = max(radii)
    offsets = sample_ppp(params.p * params.lam, widest, rng)
    config = assign_roles(offsets + relay, 1.0, rng)
    sir = sir_at(relay, (0.0, 0.0), 0.0, config, params, rng, variant)
    success = sir > params.beta

    dists = np.hypot(offsets[:, 0], offsets[:, 1])
    if (dists == 0.0).any():
        raise DegenerateSampleError("interferer coincides with the relay")
    q = params.phi / TWO_PI if variant is ProtocolVariant.DIRECTIONAL else 1.0
    s = params.beta * d**params.alpha
    x = s * dists**-params.alpha
    log_pass = np.log1p((1.0 - q) * x) - np.log1p(x)
    density = params.p * params.lam * q
    samples = []
    for radius in radii:
        log_ps = float(np.sum(log_pass[dists <= radius])) - density * far_field_integral(
            s, params.alpha, radius
        )
        samples.append(
            TrialSample(
                trial=trial_index,
                relay_found=True,
                d=d,
                cos_offset=cos_offset,
                sir=sir,
                success=success,
                progress=d * cos_offset * math.exp(log_ps),
            )
        )
    return samples


def _collect_chunk(args) -> list[TrialSample]:
    params, sim, variant, start, stop = args
    return [run_trial(params, sim, i, variant) for i in range(start, stop)]


def collect_trials(
    params: NetworkParams,
    sim: SimConfig,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
    workers: int = 1,
) -> list[TrialSample]:
    """All trial samples in trial order, optionally across processes.

    Trials own independent substreams and results are reassembled in index
    order, so the output is bit-identical for any worker count.
    """
    params.validate()
    sim.validate()
    workers = worker_count(workers, sim.trials)
    if workers <= 1:
        return _collect_chunk((params, sim, variant, 0, sim.trials))
    chunk = max(1, math.ceil(sim.trials / (workers * 4)))
    jobs = [
        (params, sim, variant, start, min(start + chunk, sim.trials))
        for start in range(0, sim.trials, chunk)
    ]
    samples: list[TrialSample] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_collect_chunk, jobs):
            samples.extend(part)
    return samples


def worker_count(requested: int, jobs: int) -> int:
    """Processes worth starting: no more than the jobs or the CPUs."""
    return min(requested, jobs, os.cpu_count() or 1)


def summarize_trials(samples: list[TrialSample], params: NetworkParams) -> ProgressEstimate:
    """Reduce per-trial progress to the density-of-progress estimate.

    The estimator is p*lambda times the sample mean of per-trial progress
    (zeros included); the reduction uses numpy's pairwise summation over
    the trial-ordered array, so it is reproducible bit-for-bit.
    """
    progress = np.array([s.progress for s in samples], dtype=float)
    n = len(progress)
    if n < 2:
        raise DomainError("need at least 2 trials to form a std_error")
    scale = params.p * params.lam
    mean = scale * float(np.mean(progress))
    std_error = scale * float(np.std(progress, ddof=1)) / math.sqrt(n)
    found = float(np.mean([s.relay_found for s in samples]))
    return ProgressEstimate(
        mean=mean,
        std_error=std_error,
        trials_used=n,
        relay_found_fraction=found,
    )


def validate_for_estimation(params: NetworkParams, sim: SimConfig) -> None:
    """Preconditions for a trustworthy progress estimate.

    Requires sim.trials >= 100 for a meaningful standard error and a
    near-field radius at or above SimConfig.min_guard.
    """
    params.validate()
    sim.validate()
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
    workers: int = 1,
) -> ProgressEstimate:
    """Monte-Carlo estimate of the expected density of progress.

    See validate_for_estimation for the trial-count and guard-radius
    preconditions enforced on entry.
    """
    validate_for_estimation(params, sim)
    return summarize_trials(collect_trials(params, sim, variant, workers), params)


# =====================================================================
# targeted validation helpers
# =====================================================================

def sample_relay_distances(
    params: NetworkParams,
    window_radius: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Relay distances over independent draws (NaN when no relay exists).

    Geometry only - no interference - so it is cheap enough for
    distribution tests against the relay-distance CDF.
    """
    params.validate()
    out = np.empty(trials)
    for i in range(trials):
        rng = substream(seed, _TAG_SAMPLE, i)
        receivers = sample_ppp((1.0 - params.p) * params.lam, window_radius, rng)
        relay = select_relay(receivers, params.phi, params.r_m)
        out[i] = math.nan if relay is None else float(np.hypot(*relay))
    return out


def simulate_link_success(
    params: NetworkParams,
    d: float,
    trials: int,
    seed: int,
    interference_radius: float,
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> tuple[float, float]:
    """Empirical success probability of a fixed-length link.

    The receiver sits at the origin with its serving transmitter d away and
    aimed at it; interferers are a fresh Poisson draw per trial inside
    interference_radius around the receiver. Returns (estimate, std_error).
    """
    params.validate()
    if d <= 0:
        raise DomainError(f"link distance must be > 0, got {d}")
    successes = 0
    for i in range(trials):
        rng = substream(seed, _TAG_LINK, i)
        others = sample_ppp(params.p * params.lam, interference_radius, rng)
        config = assign_roles(others, 1.0, rng)
        sir = sir_at((0.0, 0.0), (-d, 0.0), 0.0, config, params, rng, variant)
        if sir > params.beta:
            successes += 1
    p_hat = successes / trials
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / trials)


def guard_sensitivity(
    params: NetworkParams,
    sim: SimConfig,
    guards: list[float],
    variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL,
) -> list[ProgressEstimate]:
    """Progress estimates under several near-field radii with common draws.

    Each trial runs the trial kernel once with interferers drawn in the
    widest disk; a smaller radius keeps the points inside it and integrates
    the rest exactly, so every radius sees exactly its Poisson process. The
    estimator is unbiased at any radius, so the estimates may differ only by
    the small noise the radii do not share.
    """
    params.validate()
    sim.validate()
    if not guards:
        raise DomainError("need at least one guard radius")
    radii = tuple(float(g) for g in guards)
    per_guard: list[list[TrialSample]] = [[] for _ in radii]
    for i in range(sim.trials):
        for samples, sample in zip(per_guard, _draw_trial(params, sim, i, variant, radii)):
            samples.append(sample)
    return [summarize_trials(samples, params) for samples in per_guard]
