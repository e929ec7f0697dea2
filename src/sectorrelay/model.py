"""Network model parameters and the constants derived from them.

The network is a homogeneous Poisson point process of density lambda whose
nodes transmit in a slot with probability p (slotted ALOHA). Transmitters
radiate into a circular sector of width phi; reception is omnidirectional.
Links succeed when the signal-to-interference ratio under Rayleigh fading
(mean 1/mu) and power-law path loss (exponent alpha) exceeds the linear
threshold beta. Relays are chosen as the nearest receiver inside the sector
beyond a reference distance r_m.

Two constants recur throughout the closed forms:

  t  - the interference constant (2*pi^2/alpha)/sin(2*pi/alpha) * beta^(2/alpha);
       it collects the fading/path-loss geometry of the outage probability
       and requires alpha > 2 to exist.
  k  - the combined radial decay rate (lambda*phi/2)*(p*t/pi + (1 - p))
       of the progress integrand; linear in p, lambda and phi.

The omnidirectional baseline is the directional model with t replaced by
t_eff = 2*pi*t/phi (effective_interference_constant), so one k formula
serves both variants.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError, ParameterError

#: Keys of the network parameters, in configuration files, manifests and
#: flags. The SIR threshold is ``beta_db`` in decibels or ``beta`` on the
#: linear scale; ``beta_db`` is converted to the linear ``beta`` on load.
PARAM_KEYS = ("lambda", "alpha", "beta_db", "beta", "mu", "p", "phi", "r_m")

TWO_PI = 2.0 * math.pi


class ProtocolVariant(enum.Enum):
    """Which interference model applies.

    DIRECTIONAL: transmitters radiate into their sector only, so a receiver
    hears a thinned interferer set of density p*lambda*phi/(2*pi).
    OMNIDIRECTIONAL: every transmitter interferes (density p*lambda); the
    relay-selection geometry is unchanged. Used as the comparison baseline.
    """

    DIRECTIONAL = "directional"
    OMNIDIRECTIONAL = "omnidirectional"


@dataclass(frozen=True)
class NetworkParams:
    """Immutable parameter bundle; all lengths in common arbitrary units.

    Checks itself when built (validate), so no instance outside the
    admissible domain exists, whichever way it was made: the constructor,
    from_mapping or dataclasses.replace.

    Attributes:
        lam: node density lambda of the parent point process (> 0).
        alpha: path-loss exponent (> 2, otherwise t is undefined).
        beta: SIR threshold, linear scale (> 0).
        p: per-slot transmission probability (0 < p < 1).
        phi: transmitter beamwidth in radians (0 < phi <= 2*pi).
        mu: Rayleigh fading rate; received power is Exp(mu), mean 1/mu.
        r_m: reference distance excluding too-near relays (>= 0).
    """

    lam: float
    alpha: float
    beta: float
    p: float
    phi: float
    mu: float = 1.0
    r_m: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "NetworkParams":
        """Check every admissibility condition; raise ParameterError naming
        each violated one. Runs on every construction; returns self."""
        violations = []
        if not (self.lam > 0 and math.isfinite(self.lam)):
            violations.append(f"lambda out of range (need lambda > 0, got {self.lam})")
        if not (self.alpha > 2 and math.isfinite(self.alpha)):
            violations.append(
                f"alpha out of range: t undefined for alpha <= 2 (got {self.alpha})"
            )
        if not (self.beta > 0 and math.isfinite(self.beta)):
            violations.append(f"beta out of range (need beta > 0, got {self.beta})")
        if not (0.0 < self.p < 1.0):
            violations.append(f"p out of range (need 0 < p < 1, got {self.p})")
        if not (0.0 < self.phi <= TWO_PI):
            violations.append(
                f"phi out of range (need 0 < phi <= 2*pi, got {self.phi})"
            )
        if not (self.mu > 0 and math.isfinite(self.mu)):
            violations.append(f"mu out of range (need mu > 0, got {self.mu})")
        if not (self.r_m >= 0 and math.isfinite(self.r_m)):
            violations.append(f"r_m out of range (need r_m >= 0, got {self.r_m})")
        if violations:
            raise ParameterError(violations)
        return self

    # -- serialization ----------------------------------------------------

    def to_exact_mapping(self) -> dict:
        """Mapping with the linear beta, for exact round-trips (manifests)."""
        return {
            "lambda": self.lam,
            "alpha": self.alpha,
            "beta": self.beta,
            "mu": self.mu,
            "p": self.p,
            "phi": self.phi,
            "r_m": self.r_m,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "NetworkParams":
        """Build params from a mapping using the documented keys.

        Accepts either ``beta_db`` (decibels) or ``beta`` (linear), but not
        both. Unknown keys are rejected by name.
        """
        unknown = sorted(set(mapping) - set(PARAM_KEYS))
        if unknown:
            raise ParameterError([f"unknown config key: {k}" for k in unknown])
        if "beta" in mapping and "beta_db" in mapping:
            raise ParameterError(["both beta and beta_db given; use one"])
        missing = [
            k for k in ("lambda", "alpha", "p", "phi") if k not in mapping
        ]
        if "beta" not in mapping and "beta_db" not in mapping:
            missing.append("beta_db")
        if missing:
            raise ParameterError([f"missing config key: {k}" for k in missing])
        try:
            values = {k: float(v) for k, v in mapping.items()}
            beta = values["beta"] if "beta" in values else 10.0 ** (values["beta_db"] / 10.0)
        except (TypeError, ValueError) as exc:
            raise ParameterError([f"non-numeric config value: {exc}"]) from exc
        except OverflowError as exc:
            raise ParameterError([f"config value out of float range: {exc}"]) from exc
        return cls(
            lam=values["lambda"],
            alpha=values["alpha"],
            beta=beta,
            p=values["p"],
            phi=values["phi"],
            mu=values.get("mu", 1.0),
            r_m=values.get("r_m", 0.0),
        )

def parse_config_mapping(text: str) -> dict:
    """Raw key -> value mapping from config text, without validation.

    Understands the flat ``key = value`` format (``#`` comments, blank
    lines) and JSON objects. Duplicate keys are an error; key names and
    value ranges are checked later by NetworkParams.from_mapping, so a
    partial mapping (for layering over defaults) is fine here.
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ParameterError(["JSON config must be an object"])
        return loaded
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                [f"config line {lineno} is not 'key = value': {raw!r}"]
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ParameterError([f"duplicate config key: {key}"])
        mapping[key] = value.strip()
    return mapping


def spatial_interference_constant(alpha: float, beta: float) -> float:
    """The constant t = (2*pi^2/alpha)/sin(2*pi/alpha) * beta^(2/alpha).

    Equals pi * beta^(2/alpha) * Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha),
    the interference functional of a unit-density Poisson field under
    Rayleigh fading. Diverges as alpha -> 2+, hence the domain alpha > 2;
    raises DomainError where it overflows a double, as alpha near 2 with a
    huge beta makes it do.
    """
    if alpha <= 2:
        raise DomainError(f"t undefined for alpha <= 2 (got alpha={alpha})")
    if beta <= 0:
        raise DomainError(f"t requires beta > 0 (got beta={beta})")
    t = (2.0 * math.pi**2 / alpha) / math.sin(TWO_PI / alpha) * beta ** (2.0 / alpha)
    if t == math.inf:
        raise DomainError(
            f"alpha = {alpha} and beta = {beta:.6g} overflow the interference constant "
            "t = (2*pi^2/alpha)/sin(2*pi/alpha) * beta^(2/alpha)"
        )
    return t


def radial_decay_rate(params: NetworkParams, t: float | None = None) -> float:
    """k = (lambda*phi/2) * (p*t/pi + (1 - p)); linear in p, lambda and phi.

    Raises DomainError where k underflows below the smallest normal
    double, as lambda*phi does near the smallest doubles: k keeps few of
    its bits there, or none, and every formula that takes log(k) or
    divides by k fails, r_m* = sqrt(u/k) among them.
    """
    if t is None:
        t = spatial_interference_constant(params.alpha, params.beta)
    k = params.lam * params.phi / 2.0 * (params.p * t / math.pi + (1.0 - params.p))
    if k < sys.float_info.min:
        raise DomainError(
            f"lambda = {params.lam:.6g} and phi = {params.phi:.6g} underflow the decay rate "
            f"k = (lambda*phi/2)*(p*t/pi + 1 - p) to {k:.6g}, below the smallest normal double"
        )
    return k


def relay_rate(params: NetworkParams) -> float:
    """b = lambda*(1-p)*phi/2: the relay-void rate in r^2 - r_m^2.

    The selection sector beyond r_m holds no receiver out to r with
    probability exp(-b*(r^2 - r_m^2)); b is also the part of k that does
    not depend on t.
    """
    return params.lam * (1.0 - params.p) * params.phi / 2.0


def interferer_density(params: NetworkParams, variant: ProtocolVariant = ProtocolVariant.DIRECTIONAL) -> float:
    """Density of transmitters whose beam covers a fixed receiver.

    Directional: each of the p*lambda transmitters covers the receiver with
    probability phi/(2*pi) (independent uniform headings), an independent
    thinning. Omnidirectional: all p*lambda transmitters interfere.
    """
    base = params.p * params.lam
    if variant is ProtocolVariant.DIRECTIONAL:
        return base * params.phi / TWO_PI
    return base


def effective_interference_constant(params: NetworkParams, variant: ProtocolVariant) -> float:
    """t_eff: the t that makes the directional formulas describe ``variant``.

    A directional interferer covers a receiver with probability
    phi/(2*pi); an omnidirectional one always does, which multiplies the
    outage exponent by 2*pi/phi: t_eff = t for the directional variant and
    2*pi*t/phi for the omnidirectional one. t_eff carries the variant
    into the decay rates and the optimizer; interferer_density carries it
    into the link success probability and the simulator. Raises
    DomainError where t_eff overflows a double, as a tiny phi makes it do.
    """
    t = spatial_interference_constant(params.alpha, params.beta)
    if variant is ProtocolVariant.DIRECTIONAL:
        return t
    t_eff = t * (TWO_PI / params.phi)  # exactly t at phi = 2*pi
    if t_eff == math.inf:
        raise DomainError(
            f"alpha = {params.alpha}, beta = {params.beta:.6g} and phi = {params.phi:.6g} "
            "overflow the omnidirectional interference constant t_eff = 2*pi*t/phi"
        )
    return t_eff

