"""Sector-based relay selection in slotted-ALOHA ad hoc networks.

Transmitters in a planar Poisson field beam their packets into a circular
sector and hand them to the nearest receiver found in that sector beyond a
reference distance. This package provides the closed-form performance
analysis of that scheme (link success probability, relay-distance law,
expected density of progress), numerical optimization of the transmission
probability and the reference distance, analytic upper bounds for the
latter, and a reproducible Monte-Carlo simulator that validates every
closed form. A command-line front end (``sectorrelay``) writes the
corresponding tables as CSV with JSON run manifests.

The omnidirectional variant of every quantity (all transmitters interfere
instead of only those whose sector covers the receiver) is included as the
comparison baseline.
"""

__version__ = "0.1.0"

from .model import NetworkParams, ProtocolVariant
from .analytic import expected_density_closed, success_probability
from .optimize import optimize_joint
from .simulate import SimConfig, estimate_density_of_progress

__all__ = [
    "__version__",
    "NetworkParams",
    "ProtocolVariant",
    "SimConfig",
    "estimate_density_of_progress",
    "expected_density_closed",
    "optimize_joint",
    "success_probability",
]
