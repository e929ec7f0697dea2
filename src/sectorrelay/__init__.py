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

from .errors import (
    DegenerateSampleError,
    DomainError,
    OptimizationError,
    ParameterError,
    QuadratureError,
    RootFindError,
    VacuousBoundError,
)
from .model import (
    CONFIG_KEYS,
    DerivedConstants,
    NetworkParams,
    ProtocolVariant,
    derive_constants,
    parse_config_mapping,
    radial_decay_rate,
    spatial_interference_constant,
)
from .analytic import (
    StationarityResiduals,
    expected_density_closed,
    expected_density_numeric,
    interferer_density,
    log_expected_density,
    omni_expected_density,
    relay_distance_cdf,
    relay_distance_pdf,
    rm_from_p,
    rm_quadratic_roots,
    rm_upper_bound,
    stationarity_residuals,
    success_probability,
)
from .optimize import (
    ConstancyReport,
    ConstancyRow,
    OptimizationResult,
    optimize_joint,
    optimize_rm,
    p_constancy_report,
    solve_stationary_system,
)
from .simulate import (
    PointConfiguration,
    ProgressEstimate,
    SimConfig,
    TrialSample,
    assign_roles,
    collect_trials,
    estimate_density_of_progress,
    guard_sensitivity,
    run_trial,
    sample_ppp,
    sample_relay_distances,
    sector_covers,
    select_relay,
    simulate_link_success,
    sir_at,
    substream,
    summarize_trials,
    validate_for_estimation,
)

__all__ = [
    "__version__",
    # errors
    "DegenerateSampleError",
    "DomainError",
    "OptimizationError",
    "ParameterError",
    "QuadratureError",
    "RootFindError",
    "VacuousBoundError",
    # model
    "CONFIG_KEYS",
    "DerivedConstants",
    "NetworkParams",
    "ProtocolVariant",
    "derive_constants",
    "parse_config_mapping",
    "radial_decay_rate",
    "spatial_interference_constant",
    # analytic
    "StationarityResiduals",
    "expected_density_closed",
    "expected_density_numeric",
    "interferer_density",
    "log_expected_density",
    "omni_expected_density",
    "relay_distance_cdf",
    "relay_distance_pdf",
    "rm_from_p",
    "rm_quadratic_roots",
    "rm_upper_bound",
    "stationarity_residuals",
    "success_probability",
    # optimize
    "ConstancyReport",
    "ConstancyRow",
    "OptimizationResult",
    "optimize_joint",
    "optimize_rm",
    "p_constancy_report",
    "solve_stationary_system",
    # simulate
    "PointConfiguration",
    "ProgressEstimate",
    "SimConfig",
    "TrialSample",
    "assign_roles",
    "collect_trials",
    "estimate_density_of_progress",
    "guard_sensitivity",
    "run_trial",
    "sample_ppp",
    "sample_relay_distances",
    "sector_covers",
    "select_relay",
    "simulate_link_success",
    "sir_at",
    "substream",
    "summarize_trials",
    "validate_for_estimation",
]
