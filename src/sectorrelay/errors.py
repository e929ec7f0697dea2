"""Exception types shared across the sectorrelay modules."""


class ParameterError(ValueError):
    """One or more network parameters violate their admissible range.

    The message lists every violated invariant by name so callers can
    report all problems at once instead of fixing them one at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class VacuousBoundError(DomainError):
    """The quadratic bound has no real root: the bound places no constraint."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge within its budget."""


class OptimizationError(RuntimeError):
    """A numerical search failed (bad bracket, NaN objective, no progress)."""


class RootFindError(OptimizationError):
    """A root search in u found no bracketing sign change, or did not converge.

    Carries ``sign_map``: the u values probed while bracketing and the
    slope at each, which shows where (if anywhere) the sign changes.
    """

    def __init__(self, message, sign_map=None):
        super().__init__(message)
        self.sign_map = sign_map


class EmptyEstimateError(RuntimeError):
    """Every trial of a Monte-Carlo run carried zero weighted progress, so
    the run estimates nothing (not even a standard error)."""
