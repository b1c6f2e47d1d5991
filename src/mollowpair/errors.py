"""Exception and warning types shared across the package."""


class ParameterError(ValueError):
    """A physical parameter violates one of its documented bounds."""


class UnsupportedConfigurationError(ValueError):
    """A closed-form path was requested outside its domain of validity.

    The message names the numerical machinery that does cover the request.
    """


class SweepSpecError(ValueError):
    """A sweep specification is internally inconsistent."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class SingularSystemError(NumericalError):
    """The steady-state linear system is numerically singular."""

    def __init__(self, cond: float, where: str):
        self.cond = cond
        super().__init__(
            f"moment matrix numerically singular (1-norm condition number {cond:.3e}) at {where}")


class DegenerateSteadyStateError(NumericalError):
    """The Liouvillian kernel has dimension > 1, so no unique steady state exists."""

    def __init__(self, kernel_dim: int):
        self.kernel_dim = kernel_dim
        super().__init__(
            f"steady state is not unique: Liouvillian kernel dimension is {kernel_dim}"
        )


class UndefinedCorrelatorError(NumericalError):
    """g2 requested where the normalization n1*n2 underflows (0/0 limit)."""


class ConditionWarning(UserWarning):
    """The steady-state solve is poorly conditioned; results may lose digits."""
