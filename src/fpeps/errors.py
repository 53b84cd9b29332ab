"""Exception types shared across the package."""


class FpepsError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(FpepsError):
    """A computation would exceed a configured size cap."""


class ContractViolationError(FpepsError):
    """An input breaks a documented precondition or invariant."""


class ZeroNormError(FpepsError):
    """The construction has zero norm (singular projection).

    Carries the offending determinant value and, when known, the list of
    reciprocal momenta at which the norm vanishes, as float tuples made from
    the pairs or ``(n, 2)`` array rows it is given.
    """

    def __init__(self, message, determinant=None, momenta=()):
        super().__init__(message)
        self.determinant = determinant
        self.momenta = [tuple(map(float, phi)) for phi in momenta]


class UndefinedStateError(FpepsError):
    """An operation was asked of a state that is not well defined (e.g. zero norm)."""


class NumericalValidityError(FpepsError):
    """A numerical result left its mathematically valid range beyond tolerance."""
