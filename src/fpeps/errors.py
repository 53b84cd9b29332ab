"""Exception types shared across the package, and its one array-size limit."""

# the most float64 values a request may hold at once (1 GiB); each caller
# counts what its own request holds
MAX_FLOATS = 2**27


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


def refuse_over_limit(floats: int, request: str):
    """Refuse a request whose arrays would hold more than MAX_FLOATS, unallocated."""
    if floats > MAX_FLOATS:
        gib = 8 * floats / 2**30 if floats < 2**1000 else float("inf")  # a huge int overflows
        raise ContractViolationError(f"{request} needs {gib:.1f} GiB of arrays, over the "
                                     f"{8 * MAX_FLOATS / 2**30:.0f} GiB limit")
