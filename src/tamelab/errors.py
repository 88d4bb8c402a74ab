"""Exception hierarchy shared by all tamelab modules.

Each class owns its exit code at the CLI (`exit_code`): 3 for usage and
schema errors (`DomainError`, `SchemaError` and their subclasses), 2 for
every other error, a resource limit or a failed computation.
"""


class TamelabError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class PrecisionMismatch(TamelabError):
    """Operands live in different rings (prime, precision, or variables differ)."""


class NonUnit(TamelabError):
    """Inversion of an element with positive valuation."""


class NonResidue(TamelabError):
    """Square root requested for a non-square residue."""


class DomainError(TamelabError):
    """Argument outside the domain of a function (a usage error at the CLI)."""

    exit_code = 3


class NonUnitDeterminant(TamelabError):
    """Matrix inversion requested for a matrix whose determinant is not a unit."""


class DepthError(TamelabError):
    """Operation requires a matrix congruent to the identity modulo the maximal ideal."""


class LimitExceeded(TamelabError):
    """A group order or a work count passed its cap."""


class NotPGroup(TamelabError):
    """Enumerated group order is not a power of the ring's prime."""


class WindowTooLarge(TamelabError):
    """Requested filtration window exceeds the precision-trust headroom."""


class InsufficientPrecision(TamelabError):
    """Limit computation did not stabilize within the available precision."""


class ZeroVector(TamelabError):
    """A nonzero vector was required."""


class CertificateInvalid(TamelabError):
    """The defining identity of an inertial certificate fails."""


class TameRelationFailed(TamelabError):
    """A verified certificate produced a plan whose tame relation fails.

    This can only happen through a precision shortfall, so it halts loudly
    instead of being reported as an ordinary failed check.
    """


class NotNonresidue(DomainError):
    """Quaternion parameter must be a quadratic nonresidue mod p."""


class RingMismatch(DomainError):
    """Certificate pieces live over different coefficient rings."""


class InvalidSignature(DomainError):
    """Arithmetic-bound input with an impossible signature (r1, r2, norms)."""


class SchemaError(TamelabError):
    """Malformed input: a JSON payload, a flag value or an environment setting."""

    exit_code = 3


class GuardFailed(TamelabError):
    """An exactness guard failed: a computed value misses its defining identity."""


def json_int(value) -> int:
    """A JSON integer, or a string of one, as an int.

    A float or a bool raises SchemaError: int() would truncate the one and
    read the other as 0 or 1.  A string that is no integer raises
    ValueError, as int() does, for the caller's payload parser to report.
    """
    if type(value) is int or isinstance(value, str):
        return int(value)
    raise SchemaError(f"expected an integer or a string of one, got {value!r}")


def json_list(value) -> list:
    """A JSON array; a string or an object, which iteration would read as its
    characters or keys, raises SchemaError."""
    if type(value) is list:
        return value
    raise SchemaError(f"expected a list, got {value!r}")
