"""Exception types shared across the package, and the mixin that keeps a
checking record's refusals on every path that builds one."""


class PolyfracError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExceeded(PolyfracError):
    """A digit place or truncation beyond the stored precision was requested."""


class DimensionMismatch(PolyfracError):
    """Vector length does not match the ambient dimension."""


class ZeroVector(PolyfracError):
    """Operation undefined for the zero vector."""


class DegenerateNorm(PolyfracError):
    """Functional family does not have full rank."""


class BadPivot(PolyfracError):
    """A functional has no usable pivot coordinate."""


class NonDyadicCoefficient(PolyfracError):
    """Coefficient table entry is not a (mantissa, precision) dyadic pair."""


class OutOfRange(PolyfracError):
    """Parameter outside its admissible range."""


class InfeasibleSchedule(PolyfracError):
    """Block schedule violates a structural constraint."""


class NoSolution(PolyfracError):
    """Pivot-digit solver found no admissible bit string."""


class InsufficientData(PolyfracError):
    """No box count, or an empty one, so there is no exponent."""


class BudgetExceeded(PolyfracError):
    """Cube-examination budget exhausted during exact counting."""

    def __init__(self, message, examined=None, scale=None):
        super().__init__(message)
        self.examined = examined
        self.scale = scale


class FormatError(PolyfracError):
    """Malformed or mismatched on-disk artifact."""


def is_int(v) -> bool:
    """Is v an exact int?  bool is refused, so JSON true never passes
    for 1."""
    return isinstance(v, int) and not isinstance(v, bool)


class CheckedRecord:
    """First base of a NamedTuple record whose __new__ checks its fields.

    _make, and so _replace, builds through that __new__ instead of
    tuple.__new__, and no attribute may be assigned: a cached_property
    writes its value to the instance dict directly, not through here.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")
