"""Exact binary fixed-point numbers.

A Dyadic is mantissa * 2**-precision with an arbitrary-size integer mantissa.
Every operation here is exact; nothing ever rounds.  Digit places are 1-based:
place j holds the coefficient of 2**-j, and digits of negative values follow
floor semantics (the two's-complement fractional expansion), so for example
place 2 of -1/4 is 1 because floor(4 * -1/4) = -1 is odd.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionExceeded

__all__ = ["Dyadic"]


class Dyadic:
    """An exact value mantissa * 2**-precision.

    Equality, ordering and hashing are by value, so Dyadic(1, 1) == Dyadic(2, 2).
    Arithmetic tracks precision explicitly: add/sub align to the finer operand,
    mul adds precisions.  No operation loses information.
    """

    __slots__ = ("mantissa", "precision")

    def __init__(self, mantissa: int, precision: int = 0):
        if precision < 0:
            raise ValueError("precision must be >= 0")
        self.mantissa = mantissa
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        """Exact conversion; the denominator must be a power of two."""
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"{q} is not dyadic")
        return cls(q.numerator, den.bit_length() - 1)

    # -- value access ------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.precision)

    def __float__(self) -> float:
        return self.mantissa / (1 << self.precision)

    def __bool__(self) -> bool:
        return self.mantissa != 0

    # -- comparisons (value-based) ----------------------------------------

    def _cmp_pair(self, other: "Dyadic") -> tuple[int, int]:
        p = max(self.precision, other.precision)
        return (self.mantissa << (p - self.precision),
                other.mantissa << (p - other.precision))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        a, b = self._cmp_pair(other)
        return a == b

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_pair(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_pair(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_pair(other)
        return a > b

    def __ge__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_pair(other)
        return a >= b

    def __hash__(self) -> int:
        m, p = self.mantissa, self.precision
        if m == 0:
            return hash((0, 0))
        # strip trailing zero bits so equal values hash equally
        tz = (m & -m).bit_length() - 1
        tz = min(tz, p)
        return hash((m >> tz, p - tz))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        p = max(self.precision, other.precision)
        a, b = self._cmp_pair(other)
        return Dyadic(a + b, p)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        p = max(self.precision, other.precision)
        a, b = self._cmp_pair(other)
        return Dyadic(a - b, p)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.mantissa * other.mantissa,
                      self.precision + other.precision)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.precision)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.mantissa), self.precision)

    # -- digit operations --------------------------------------------------

    def floor_scaled(self, j: int) -> int:
        """floor(2**j * self) as a plain integer (floor also for negatives)."""
        p = self.precision
        if j >= p:
            return self.mantissa << (j - p)
        return self.mantissa >> (p - j)

    def bit(self, j: int) -> int:
        """Digit at place j, i.e. floor(2**j * self) mod 2.

        Requires 1 <= j <= precision; querying past the stored precision
        raises PrecisionExceeded rather than silently returning 0.
        """
        if j < 1 or j > self.precision:
            raise PrecisionExceeded(
                f"place {j} outside stored precision {self.precision}")
        return (self.mantissa >> (self.precision - j)) & 1

    def truncate(self, p: int) -> "Dyadic":
        """2**-p * floor(2**p * self), returned at precision p."""
        if p < 0:
            raise ValueError("truncation precision must be >= 0")
        return Dyadic(self.floor_scaled(p), p)

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.precision})"

