"""Polyhedral norms given by dyadic linear functionals.

A norm is ||x|| = max over functionals of |x . v|, with every coefficient an
exact dyadic.  Each functional carries a pivot coordinate whose coefficient is
positive after sign normalization; the digit construction writes its solved
digits into that coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import (BadPivot, CheckedRecord, DegenerateNorm,
                     DimensionMismatch, NonDyadicCoefficient, ZeroVector,
                     is_int)

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["Functional", "PolyhedralNorm", "int_dot", "preset",
           "custom_norm", "min_margin", "margin_ok"]


def int_dot(mants, coeffs) -> int:
    """Dot product of two integer sequences: the one integer kernel that
    the construction and the norm both evaluate functionals with."""
    return sum(map(mul, mants, coeffs))


class _FunctionalFields(NamedTuple):
    mantissas: tuple[int, ...]
    precision: int
    pivot: int


class Functional(CheckedRecord, _FunctionalFields):
    """One face functional: coefficient mantissas at a shared precision.

    Coefficient i is mantissas[i] * 2**-precision.  pivot indexes the
    coordinate receiving solver-chosen digits; mantissas[pivot] > 0.  The
    constructor refuses a negative or non-int precision and a pivot that
    is not such an index.
    """

    __slots__ = ()

    def __new__(cls, mantissas, precision, pivot):
        mantissas = tuple(mantissas)
        if not is_int(precision) or precision < 0:
            raise NonDyadicCoefficient(f"bad precision {precision!r}")
        if (not is_int(pivot) or not 0 <= pivot < len(mantissas)
                or mantissas[pivot] <= 0):
            raise BadPivot(f"functional {mantissas} lacks a positive "
                           f"pivot coefficient at index {pivot}")
        return tuple.__new__(cls, (mantissas, precision, pivot))

    @property
    def dim(self) -> int:
        return len(self.mantissas)

    def dot(self, x: list[Dyadic] | tuple[Dyadic, ...]) -> Dyadic:
        from .dyadic import Dyadic  # a test oracle: no command calls dot
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"vector length {len(x)} != dimension {self.dim}")
        px = max(v.precision for v in x)
        return Dyadic(int_dot([v.mantissa << (px - v.precision) for v in x],
                              self.mantissas), px + self.precision)


class _NormFields(NamedTuple):
    dim: int
    functionals: tuple[Functional, ...]


class PolyhedralNorm(CheckedRecord, _NormFields):
    """max_l |x . v^l| over a full-rank family of dyadic functionals.

    The constructor refuses an empty family, one of another length than
    dim or of rank below dim; each Functional has refused a pivot that is
    not positive already.  No __slots__: the instance dict holds the
    cached shifts, scales and coefficient table.
    """

    def __new__(cls, dim, functionals):
        functionals = tuple(functionals)
        if dim < 1 or not functionals:
            raise DegenerateNorm("need dim >= 1 and at least one functional")
        if any(f.dim != dim for f in functionals):
            raise DimensionMismatch("functional length != dim")
        rank = _rank([[Fraction(m, 1 << f.precision) for m in f.mantissas]
                      for f in functionals])
        if rank < dim:
            raise DegenerateNorm(f"functional family has rank {rank} < {dim}")
        return tuple.__new__(cls, (dim, functionals))

    @property
    def n_functionals(self) -> int:
        return len(self.functionals)

    @cached_property
    def _shifts(self) -> tuple[int, ...]:
        # per functional, the finest functional precision less its own
        top = max(f.precision for f in self.functionals)
        return tuple(top - f.precision for f in self.functionals)

    @cached_property
    def _scales(self) -> tuple[tuple[int, int], ...]:
        # per functional, (shift, precision) of the measures it attains;
        # read per distance, so one cached tuple instead of record fields
        return tuple(zip(self._shifts,
                         [f.precision for f in self.functionals]))

    @cached_property
    def _coeffs(self) -> tuple[tuple[int, ...], ...]:
        # the coefficients at that finest precision, so that the dot
        # products of functionals of any precision compare as integers
        return tuple(tuple(m << shift for m in f.mantissas)
                     for f, shift in zip(self.functionals, self._shifts))

    def measure(self, x) -> tuple[Dyadic, tuple[int, ...]]:
        """(||x||, ascending indices of every functional attaining it).

        The Dyadic form of measure_projection: x is aligned to its finest
        coordinate precision first.  Only tests call it.
        """
        from .dyadic import Dyadic
        px = max((v.precision for v in x), default=0)
        mantissa, precision, ties = self.measure_projection(
            self.project([v.mantissa << (px - v.precision) for v in x]), px)
        return Dyadic(mantissa, precision), ties

    def project(self, mants) -> list[int]:
        """The integer dot products mants . v, one per functional, each
        scaled by 2**shift to the finest functional precision.

        Each is linear, so project(x - y) is project(x) - project(y)
        entry by entry: a distance needs the two points' projections only.
        DimensionMismatch unless mants has length dim.
        """
        if len(mants) != self.dim:
            raise DimensionMismatch(
                f"vector length {len(mants)} != dimension {self.dim}")
        return [int_dot(mants, c) for c in self._coeffs]

    def measure_projection(self, proj, prec: int
                           ) -> tuple[int, int, tuple[int, ...]]:
        """(mantissa, precision, ties): the measure of the vector whose
        projection is proj, at precision prec.  After project, the one
        measuring kernel.

        proj is any iterable of the k ints project returns.  Functionals
        compare by |proj[l]|; the value is |proj[l]| >> shift of the first
        attaining functional l, which is |x . v| at precision
        prec + that functional's precision.  Full rank makes it 0 only for
        x = 0, which every functional attains.
        """
        keys = list(map(abs, proj))
        best = max(keys)
        first = keys.index(best)
        if keys.count(best) == 1:
            ties = (first,)
        else:
            ties = tuple(i for i, k in enumerate(keys) if k == best)
        shift, precision = self._scales[first]
        return best >> shift, prec + precision, ties

    def evaluate(self, x) -> Dyadic:
        """||x||, exact."""
        return self.measure(x)[0]

    def argmax(self, x) -> int:
        """Smallest functional index attaining the max; x must be nonzero."""
        return self.argmax_all(x)[0]

    def argmax_all(self, x) -> list[int]:
        """All functional indices tying for the max; x must be nonzero."""
        value, ties = self.measure(x)
        if not value:
            raise ZeroVector("argmax undefined for the zero vector")
        return list(ties)


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination: each pivot row
    leaves rows and clears its column from the rows that stay."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        for i, row in enumerate(rows):
            if row[col]:
                factor = row[col] / pivot[col]
                rows[i] = [a - factor * b for a, b in zip(row, pivot)]
        rank += 1
    return rank


def _normalized(mantissas: tuple[int, ...], precision: int) -> Functional:
    """Pick the first nonzero coordinate as pivot and make it positive."""
    pivot = next((i for i, m in enumerate(mantissas) if m), None)
    if pivot is None:
        raise BadPivot("all-zero functional")
    if mantissas[pivot] < 0:
        mantissas = tuple(-m for m in mantissas)
    return Functional(mantissas, precision, pivot)


def preset(name: str, dim: int) -> PolyhedralNorm:
    """Built-in norms: "linf" (standard basis) or "l1" (sign patterns)."""
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    if name == "linf":
        funcs = [Functional(tuple(1 if j == i else 0 for j in range(dim)), 0, i)
                 for i in range(dim)]
    elif name == "l1":
        # 2**(dim-1) functionals (1, +-1, ..., +-1); max |x.v| equals sum|x_i|
        funcs = [Functional((1, *signs), 0, 0)
                 for signs in product((1, -1), repeat=dim - 1)]
    else:
        raise ValueError(f"unknown preset {name!r}")
    return PolyhedralNorm(dim, funcs)


def custom_norm(coeff_table) -> PolyhedralNorm:
    """Build a norm from rows of [mantissa, precision] pairs.

    Pivots are chosen automatically (first nonzero coordinate) and each
    functional is negated if needed so the pivot coefficient is positive.
    """
    funcs = []
    for row in coeff_table:
        pairs = []
        for entry in row:
            try:
                m, p = entry
            except (TypeError, ValueError):
                raise NonDyadicCoefficient(f"bad entry {entry!r}") from None
            # type, not isinstance: JSON true would pass for 1
            if type(m) is not int or type(p) is not int or p < 0:
                raise NonDyadicCoefficient(f"bad entry {entry!r}")
            pairs.append((m, p))
        prec = max((p for _, p in pairs), default=0)
        mants = tuple(m << (prec - p) for m, p in pairs)
        funcs.append(_normalized(mants, prec))
    if not funcs:
        raise DegenerateNorm("empty coefficient table")
    return PolyhedralNorm(len(funcs[0].mantissas), funcs)


def margin_ok(norm: PolyhedralNorm, margin: int) -> bool:
    """Does every functional satisfy max(sum|v_i|, 1/v_pivot) <= 2**(margin-3)?"""
    e = margin - 3
    for f in norm.functionals:
        total = sum(abs(m) for m in f.mantissas)
        # sum|v_i| <= 2**e  <=>  total <= 2**(e + precision)
        if e + f.precision < 0 or total > 1 << (e + f.precision):
            return False
        # 1/v_pivot <= 2**e  <=>  v_mantissa * 2**e >= 2**precision
        if f.mantissas[f.pivot] << max(e, 0) < 1 << (f.precision - min(e, 0)):
            return False
    return True


def min_margin(norm: PolyhedralNorm) -> int:
    """Smallest margin constant c >= 1 satisfying margin_ok, in closed form:
    per functional (mantissas m at precision p), margin_ok asks e = c - 3
    for e >= -p, e >= bitlen(sum|m| - 1) - p (sum|m| <= 2**(e + p)) and
    e >= p - bitlen(m_pivot) + 1 (m_pivot * 2**e >= 2**p)."""
    c = 3 + max(max(-p, (sum(map(abs, ms)) - 1).bit_length() - p,
                    p - ms[pivot].bit_length() + 1)
                for ms, p, pivot in norm.functionals)
    if c > 1 << 20:
        raise DegenerateNorm("no finite margin constant")
    return max(1, c)
