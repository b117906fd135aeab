"""Polyhedral norms given by dyadic linear functionals.

A norm is ||x|| = max over functionals of |x . v|, with every coefficient an
exact dyadic.  Each functional carries a pivot coordinate whose coefficient is
positive after sign normalization; the digit construction writes its solved
digits into that coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import (BadPivot, DegenerateNorm, DimensionMismatch,
                     NonDyadicCoefficient, ZeroVector)

if TYPE_CHECKING:
    from .dyadic import Dyadic

__all__ = ["Functional", "PolyhedralNorm", "int_dot", "preset",
           "custom_norm", "min_margin", "margin_ok"]


def int_dot(mants, coeffs) -> int:
    """Dot product of two integer sequences: the one integer kernel that
    the construction and the norm both evaluate functionals with."""
    return sum(map(mul, mants, coeffs))


class Functional(NamedTuple):
    """One face functional: coefficient mantissas at a shared precision.

    Coefficient i is mantissas[i] * 2**-precision.  pivot indexes the
    coordinate receiving solver-chosen digits; mantissas[pivot] > 0.
    """

    mantissas: tuple[int, ...]
    precision: int
    pivot: int

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


class PolyhedralNorm:
    """max_l |x . v^l| over a full-rank family of dyadic functionals."""

    def __init__(self, dim: int, functionals: list[Functional]):
        self.dim = dim
        self.functionals = tuple(functionals)
        self.validate()
        # every functional's coefficients at the finest functional
        # precision, 2**shift times its own, so that the dot products of
        # functionals of any precision compare as integers
        top = max(f.precision for f in self.functionals)
        self._shifts = tuple(top - f.precision for f in self.functionals)
        self._coeffs = tuple(tuple(m << shift for m in f.mantissas)
                             for f, shift in zip(self.functionals,
                                                 self._shifts))

    @property
    def n_functionals(self) -> int:
        return len(self.functionals)

    def validate(self) -> None:
        """Check pivots and full rank; raises on failure."""
        if self.dim < 1 or not self.functionals:
            raise DegenerateNorm("need dim >= 1 and at least one functional")
        for f in self.functionals:
            if f.dim != self.dim:
                raise DimensionMismatch("functional length != dim")
            if not 0 <= f.pivot < self.dim or f.mantissas[f.pivot] <= 0:
                raise BadPivot(f"functional {f.mantissas} lacks a positive "
                               f"pivot coefficient at index {f.pivot}")
        rank = _rank([[Fraction(m, 1 << f.precision) for m in f.mantissas]
                      for f in self.functionals])
        if rank < self.dim:
            raise DegenerateNorm(f"functional family has rank {rank} < {self.dim}")

    def measure(self, x) -> tuple[Dyadic, tuple[int, ...]]:
        """(||x||, ascending indices of every functional attaining it).

        The Dyadic form of measure_projection: x is aligned to its finest
        coordinate precision first.  Only tests call it.
        """
        from .dyadic import Dyadic
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"vector length {len(x)} != dimension {self.dim}")
        px = max(v.precision for v in x)
        mantissa, precision, ties = self.measure_projection(
            self.project([v.mantissa << (px - v.precision) for v in x]), px)
        return Dyadic(mantissa, precision), ties

    def project(self, mants) -> list[int]:
        """The integer dot products mants . v, one per functional, each
        scaled by 2**shift to the finest functional precision.

        Each is linear, so project(x - y) is project(x) - project(y)
        entry by entry: a distance needs the two points' projections only.
        mants must have length dim.
        """
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
        return (best >> self._shifts[first],
                prec + self.functionals[first].precision, ties)

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
    """Rank over the rationals by Gaussian elimination."""
    rows = [row[:] for row in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == ncols:
            break
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
        funcs = []
        for bits in range(1 << (dim - 1)):
            coeffs = [1]
            for j in range(dim - 1):
                coeffs.append(1 if not (bits >> (dim - 2 - j)) & 1 else -1)
            funcs.append(Functional(tuple(coeffs), 0, 0))
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
