"""Exact arithmetic on one-variable generating functions over the integers.

A GradedSeries is a fraction num/den of integer polynomials (coefficient
tuples, ascending degree) whose denominator has constant term 1 after sign
normalisation, so the formal power-series expansion is integral and well
defined.  Fractions are never reduced by polynomial gcd; equality is decided
by cross-multiplication, so the representation never matters.  The only
normalisations applied at construction are trailing-zero stripping, sign,
and collapsing when one polynomial exactly divides the other.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_DEGREE = 20


class DivisionUndefined(ZeroDivisionError):
    """Division by the zero series."""


def _strip(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_neg(a) -> tuple[int, ...]:
    return tuple(-c for c in a)


def poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _strip(out)


def poly_exact_div(a, b):
    """Quotient of a by b over Z, or None if b does not divide a exactly.

    Requires b with unit constant term; division runs in ascending powers so
    all intermediate arithmetic stays integral.
    """
    if not b or b[0] not in (1, -1):
        return None
    if not a:
        return ()
    if len(a) < len(b):
        return None
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q)):
        c = rem[i] * b[0]  # b[0] is its own inverse
        q[i] = c
        if c:
            for j, cb in enumerate(b):
                rem[i + j] -= c * cb
    if any(rem):
        return None
    return _strip(q)


def convolve_trunc(a, b, degree: int) -> list[int]:
    """Coefficients of a*b through the given degree (inputs as sequences)."""
    out = [0] * (degree + 1)
    for i, ca in enumerate(a):
        if i > degree:
            break
        if ca:
            for j, cb in enumerate(b):
                if i + j > degree:
                    break
                out[i + j] += ca * cb
    return out


@dataclass(frozen=True, eq=False)
class GradedSeries:
    """Fraction of integer polynomials with unit denominator constant term."""

    num: tuple[int, ...]
    den: tuple[int, ...] = (1,)

    def __post_init__(self):
        num = _strip(self.num)
        den = _strip(self.den)
        if not den or den[0] not in (1, -1):
            raise ValueError("denominator constant term must be +1 or -1")
        if not num:
            den = (1,)
        elif den != (1,):
            q = poly_exact_div(num, den)
            if q is not None:
                num, den = q, (1,)
            else:
                q = poly_exact_div(den, num)
                if q is not None:
                    num, den = (1,), q
        if den[0] == -1:
            num, den = poly_neg(num), poly_neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", [])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GradedSeries":
        return cls(())

    @classmethod
    def one(cls) -> "GradedSeries":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int) -> "GradedSeries":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((0,) * degree + (1,))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def order(self):
        """Degree of the lowest nonzero expansion coefficient, None if zero."""
        for i, c in enumerate(self.num):
            if c:
                return i
        return None

    def expand(self, degree: int) -> tuple[int, ...]:
        """Expansion coefficients c_0..c_degree; exact and cached."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        coeffs = self._coeffs
        num, den = self.num, self.den
        while len(coeffs) <= degree:
            n = len(coeffs)
            c = num[n] if n < len(num) else 0
            for k in range(1, min(n, len(den) - 1) + 1):
                c -= den[k] * coeffs[n - k]
            coeffs.append(c)
        return tuple(coeffs[: degree + 1])

    def checkable_coeffs(self, degree: int) -> tuple[int, ...]:
        """What a validity check can read: every coefficient of a
        polynomial, a fraction's (infinite) expansion through degree."""
        return self.num if self.den == (1,) else self.expand(degree)

    def coefficient(self, n: int) -> int:
        return self.expand(n)[n]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, GradedSeries):
            return value
        if isinstance(value, int):
            return GradedSeries((value,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den == (1,):
            return GradedSeries(poly_add(self.num, other.num))
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return GradedSeries(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries(poly_neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GradedSeries(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionUndefined("division by the zero series")
        return GradedSeries(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    __hash__ = None  # semantic equality is incompatible with structural hashing

    def __repr__(self):
        return f"GradedSeries(num={list(self.num)}, den={list(self.den)})"

    # -- serialization -----------------------------------------------------

    def to_pair(self) -> tuple[list[int], list[int]]:
        return (list(self.num) or [0], list(self.den))

