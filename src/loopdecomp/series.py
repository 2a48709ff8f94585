"""Exact arithmetic on one-variable generating functions over the integers.

A GradedSeries is a fraction num/den of integer polynomials (coefficient
tuples, ascending degree) whose denominator has constant term 1 after sign
normalisation, so the formal power-series expansion is integral and well
defined.  A series keeps the fraction it was built as: it is never reduced,
by polynomial gcd or by exact division, and equality is decided by
cross-multiplication, so the representation never matters.  The only
normalisations applied at construction are trailing-zero stripping, the
zero series' denominator 1, and the sign.  A series multiplies, divides
and compares with another series; sums and differences are built on the
coefficient tuples, by poly_add and poly_neg.

Every module builds a tuple from a list or a sized sequence, never from a
generator: tuple() sizes a generator's tuple at 10 and resizes it, and a
resized tuple, once freed, joins the interpreter's free list of its new
size, which only a full garbage collection empties.  A process that makes
many calls then holds up to 2,000 spare tuples of each size up to 20.
"""

from __future__ import annotations

from operator import add, mul

DEFAULT_DEGREE = 20


class DivisionUndefined(ZeroDivisionError):
    """Division by the zero series."""


class Frozen:
    """Base of the read-only value types: each slot is set once, through
    object.__setattr__; copy and pickle restore them through __setstate__."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _strip(coeffs) -> tuple[int, ...]:
    """coeffs as a tuple without trailing zeros; a tuple that has none is
    returned as it is."""
    if type(coeffs) is tuple and (not coeffs or coeffs[-1] != 0):
        return coeffs
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return _strip((*map(add, a, b), *a[len(b) :]))


def poly_neg(a) -> tuple[int, ...]:
    return tuple([-c for c in a])


def poly_mul(a, b) -> tuple[int, ...]:
    """The product.  Most of the recursion's products have a constant
    operand, which only scales the other; otherwise the shorter operand
    drives the outer loop."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return _strip(b if c == 1 else [c * x for x in b])
    if not a:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _strip(out)


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


class GradedSeries(Frozen):
    """Fraction of integer polynomials with unit denominator constant term."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...] = (1,)):
        num = _strip(num)
        den = _strip(den)
        if not den or den[0] not in (1, -1):
            raise ValueError("denominator constant term must be +1 or -1")
        if not num:
            den = (1,)
        if den[0] == -1:
            num, den = poly_neg(num), poly_neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        """Expansion coefficients c_0..c_degree, exact.  With den[0] = 1,
        c_n = num[n] - sum_(k >= 1) den[k] c_(n-k)."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        coeffs: list[int] = []
        num, tail = self.num, self.den[1:]
        for n in range(degree + 1):
            c = num[n] if n < len(num) else 0
            coeffs.append(c - sum(map(mul, tail, reversed(coeffs))))
        return tuple(coeffs)

    def checkable_coeffs(self, degree: int) -> tuple[int, ...]:
        """What a validity check can read: every coefficient of a
        polynomial, a fraction's (infinite) expansion through degree."""
        return self.num if self.den == (1,) else self.expand(degree)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return GradedSeries(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __truediv__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if other.is_zero():
            raise DivisionUndefined("division by the zero series")
        return GradedSeries(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    __hash__ = None  # semantic equality is incompatible with structural hashing

    def __repr__(self):
        return f"GradedSeries(num={list(self.num)}, den={list(self.den)})"

    # -- serialization -----------------------------------------------------

    def to_pair(self) -> tuple[list[int], list[int]]:
        return (list(self.num) or [0], list(self.den))
