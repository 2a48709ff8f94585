"""The calculus of homotopy types in the classes W and P.

W holds finite-type wedges of simply connected spheres, recorded by the
generating function of reduced homology ranks.  P holds finite-type
products of spheres and loops on simply connected spheres, recorded by an
exact (unreduced) Poincare series; its factors through a cutoff D, those
whose bottom homology degree is at most D, are read off it.  By Hopf
invariant one the only sphere factors are S^1, S^3, S^7, and loops on
S^2, S^4, S^8 are always rewritten through Omega S^n ~ S^(n-1) x
Omega S^(2n-1); this makes the bottom degrees of sphere factors {1,3,7}
and of loop factors disjoint from them, which is what makes greedy
factorization unambiguous: each bottom degree d >= 1 names exactly one
canonical factor, and a factor is written as its d.

Factors beyond the cutoff are never listed individually; the series is the
lossless record of their aggregate, and the cutoff bounds every check.
"""

from __future__ import annotations

from operator import mul, sub

from .series import Frozen, GradedSeries, poly_add, poly_mul, poly_neg


class NotSimplyConnectedOutput(ValueError):
    """A wedge construction produced cells below degree 2."""


class NoSolution(ValueError):
    """Graded basic-product counts forced negative; malformed input."""


class NotCanonicalP(ValueError):
    """A series is not the Poincare series of a canonical P-form."""


_HOPF_DIMS = (1, 3, 7)


class CellSeries(Frozen):
    """Reduced-homology rank series of a path connected space.

    The degree-0 coefficient is 0 and coefficients are non-negative: all of them
    for a polynomial, through `degree` for a fraction.  The zero series is the
    point.  At cutoff D a wedge's cells (a vertex's, a', the skeleton wedge, the
    join, the Porter residual) are checked through D + 1, which Hilton-Milnor
    reads for exponents through D, and a P-form's `reduced_cells` through D.
    """

    __slots__ = ("reduced",)

    def __init__(self, reduced: GradedSeries, degree: int):
        object.__setattr__(self, "reduced", reduced)
        if reduced.is_zero():
            return
        coeffs = reduced.checkable_coeffs(degree)
        if coeffs[0] != 0:
            raise ValueError("reduced series must have zero constant term")
        if min(coeffs) < 0:
            raise ValueError("reduced series must be non-negative")


class SphereWedge(Frozen):
    """Wedge of simply connected spheres; coefficient n counts copies of S^n."""

    __slots__ = ("cells",)

    def __init__(self, cells: CellSeries):
        object.__setattr__(self, "cells", cells)
        order = cells.reduced.order()
        if order is not None and order < 2:
            raise NotSimplyConnectedOutput(f"wedge has cells in degree {order}")


class PProduct(Frozen):
    """Product of spheres and loop spaces, up to a bottom-degree cutoff.

    `series` is the exact unreduced Poincare series of the whole product.
    A canonical factor is its bottom degree d: S^d for d in {1,3,7}, else
    Omega S^(d+1).  `factors` lists (d, multiplicity) for d <= cutoff in
    ascending order, read off the series: they are its exponents through
    the cutoff.  A negative exponent raises NotCanonicalP; this is the one
    membership test for P.  Non-negative exponents give non-negative
    coefficients through the cutoff, as each 1/(1-t^d) and 1+t^d has them.
    """

    __slots__ = ("series", "factors", "cutoff")

    def __init__(self, series: GradedSeries, cutoff: int):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if series.num[:1] != (1,):  # the constant term, as den[0] is 1
            raise NotCanonicalP("canonical series starts with 1")
        counts = _bottom_counts(series, cutoff)
        for d, c in enumerate(counts):
            if c < 0:
                raise NotCanonicalP(f"negative exponent {c} at bottom degree {d}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "factors", tuple([(d, c) for d, c in enumerate(counts) if c]))
        object.__setattr__(self, "cutoff", cutoff)

    def __eq__(self, other):
        if type(other) is not PProduct:
            return NotImplemented
        # unhashable, as its series is
        return self.cutoff == other.cutoff and self.series == other.series

    def is_trivial(self) -> bool:
        return self.series.is_one()

    def to_doc(self) -> dict:
        """The factors, the series and its expansion through the cutoff."""
        num, den = self.series.to_pair()
        return {
            "factors": [
                {"kind": "sphere", "dim": d, "mult": mult}
                if d in _HOPF_DIMS
                else {"kind": "loop_sphere", "dim": d + 1, "mult": mult}
                for d, mult in self.factors
            ],
            "series": {"num": num, "den": den},
            "expansion": list(self.series.expand(self.cutoff)),
        }


def _log_power_sums(f: tuple[int, ...], degree: int) -> list[int]:
    """The power sums a_1..a_degree of log f, a_n = n [t^n] log f, for a
    polynomial f with f(0) = 1, after a placeholder a_0 = 0.  They satisfy
    t f' = f sum a_n t^n, so Newton's identity a_n = n f_n - sum_(i<n) a_i
    f_(n-i) gives each from the last deg f of them."""
    tail, sums = f[1:], [0]
    if not tail:
        return [0] * (degree + 1)
    for n in range(1, degree + 1):
        f_n = f[n] if n < len(f) else 0
        sums.append(n * f_n - sum(map(mul, tail, reversed(sums))))
    return sums


def _bottom_counts(s: GradedSeries, degree: int) -> list[int]:
    """Exponents of the unique factorisation of s (constant term 1) through
    degree into one canonical factor per bottom degree d = 1..degree.

    The factor of bottom d is 1/(1-t^d), or 1+t^d for d in {1,3,7};
    exponents may come out negative.  Work in the log
    domain: the power sums a_n = n [t^n] log s of s = num/den are those of
    log num less those of log den, each by Newton's identity on the
    polynomial itself: deg num + deg den products per degree, no series
    1/s and no expansion of s.  A factor 1/(1-t^d) adds d to a_n at every
    multiple n of d, and 1+t^d adds d (-1)^(n/d+1); sweeping d upwards,
    what is left of a_d is d times the exponent at d.  Returns counts with
    counts[d] the exponent, counts[0] = 0: all zeros for the series 1.
    """
    counts = [0] * (degree + 1)
    if s.is_one():
        return counts
    sums = list(map(sub, _log_power_sums(s.num, degree), _log_power_sums(s.den, degree)))
    for d in range(1, degree + 1):
        c = counts[d] = sums[d] // d
        if c:
            alternate = d in _HOPF_DIMS
            for j, n in enumerate(range(d, degree + 1, d)):
                sums[n] -= -c * d if alternate and j % 2 else c * d
    return counts


def pproduct_mul(a: PProduct, b: PProduct) -> PProduct:
    """Product of products: series multiply, so factor multisets union."""
    if a.cutoff != b.cutoff:
        raise ValueError("cannot multiply products with different cutoffs")
    if a.is_trivial():
        return b
    if b.is_trivial():
        return a
    return greedy_factorize(a.series * b.series, a.cutoff)


def reduced_cells(p: PProduct) -> CellSeries:
    """Reduced-homology series of the underlying space of a product: with
    series N/D it is (N - D)/D, p's series less its constant term."""
    num, den = p.series.num, p.series.den
    return CellSeries(GradedSeries(poly_add(num, poly_neg(den)), den), p.cutoff)


# --------------------------------------------------------------------------
# operations


def join_cells(a: CellSeries, b: CellSeries, degree: int) -> SphereWedge:
    """Join X * Y ~ Sigma(X ^ Y): cell series t * a * b, checked through degree.

    The caller guarantees the join lies in W (SphereWedge raises
    NotSimplyConnectedOutput otherwise); joining with a point gives the
    trivial wedge.  The series is one fraction, t x y over the product of
    the denominators.
    """
    x, y = a.reduced, b.reduced
    num = poly_mul((0, 1), poly_mul(x.num, y.num))
    return SphereWedge(CellSeries(GradedSeries(num, poly_mul(x.den, y.den)), degree))


def lyndon_counts(f: GradedSeries, degree: int) -> dict[int, int]:
    """Graded basic-product counts l_n with prod (1-t^n)^(l_n) = 1 - f(t).

    These are the numbers of Lyndon words over a graded alphabet whose
    generating function is f (Witt's necklace numbers in the ungraded case).
    They are the exponents of 1/(1-f) = prod 1/(1-t^n)^(l_n), so they are
    unique.  They come from its canonical exponents c_n: a sphere factor
    (1+t^d)^c is (1-t^(2d))^c/(1-t^d)^c, so l_n = c_n except l_(2d) =
    c_(2d) - c_d for d in {1,3,7}, the splitting Omega S^(d+1) ~ S^d x
    Omega S^(2d+1) read backwards.  For genuine letter counts (non-negative
    f) they are automatically non-negative; NoSolution flags malformed
    input at the lowest negative degree.
    """
    if f.order() == 0:  # num[0] is the constant term, as den[0] is 1
        raise ValueError("letter generating function needs zero constant term")
    counts = _bottom_counts(GradedSeries(f.den, poly_add(f.den, poly_neg(f.num))), degree)
    for d in _HOPF_DIMS:
        if 2 * d <= degree:
            counts[2 * d] -= counts[d]
    for n, l_n in enumerate(counts):
        if l_n < 0:
            raise NoSolution(f"negative count {l_n} in degree {n}")
    return {n: l_n for n, l_n in enumerate(counts) if l_n}


def hilton_milnor(w: SphereWedge, cutoff: int) -> PProduct:
    """Loop space of a wedge of spheres as a product of loops on spheres.

    A generator S^n of the wedge contributes a letter of degree n-1; each
    basic product of degree n gives a factor Omega S^(n+1), of bottom
    degree n.  The exact series is 1/(1 - cells/t) regardless of the
    cutoff.  With cells = N/D, whose N starts at t^2, it is built in closed
    form as D/(D - N/t).  Canonical factors are unique, so the factors are
    its greedy factorisation: Omega S^2, Omega S^4 and Omega S^8 come out
    as S^n x Omega S^(2n+1).
    """
    cells = w.cells.reduced
    if cells.is_zero():
        return PProduct(GradedSeries.one(), cutoff)
    series = GradedSeries(cells.den, poly_add(cells.den, poly_neg(cells.num[1:])))
    return greedy_factorize(series, cutoff)


def loop_half_smash(x: CellSeries, y_loop: PProduct) -> PProduct:
    """Loops on a half-smash X |x Y: Omega(X * Omega Y) x Omega Y.

    The factors are those of Omega Y and of Hilton-Milnor on the join.
    The series y/(1 - x(y-1)) is built in closed form: with y = N/D and
    x = p/q it is q N / ((q+p) D - p N), so no denominator is carried
    twice.  The right-handed case G x| A is the same computation with the
    roles swapped, so callers pass the pieces accordingly.  A point X or a
    trivial Omega Y gives Omega Y itself, before any series is built: under
    a flag root the star side of a pushout is a cone, so the quotient
    Omega Y it hands over is trivial at every node.
    """
    if x.reduced.is_zero() or y_loop.is_trivial():
        return y_loop
    # the join's cells, non-negative through D + 1, put its loops in P through D
    # by Hilton-Milnor: their exponents are graded Lyndon (Witt) counts
    join_cells(x, reduced_cells(y_loop), y_loop.cutoff + 1)
    p, q = x.reduced.num, x.reduced.den
    n, d = y_loop.series.num, y_loop.series.den
    series = GradedSeries(
        poly_mul(q, n), poly_add(poly_mul(poly_add(q, p), d), poly_neg(poly_mul(p, n)))
    )
    return greedy_factorize(series, y_loop.cutoff)


def porter_loop_wedge(summands) -> PProduct:
    """Loops on a wedge of spaces with given loop products (Porter splitting).

    Result is prod Omega X_i times the loops of the residual wedge whose
    cell series is sum over subsets T with |T| >= 2 of (|T|-1) * t *
    prod_{i in T} (s_i - 1).  That subset sum is 1 - A R with A = prod s_i
    and R = sum 1/s_i - (n-1), the identity 1/P(Omega(X v Y)) =
    1/P(Omega X) + 1/P(Omega Y) - 1 iterated over the summands.  With
    s_i = N_i/D_i, N = prod N_i and D = prod D_i, R = S/N for
    S = sum_i D_i prod_{j != i} N_j - (n-1) N, whose products of all but
    one N_j come from prefix and suffix products: O(n) polynomial products,
    not 2^n or n^2, and no denominator is multiplied in twice.  The
    residual cells are then t (D - S)/D, and the whole series is N/S.  A
    trivial summand (a point) adds nothing and is dropped first.
    """
    summands = list(summands)
    if not summands:
        raise ValueError("need at least one summand")
    cutoff = summands[0].cutoff
    if any(p.cutoff != cutoff for p in summands):
        raise ValueError("summand cutoffs differ")
    nontrivial = [p for p in summands if not p.is_trivial()]
    if len(nontrivial) < 2:
        return nontrivial[0] if nontrivial else summands[0]
    nums = [p.series.num for p in nontrivial]
    prefix = [(1,)]  # prefix[i] = N_1 ... N_i
    for num in nums:
        prefix.append(poly_mul(prefix[-1], num))
    whole = prefix.pop()
    S = tuple([(1 - len(nums)) * c for c in whole])
    den = after = (1,)  # after = N_(i+1) ... N_n, as i runs down
    for i in reversed(range(len(nums))):
        d_i = nontrivial[i].series.den
        S = poly_add(S, poly_mul(d_i, poly_mul(prefix[i], after)))
        den = poly_mul(den, d_i)
        if i:
            after = poly_mul(nums[i], after)
    gap = poly_add(den, poly_neg(S))
    residual_cells = GradedSeries(poly_mul((0, 1), gap), den)
    # the residual's loops are in P through D by Hilton-Milnor, as in loop_half_smash
    SphereWedge(CellSeries(residual_cells, cutoff + 1))
    return greedy_factorize(GradedSeries(whole, S), cutoff)


def greedy_factorize(s: GradedSeries, cutoff: int) -> PProduct:
    """The P-form of a Poincare series s, whose constructor reads the
    canonical factor multiset off s.

    Bottom degrees decide the factors: d in {1,3,7} is the sphere S^d, any
    other d is loops on S^(d+1).  Their exponents come from one divisor
    sweep over the power sums of log s, with the S^1/S^3/S^7 sign rule.
    The series is canonical through the cutoff exactly when no exponent is
    negative; NotCanonicalP reports the lowest negative one.
    """
    return PProduct(s, cutoff)


def divide_products(big: PProduct, small: PProduct) -> PProduct:
    """Complementary factor of small inside big: series divide, refactorize.
    A quotient that is not a P-form raises NotCanonicalP."""
    if big.cutoff != small.cutoff:
        raise ValueError("cannot divide products with different cutoffs")
    if small.is_trivial():
        return big
    return greedy_factorize(big.series / small.series, big.cutoff)
