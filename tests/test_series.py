import pytest
from hypothesis import example, given, strategies as st

from loopdecomp.series import DivisionUndefined, GradedSeries, poly_add, poly_mul

from helpers import add, convolve, geometric, sub


def gs(num, den=(1,)):
    return GradedSeries(tuple(num), tuple(den))


class TestMul:
    def test_polynomial_identity(self):
        assert gs([1, 1]) * gs([1, -1]) == gs([1, 0, -1])

    def test_fraction_product(self):
        a = geometric(2)
        sq = a * a
        assert sq == gs([1], [1, 0, -2, 0, 1])

    def test_expansion_is_convolution(self):
        # (1+t^3) * 1/(1-t^2) through t^5, against a direct convolution
        a = gs([1, 0, 0, 1])
        b = geometric(2)
        expected = convolve(list(a.expand(5)), list(b.expand(5)), 5)
        assert expected == [1, 0, 1, 1, 1, 1]
        assert list((a * b).expand(5)) == expected


class TestDiv:
    def test_polynomial_quotient(self):
        assert gs([1, 0, -1]) / gs([1, 1]) == gs([1, -1])

    def test_fraction_quotient(self):
        g2 = geometric(2)
        assert g2 * g2 / g2 == g2

    def test_cross_multiplied(self):
        q = gs([1], [1, -1]) / gs([1, 1])
        assert q == geometric(2)
        assert q * gs([1, 1]) == gs([1], [1, -1])

    def test_zero_divisor(self):
        with pytest.raises(DivisionUndefined):
            gs([1]) / GradedSeries.zero()


class TestExpand:
    def test_geometric_even(self):
        assert geometric(2).expand(6) == (1, 0, 1, 0, 1, 0, 1)

    def test_doubling(self):
        assert gs([1], [1, -2]).expand(4) == (1, 2, 4, 8, 16)

    def test_shifted_geometric(self):
        a = gs([0, 0, 0, 1], [1, 0, -1])
        assert a.expand(7) == (0, 0, 0, 1, 0, 1, 0, 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            GradedSeries.one().expand(-1)


def test_denominator_unit_constant_required():
    with pytest.raises(ValueError):
        gs([1], [2, 1])
    with pytest.raises(ValueError):
        gs([1], [0, 1])


def test_sign_normalisation():
    s = gs([0, -1], [-1, 0, 0, 1])
    assert s.den[0] == 1
    assert s == gs([0, 1], [1, 0, 0, -1])


class TestKeepsFraction:
    """A series is the fraction it was built as: a denominator that divides
    the numerator, or the other way round, stays."""

    def test_divisible_fraction_is_kept(self):
        s = gs([1, 2, 1], [1, 1])
        assert (s.num, s.den) == ((1, 2, 1), (1, 1))
        assert s == gs([1, 1])
        assert s.expand(6) == gs([1, 1]).expand(6) == (1, 1, 0, 0, 0, 0, 0)

    def test_reciprocal_of_a_multiple_is_kept(self):
        s = gs([1, 1], [1, 2, 1])
        assert (s.num, s.den) == ((1, 1), (1, 2, 1))
        assert s == gs([1], [1, 1])

    def test_sign_is_normalised_without_reduction(self):
        s = gs([-1, -2, -1], [-1, -1])
        assert (s.num, s.den) == ((1, 2, 1), (1, 1))
        assert s == gs([1, 1])


def test_zero_and_one():
    assert GradedSeries.zero().is_zero()
    assert GradedSeries.one().is_one()
    assert gs([1, 1], [1, 1]).is_one()
    assert gs([0]).is_zero()


def test_order():
    assert gs([0, 0, 5], [1, -1]).order() == 2
    assert GradedSeries.zero().order() is None


class TestSlimType:
    """A series multiplies, divides and compares with a series, and holds
    only its fraction: sums live in the tests' helpers."""

    def test_fields_are_the_fraction(self):
        assert GradedSeries.__slots__ == ("num", "den")

    def test_no_sums_and_no_int_operands(self):
        s = gs([1, 1], [1, -1])
        for op in (
            lambda: s + s,
            lambda: s - 1,
            lambda: -s,
            lambda: 1 / s,
            lambda: 2 * s,
            lambda: s * 2,
            lambda: s / 2,
        ):
            with pytest.raises(TypeError):
                op()

    def test_an_int_is_not_a_series(self):
        assert (GradedSeries.one() == 1) is False
        assert (GradedSeries.zero() == 0) is False


def test_serialization_round_trip():
    s = gs([0, 1, 2], [1, 0, -1])
    assert gs(*s.to_pair()) == s
    assert GradedSeries.zero().to_pair() == ([0], [1])


small_poly = st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(tuple)
unit_poly = st.tuples(st.sampled_from([1, -1]), small_poly).map(lambda p: (p[0],) + p[1])


@st.composite
def graded_series(draw):
    return GradedSeries(draw(small_poly), draw(unit_poly))


@given(graded_series(), graded_series())
def test_mul_expansion_matches_convolution(a, b):
    degree = 8
    direct = convolve(list(a.expand(degree)), list(b.expand(degree)), degree)
    assert list((a * b).expand(degree)) == direct


_constant = st.integers(-5, 5)


@given(graded_series() | _constant, graded_series() | _constant)
def test_helper_sum_and_difference_are_coefficientwise(a, b):
    degree = 8

    def coeffs(x):  # an int is the constant x
        return [x] + [0] * degree if isinstance(x, int) else list(x.expand(degree))

    pairs = list(zip(coeffs(a), coeffs(b)))
    assert list(add(a, b).expand(degree)) == [p + q for p, q in pairs]
    assert list(sub(a, b).expand(degree)) == [p - q for p, q in pairs]


@given(graded_series(), graded_series())
def test_div_round_trip(a, b):
    if b.is_zero():
        return
    try:
        q = a / b
    except ValueError:
        return  # quotient denominator lost its unit constant term
    assert q * b == a


@given(graded_series(), unit_poly)
def test_representation_independence(a, p):
    scaled = GradedSeries(
        tuple(x for x in _poly_mul(a.num, p)), tuple(x for x in _poly_mul(a.den, p))
    )
    assert scaled == a
    assert scaled.expand(10) == a.expand(10)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _stripped(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


# coefficient sequences as lists or tuples, trailing zeros allowed, with
# big coefficients and the constants 0, 1 and -1 drawn often
_coeff = st.sampled_from([0, 1, -1]) | st.integers(-5, 5) | st.integers(-(2**80), 2**80)
_coeffs = st.lists(_coeff, max_size=6)
_operand = _coeffs | _coeffs.map(tuple) | st.sampled_from([(), (1,), (-1,), (0,), [1], (2, 0)])


def _check_kernel(out, expected):
    assert type(out) is tuple and out == _stripped(expected)


@given(_operand, _operand)
@example((), (1, 2))
@example((1,), (3, 0, 0))
@example((-1,), [2, 0, -4])
@example([5], (1, 2))
@example((0,), (1, 2))
@example((1, 0, 0), (2, 3))
@example([1], [0, 0])
def test_poly_mul_matches_naive(a, b):
    _check_kernel(poly_mul(a, b), _poly_mul(a, b))
    _check_kernel(poly_mul(b, a), _poly_mul(a, b))


@given(_operand, _operand)
@example((), ())
@example((1, 2), (-1, -2))
@example((1, 0), [0, 0, 0])
@example([3], (1, 2, 0))
def test_poly_add_matches_naive(a, b):
    _check_kernel(poly_add(a, b), _poly_add(a, b))
    _check_kernel(poly_add(b, a), _poly_add(a, b))


@given(graded_series())
def test_equality_is_reflexive_under_rebuild(a):
    assert GradedSeries(a.num, a.den) == a

