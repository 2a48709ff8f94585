from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from loopdecomp import homotopy, series
from loopdecomp.complexes import FlagSkeleton, validate_complex
from loopdecomp.engine import PairSpec, check_trace, decompose_loop
from loopdecomp.homotopy import (
    CellSeries,
    NoSolution,
    NotCanonicalP,
    PProduct,
    SphereWedge,
    divide_products,
    greedy_factorize,
    hilton_milnor,
    join_cells,
    loop_half_smash,
    lyndon_counts,
    porter_loop_wedge,
    pproduct_mul,
    reduced_cells,
)
from loopdecomp.series import GradedSeries

from helpers import (
    CP_PAIRS,
    POINT,
    add,
    convolution_bottom_counts,
    convolve,
    cp_pair_fiber_cells,
    factor_series,
    geometric,
    graded_lyndon_counts,
    is_point,
    loop_sphere,
    merged_factors,
    multiplicity,
    necklace_lyndon_count,
    operator_porter,
    product_from_doc,
    product_of,
    random_canonical_product,
    sphere,
    sub,
    subset_residual_cells,
    suspension_splitting,
    wedge_of_spheres,
)


def gs(num, den=(1,)):
    return GradedSeries(tuple(num), tuple(den))


T = GradedSeries.monomial(1)
ONE = GradedSeries.one()
CIRCLE = CellSeries(T)
LOOP_S3_CELLS = CellSeries(gs([0, 0, 1], [1, 0, -1]))  # reduced Omega S^3


def random_deep_product(rng, cutoff):
    """A canonical product whose factors have bottoms spread up to cutoff."""
    factors = []
    for _ in range(rng.randint(2, 6)):
        d = rng.randint(1, cutoff)
        factor = sphere(d) if d in (1, 3, 7) else loop_sphere(d + 1)
        factors.append((factor, rng.randint(1, 3)))
    return product_of(factors, cutoff)


@st.composite
def half_smash_x(draw):
    """Cells of X: a finite wedge (a polynomial), or the fibre of a
    projective pair (mostly a fraction)."""
    if draw(st.booleans()):
        return CellSeries(gs([0] + draw(st.lists(st.integers(0, 2), max_size=5))))
    return CellSeries(cp_pair_fiber_cells(*draw(st.sampled_from(CP_PAIRS))))


@st.composite
def half_smash_y(draw, cutoff=12):
    """Omega Y from Hilton-Milnor on a wedge, or a quotient of two such
    products, as `divide_products` hands it to the half-smash."""
    dims = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    whole = hilton_milnor(wedge_of_spheres(dims), cutoff)
    if len(dims) == 1 or draw(st.booleans()):
        return whole
    part = hilton_milnor(wedge_of_spheres(dims[: len(dims) // 2]), cutoff)
    return divide_products(whole, part)


class TestPFactor:
    def test_canonical_dims_only(self):
        sphere(3)
        loop_sphere(5)
        for bad in (2, 4, 5, 6):
            with pytest.raises(ValueError):
                sphere(bad)
        for bad in (2, 4, 8):
            with pytest.raises(ValueError):
                loop_sphere(bad)

    def test_bottom_degrees_disjoint(self):
        # a canonical factor is its bottom degree: each d >= 1 names one
        spheres = {sphere(d) for d in (1, 3, 7)}
        loops = {loop_sphere(d) for d in range(3, 30) if d not in (4, 8)}
        assert not spheres & loops
        assert spheres | loops == set(range(1, 29))

    def test_product_reads_its_factors_off_the_series(self):
        # S^3 x S^3 x Omega S^3 through the cutoff 5; Omega S^7 lies past it
        s3, loop_s3, loop_s7 = map(factor_series, (sphere(3), loop_sphere(3), loop_sphere(7)))
        p = PProduct(s3 * s3 * loop_s3 * loop_s7, 5)
        assert p.factors == ((loop_sphere(3), 1), (sphere(3), 2))
        # 1 + t^2 has non-negative coefficients, but it is 1/(1 - t^2)
        # times 1 - t^4: its exponent at bottom degree 4 is -1
        with pytest.raises(NotCanonicalP, match="negative exponent -1 at bottom degree 4$"):
            PProduct(GradedSeries((1, 0, 1)), 4)
        assert PProduct(GradedSeries((1, 0, 1)), 3).factors == ((loop_sphere(3), 1),)
        for bad in (GradedSeries.zero(), GradedSeries((2, 1))):
            with pytest.raises(NotCanonicalP, match="starts with 1"):
                PProduct(bad, 5)
        with pytest.raises(ValueError, match="cutoff"):
            PProduct(GradedSeries.one(), 0)

    def test_poincare(self):
        assert factor_series(sphere(3)) == gs([1, 0, 0, 1])
        assert factor_series(loop_sphere(3)) == geometric(2)


class TestJoin:
    def test_circle_join_circle_is_s3(self):
        w = join_cells(CIRCLE, CIRCLE)
        assert w.cells.reduced == GradedSeries.monomial(3)

    def test_wedge_rejects_low_cells(self):
        from loopdecomp.homotopy import NotSimplyConnectedOutput

        with pytest.raises(NotSimplyConnectedOutput):
            SphereWedge(CIRCLE)

    def test_join_with_point_is_trivial(self):
        assert is_point(join_cells(CIRCLE, POINT))

    def test_circle_join_loop_s3(self):
        w = join_cells(CIRCLE, LOOP_S3_CELLS)
        # S^4 v S^6 v S^8 v ...
        assert w.cells.reduced == gs([0, 0, 0, 0, 1], [1, 0, -1])
        assert w.cells.reduced.expand(8) == (0, 0, 0, 0, 1, 0, 1, 0, 1)


class TestSuspension:
    def test_loop_s3(self):
        p = hilton_milnor(wedge_of_spheres([3]))
        w = suspension_splitting(p)
        assert w.cells.reduced == gs([0, 0, 0, 1], [1, 0, -1])

    def test_product_of_two_s3(self):
        p = product_of([(sphere(3), 2)])
        w = suspension_splitting(p)
        assert w.cells.reduced == gs([0, 0, 0, 0, 2, 0, 0, 1])

    def test_trivial(self):
        assert is_point(suspension_splitting(PProduct.trivial()))


class TestLyndon:
    def test_single_letter(self):
        assert lyndon_counts(T, 6) == {1: 1}

    def test_two_letters(self):
        counts = lyndon_counts(gs([0, 2]), 6)
        assert counts == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}
        for n in range(1, 7):
            assert counts.get(n, 0) == necklace_lyndon_count(2, n)
        # deep degrees, and a three-letter alphabet, against Witt's formula
        for q, degree in ((2, 200), (3, 120)):
            counts = lyndon_counts(gs([0, q]), degree)
            for n in range(1, degree + 1):
                assert counts[n] == necklace_lyndon_count(q, n), (q, n)

    def test_mixed_degrees(self):
        assert lyndon_counts(gs([0, 1, 1]), 4) == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_against_duval_enumeration(self):
        cases = [
            (1,),
            (2,),
            (1, 1),
            (1, 2),
            (2, 2),
            (1, 1, 1),
            (1, 2, 3),
            (2, 3, 3),
            (3, 3, 3),
        ]
        for degrees in cases:
            f = GradedSeries.zero()
            for d in degrees:
                f = add(f, GradedSeries.monomial(d))
            mine = lyndon_counts(f, 12)
            brute = graded_lyndon_counts(list(degrees), 12)
            assert mine == brute, degrees

    def test_no_solution_on_malformed_input(self):
        # t - t^2 is not a letter generating function; l_2 comes out negative
        with pytest.raises(NoSolution):
            lyndon_counts(gs([0, 1, -1]), 10)

    def test_product_identity(self):
        # prod (1-t^n)^(l_n) == 1 - f, checked with truncated arithmetic
        f = gs([0, 1, 2, 1])
        degree = 15
        counts = lyndon_counts(f, degree)
        current = [1] + [0] * degree
        for n, l in counts.items():
            factor = [0] * (degree + 1)  # (1-t^n)^l by the binomial theorem
            for j in range(min(l, degree // n) + 1):
                factor[j * n] = (-1) ** j * comb(l, j)
            current = convolve(current, factor, degree)
        expected = [1] + [-c for c in f.expand(degree)[1:]]
        assert current == expected


class TestHiltonMilnor:
    def test_single_s3(self):
        p = hilton_milnor(wedge_of_spheres([3]))
        assert p.factors == ((loop_sphere(3), 1),)
        assert p.series == geometric(2)

    def test_single_s2_canonicalizes(self):
        p = hilton_milnor(wedge_of_spheres([2]))
        assert p.factors == ((sphere(1), 1), (loop_sphere(3), 1))
        assert p.series == gs([1], [1, -1])

    def test_two_s2_at_low_cutoff(self):
        p = hilton_milnor(wedge_of_spheres([2, 2]), 3)
        assert p.series == gs([1], [1, -2])
        assert p.factors == (
            (sphere(1), 2),
            (loop_sphere(3), 3),
            (sphere(3), 2),
        )

    def test_trivial_wedge(self):
        assert hilton_milnor(SphereWedge(POINT)).is_trivial()

    def test_series_law(self):
        # the exact series is 1/(1 - cells/t) independent of the cutoff
        w = wedge_of_spheres([3, 4, 4, 6])
        p = hilton_milnor(w, 8)
        assert p.series == ONE / sub(1, gs([0, 0, 1, 2, 0, 1]))

    @settings(max_examples=60, deadline=None)
    @given(half_smash_x(), st.integers(8, 20))
    def test_closed_form_is_the_operator_series(self, x, cutoff):
        # cells t x: a finite wedge, or t times a projective fibre's fraction
        cells = T * x.reduced
        p = hilton_milnor(SphereWedge(CellSeries(cells)), cutoff)
        if cells.is_zero():
            assert p.is_trivial()
            return
        assert p.series == ONE / sub(1, GradedSeries(cells.num[1:], cells.den))
        assert sub(T, cells) * p.series == T  # (1 - cells/t) P = 1, times t

    def test_canonicalization_soundness(self):
        # Omega S^n = S^(n-1) x Omega S^(2n-1) at the level of series
        for n in (2, 4, 8):
            lhs = geometric(n - 1)
            rhs = add(GradedSeries.monomial(n - 1), 1) * geometric(2 * n - 2)
            assert lhs == rhs


class TestLoopHalfSmash:
    def test_trivial_x(self):
        y = hilton_milnor(wedge_of_spheres([3]))
        assert loop_half_smash(POINT, y) == y

    def test_trivial_y(self):
        assert loop_half_smash(CIRCLE, PProduct.trivial()).is_trivial()

    def test_circle_on_loop_s3(self):
        y = hilton_milnor(wedge_of_spheres([3]))
        p = loop_half_smash(CIRCLE, y)
        # series (1/(1 - t^3/(1-t^2))) * 1/(1-t^2), composed independently
        join_part = ONE / sub(1, gs([0, 0, 0, 1], [1, 0, -1]))
        assert p.series == join_part * geometric(2)
        assert multiplicity(p, loop_sphere(3)) == 1
        assert multiplicity(p, sphere(3)) == 1  # Omega S^4 partner, canonicalized

    @settings(max_examples=60, deadline=None)
    @given(half_smash_x(), half_smash_y())
    def test_closed_form_matches_composition(self, x, y):
        composed = pproduct_mul(hilton_milnor(join_cells(x, reduced_cells(y)), y.cutoff), y)
        p = loop_half_smash(x, y)
        assert p.series == composed.series
        assert p.factors == composed.factors


class TestPorter:
    def test_single_summand(self):
        p = hilton_milnor(wedge_of_spheres([5]))
        assert porter_loop_wedge([p]) == p

    def test_trivial_summand_dropped(self):
        s3 = hilton_milnor(wedge_of_spheres([3]))
        with_trivial = porter_loop_wedge([s3, PProduct.trivial()])
        assert with_trivial.series == s3.series
        assert with_trivial.factors == s3.factors

    def test_path_independence_for_two_s3(self):
        s3 = hilton_milnor(wedge_of_spheres([3]))
        direct = hilton_milnor(wedge_of_spheres([3, 3]))
        via = porter_loop_wedge([s3, s3])
        assert direct.series == gs([1], [1, 0, -2])
        assert via.series == direct.series
        assert via.factors == direct.factors

    def test_residual_subset_sum_matches_shortcut(self):
        rng = Random(2)
        for _ in range(10):
            summands = [random_canonical_product(rng, 12) for _ in range(rng.randint(2, 4))]
            direct = subset_residual_cells(summands)
            series = [p.series for p in summands]
            total = GradedSeries.one()
            for s in series:
                total = total * s
            cross = GradedSeries.zero()
            for i, s_i in enumerate(series):
                rest = GradedSeries.one()
                for j, s_j in enumerate(series):
                    if j != i:
                        rest = rest * s_j
                cross = add(cross, sub(s_i, 1) * rest)
            shortcut = GradedSeries.monomial(1) * add(sub(cross, total), 1)
            assert direct == shortcut
        # 3 and 4 summands, one of them a fraction that is not 1/polynomial
        whole = hilton_milnor(wedge_of_spheres([3, 3, 4]), 12)
        fraction = divide_products(whole, hilton_milnor(wedge_of_spheres([3]), 12))
        assert fraction.series.num != (1,) and fraction.series.den != (1,)
        for size in (3, 4):
            for _ in range(4):
                summands = [random_canonical_product(rng, 12) for _ in range(size - 1)]
                summands.insert(rng.randint(0, size - 1), fraction)
                direct = subset_residual_cells(summands)
                expected = hilton_milnor(SphereWedge(CellSeries(direct)), 12)
                for p in summands:
                    expected = pproduct_mul(expected, p)
                via = porter_loop_wedge(summands)
                assert via.series == expected.series
                assert via.factors == expected.factors

    def test_closed_form_matches_operator_reference(self):
        # 2 to 4 summands; in half the cases one is a fraction that is not
        # 1/polynomial, a quotient as divide_products hands it over
        whole = hilton_milnor(wedge_of_spheres([3, 3, 4]), 12)
        fraction = divide_products(whole, hilton_milnor(wedge_of_spheres([3]), 12))
        assert fraction.series.num != (1,) and fraction.series.den != (1,)
        rng = Random(31)
        for size in (2, 3, 4):
            for trial in range(8):
                summands = [random_canonical_product(rng, 12) for _ in range(size)]
                if trial % 2:
                    summands[rng.randrange(size)] = fraction
                via = porter_loop_wedge(summands)
                reference = operator_porter(summands)
                assert via.series == reference.series
                assert via.factors == reference.factors
                # the iterated 1/P(Omega(X v Y)) = 1/P(Omega X) + 1/P(Omega Y) - 1
                reciprocals = GradedSeries((1 - size,))
                for p in summands:
                    reciprocals = add(reciprocals, ONE / p.series)
                assert ONE / via.series == reciprocals

    def test_path_independence_random_wedges(self):
        rng = Random(9)
        for _ in range(8):
            dims = [rng.randint(2, 6) for _ in range(rng.randint(2, 4))]
            split = rng.randint(1, len(dims) - 1)
            direct = hilton_milnor(wedge_of_spheres(dims), 12)
            left = hilton_milnor(wedge_of_spheres(dims[:split]), 12)
            right = hilton_milnor(wedge_of_spheres(dims[split:]), 12)
            via = porter_loop_wedge([left, right])
            assert via.series == direct.series
            assert via.factors == direct.factors


canonical_products = st.integers(0, 2**32 - 1).map(
    lambda seed: random_canonical_product(Random(seed), 12)
)


class TestFactorIdentities:
    """Each step's P-form reads its factors off the series it builds; they
    are the union of the factors of the pieces the splitting puts together."""

    @settings(max_examples=60, deadline=None)
    @given(canonical_products, canonical_products)
    def test_product_has_the_factors_of_both(self, a, b):
        assert pproduct_mul(a, b).factors == merged_factors(a.factors, b.factors)

    @settings(max_examples=60, deadline=None)
    @given(half_smash_x(), canonical_products)
    def test_half_smash_has_the_factors_of_the_join_and_omega_y(self, x, y):
        join = hilton_milnor(join_cells(x, reduced_cells(y)), y.cutoff)
        assert loop_half_smash(x, y).factors == merged_factors(join.factors, y.factors)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(canonical_products, min_size=2, max_size=4))
    def test_porter_has_the_factors_of_the_residual_and_the_summands(self, summands):
        residual = hilton_milnor(SphereWedge(CellSeries(subset_residual_cells(summands))), 12)
        expected = merged_factors(residual.factors, *(p.factors for p in summands))
        assert porter_loop_wedge(summands).factors == expected


class TestGreedy:
    def test_two_loop_s3(self):
        g2 = geometric(2)
        p = greedy_factorize(g2 * g2, 10)
        assert p.factors == ((loop_sphere(3), 2),)

    def test_circle_times_loop_s3(self):
        p = greedy_factorize(gs([1], [1, -1]), 10)
        assert p.factors == ((sphere(1), 1), (loop_sphere(3), 1))

    def test_constant_one(self):
        assert greedy_factorize(GradedSeries.one(), 10).factors == ()

    def test_round_trip(self):
        rng = Random(13)
        for _ in range(100):
            p = random_canonical_product(rng, 15)
            assert greedy_factorize(p.series, 15).factors == p.factors
        for _ in range(5):
            p = random_deep_product(rng, 120)
            assert greedy_factorize(p.series, 120).factors == p.factors

    def test_power_sums_match_convolution_reference(self):
        # Newton's identity on the numerator and the denominator, against
        # t s'/s as the convolution of n c_n with the expansion of 1/s,
        # through D = 100
        rng = Random(17)
        for trial in range(8):
            s = random_deep_product(rng, 100).series
            if trial % 2:  # a factor 1 + t^j with j not 1, 3, 7: not canonical
                s = s * add(1, GradedSeries.monomial(rng.choice([2, 5, 6, 9, 40])))
            counts = convolution_bottom_counts(s, 100, spheres=True)
            negative = [d for d, c in enumerate(counts) if c < 0]
            if negative:
                with pytest.raises(NotCanonicalP, match=f"at bottom degree {negative[0]}$"):
                    greedy_factorize(s, 100)
            else:
                expected = tuple((d, c) for d, c in enumerate(counts) if c)
                assert greedy_factorize(s, 100).factors == expected
        letters = [gs([0, 2]), gs([0, 1, 0, 3]), gs([0, 0, 1], [1, 0, -1]), gs([0, 1, 1, 1])]
        for f in letters:
            counts = convolution_bottom_counts(ONE / sub(1, f), 100, spheres=False)
            assert lyndon_counts(f, 100) == {n: c for n, c in enumerate(counts) if c}

    def test_rejects_negative(self):
        with pytest.raises(NotCanonicalP):
            greedy_factorize(gs([1, 0, -1]), 10)

    def test_rejects_non_canonical_residual(self):
        # 1 + t^2 alone is not a product of canonical factor series
        with pytest.raises(NotCanonicalP):
            greedy_factorize(gs([1, 0, 1]), 10)


class TestDivide:
    def test_divide_off_one_factor(self):
        big = product_of([(loop_sphere(3), 2)])
        small = product_of([(loop_sphere(3), 1)])
        assert divide_products(big, small).factors == ((loop_sphere(3), 1),)

    def test_divide_by_trivial(self):
        big = product_of([(sphere(3), 1)])
        assert divide_products(big, PProduct.trivial()) == big

    def test_equal_forms_as_different_fractions_divide_to_trivial(self):
        # Omega S^2 as 1/(1 - t) and as (1 + t)/(1 - t^2): the quotient is
        # (1 - t^2)/(1 - t^2), kept as that fraction, and still the series 1
        big = greedy_factorize(gs([1], [1, -1]), 12)
        small = greedy_factorize(gs([1, 1], [1, 0, -1]), 12)
        assert big.series.den != small.series.den
        quotient = divide_products(big, small)
        assert quotient.is_trivial()
        assert quotient.factors == ()

    def test_random_recovery(self):
        rng = Random(21)
        for _ in range(100):
            p = random_canonical_product(rng, 15)
            q = random_canonical_product(rng, 15)
            assert divide_products(pproduct_mul(p, q), p).factors == q.factors

    def test_not_a_divisor(self):
        big = product_of([(sphere(1), 1)])
        small = product_of([(loop_sphere(3), 1)])
        with pytest.raises(NotCanonicalP):
            divide_products(big, small)


def test_cell_series_polynomial_checked_at_every_degree():
    # negative only in degree 25, beyond the working degree
    with pytest.raises(ValueError):
        CellSeries(sub(T, GradedSeries.monomial(25)))
    CellSeries(LOOP_S3_CELLS.reduced)  # a fraction: checked through degree 20


def test_fractions_stay_short(monkeypatch):
    """No polynomial product in a deep recursion has long operands: the
    half-smash and Porter series are built without repeated denominators."""
    longest = [0]
    poly_mul = series.poly_mul

    def measured(a, b):
        longest[0] = max(longest[0], len(a), len(b))
        return poly_mul(a, b)

    monkeypatch.setattr(series, "poly_mul", measured)
    monkeypatch.setattr(homotopy, "poly_mul", measured)
    c16 = validate_complex([[i, i % 16 + 1] for i in range(1, 17)], 16)
    _, trace = decompose_loop(c16, PairSpec.moment_angle(16), 20)
    assert check_trace(trace, FlagSkeleton.of(c16), PairSpec.moment_angle(16), 20) == []
    assert 0 < longest[0] <= 80


def test_reduced_cells_of_product():
    p = product_of([(sphere(3), 1), (loop_sphere(5), 1)])
    cells = reduced_cells(p)
    assert cells.reduced == sub(gs([1, 0, 0, 1]) * geometric(4), 1)


def test_pproduct_serialization_round_trip():
    p = product_of([(sphere(1), 2), (loop_sphere(6), 1)], 12)
    assert product_from_doc(p.to_doc()) == p
