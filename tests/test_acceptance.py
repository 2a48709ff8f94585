"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager
from random import Random

from loopdecomp.complexes import FlagSkeleton, validate_complex
from loopdecomp.engine import PairSpec, check_trace, decompose_loop, skeleton_simplex_wedge
from loopdecomp.homotopy import (
    NotCanonicalP,
    divide_products,
    greedy_factorize,
    hilton_milnor,
    porter_loop_wedge,
    pproduct_mul,
)
from loopdecomp.oracle import hochster_table, predicted_loop_series
from loopdecomp.series import GradedSeries

from helpers import (
    add,
    forced_split,
    loop_sphere,
    neighbors_and_domination,
    random_canonical_product,
    wedge_of_spheres,
)
from randomgen import (
    random_chordal_flag_complex,
    random_flag_complex,
    random_flag_skeleton,
    relabel,
    skeleton,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def square():
    return validate_complex([[1, 2], [2, 3], [3, 4], [1, 4]], 4)


def c5():
    return validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)


def test_criterion_1_square_boundary_anchor():
    with criterion(1, "square boundary gives Omega S^3 x Omega S^3"):
        start = time.monotonic()
        product, _ = decompose_loop(square(), PairSpec.moment_angle(4), 20)
        elapsed = time.monotonic() - start
        assert product.factors == ((loop_sphere(3), 2),)
        assert product.series == GradedSeries((1,), (1, 0, -2, 0, 1))
        assert elapsed < 1.0


def test_criterion_2_chordal_flag_oracle_equality():
    with criterion(2, "engine equals homology prediction on chordal flags"):
        start = time.monotonic()
        cases = [
            validate_complex([[1, 2], [2, 3]], 3),
            validate_complex([[1, 2], [2, 3], [3, 4]], 4),
        ]
        rng = Random(2024)
        while len(cases) < 22:
            K = random_chordal_flag_complex(rng.randint(2, 7), rng)
            cases.append(K)
        for K in cases:
            product, _ = decompose_loop(K, PairSpec.moment_angle(K.m), 20)
            predicted = predicted_loop_series(K)
            assert product.series.expand(20) == predicted.expand(20), K.facets
        assert time.monotonic() - start < 30.0


def test_criterion_3_skeleton_wedge_vs_hochster():
    with criterion(3, "simplex-skeleton wedge ranks match Hochster tables"):
        start = time.monotonic()
        for m in range(1, 7):
            full = validate_complex([list(range(1, m + 1))], m)
            for k in range(m):
                K = skeleton(full, k)
                wedge = skeleton_simplex_wedge(m, k, PairSpec.moment_angle(m))
                bound = m + K.dim() + 2
                ranks = {
                    d: c for d, c in enumerate(wedge.cells.reduced.expand(bound)) if c
                }
                assert ranks == hochster_table(K), (m, k)
        assert time.monotonic() - start < 10.0


def test_criterion_4_path_independence():
    with criterion(4, "output independent of split vertex and labeling"):
        start = time.monotonic()
        rng = Random(4)
        inputs = [square(), c5()]
        while len(inputs) < 12:
            inputs.append(random_flag_skeleton(rng.randint(2, 6), rng))
        for K in inputs:
            pairs = PairSpec.moment_angle(K.m)
            base, _ = decompose_loop(K, pairs, 20)
            info = neighbors_and_domination(K)
            for v in (u for u, rec in info.items() if not rec.dominating):
                # the split at v rebuilds the listed factors and series
                root = forced_split(K, pairs, v)
                assert check_trace(root, FlagSkeleton.of(K), pairs, 20) == []
            for _ in range(5):
                perm = list(range(1, K.m + 1))
                rng.shuffle(perm)
                moved = relabel(K, {i + 1: perm[i] for i in range(K.m)})
                alt, _ = decompose_loop(moved, pairs, 20)
                assert alt.factors == base.factors and alt.series == base.series
        assert time.monotonic() - start < 60.0


def test_criterion_5_hilton_milnor_vs_porter():
    with criterion(5, "Omega(S^3 v S^3) agrees along both pipelines"):
        direct = hilton_milnor(wedge_of_spheres([3, 3]), 20)
        s3 = hilton_milnor(wedge_of_spheres([3]), 20)
        via = porter_loop_wedge([s3, s3])
        expected = GradedSeries((1,), (1, 0, -2))
        assert direct.series == expected
        assert via.series == expected
        assert direct.series.expand(20) == via.series.expand(20)
        assert direct.factors == via.factors


def test_criterion_6_lyndon_counts_vs_enumeration():
    from helpers import graded_lyndon_counts

    with criterion(6, "basic-product counts match Lyndon enumeration"):
        from loopdecomp.homotopy import lyndon_counts

        binary = lyndon_counts(GradedSeries((0, 2)), 6)
        assert [binary.get(n, 0) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        alphabets = [
            degrees
            for size in range(1, 4)
            for degrees in itertools.combinations_with_replacement((1, 2, 3), size)
        ]
        for degrees in alphabets:
            f = GradedSeries.zero()
            for d in degrees:
                f = add(f, GradedSeries.monomial(d))
            assert lyndon_counts(f, 12) == graded_lyndon_counts(list(degrees), 12), degrees


def test_criterion_7_factorization_round_trip():
    with criterion(7, "greedy factorization recovers 200 random products"):
        rng = Random(7)
        for _ in range(200):
            p = random_canonical_product(rng, 15)
            assert greedy_factorize(p.series, 15).factors == p.factors


def test_criterion_8_division_recovers_cofactor():
    with criterion(8, "divide_products(P x Q, P) = Q on 200 random pairs"):
        rng = Random(8)
        for _ in range(200):
            p = random_canonical_product(rng, 15)
            q = random_canonical_product(rng, 15)
            recovered = divide_products(pproduct_mul(p, q), p)
            assert recovered.factors == q.factors
            assert recovered.series == q.series


# criterion 9 (integer idempotent splittings) has no test: the library no
# longer computes them, and the other criteria keep their numbers


def test_criterion_10_membership_witnessed_constructively():
    with criterion(10, "engine terminates canonically on 50 random flag complexes"):
        rng = Random(10)
        for _ in range(50):
            flag = random_flag_complex(rng.randint(2, 7), rng)
            for k in range(flag.dim() + 1):
                K = skeleton(flag, k)
                try:
                    _, trace = decompose_loop(K, PairSpec.moment_angle(K.m), 20)
                except NotCanonicalP as exc:
                    raise AssertionError(f"engine failed on {K.facets}: {exc}")
                G, pairs = FlagSkeleton.of(K), PairSpec.moment_angle(K.m)
                assert check_trace(trace, G, pairs, 20) == [], K.facets
