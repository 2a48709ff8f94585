from random import Random

import pytest

from loopdecomp.intlinalg import (
    NotIdempotent,
    ZeroVector,
    determinant,
    hermite_normal_form,
    idempotent_split,
    mat_mul,
    mat_vec,
    primitive_bezout,
    random_idempotent,
    random_unimodular,
    smith_invariant_factors,
)

from helpers import verify_column_fixed


class TestHermite:
    def test_transform_is_exact(self):
        m = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert determinant(u) in (1, -1)

    def test_echelon_shape(self):
        h, _ = hermite_normal_form([[2, 4], [4, 8]])
        assert h == [[2, 4], [0, 0]]

    def test_pivots_positive_and_reduced(self):
        h, u = hermite_normal_form([[0, -3], [5, 2]])
        assert mat_mul(u, [[0, -3], [5, 2]]) == h
        pivots = [next(v for v in row if v) for row in h if any(row)]
        assert all(p > 0 for p in pivots)


class TestDeterminant:
    def test_small(self):
        assert determinant([[1, 2], [3, 4]]) == -2
        assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert determinant([[1, 1], [1, 1]]) == 0

    def test_against_permanent_free_expansion(self):
        rng = Random(1)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == _cofactor_det(m)


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


class TestSmith:
    def test_known(self):
        assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
        assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
        assert smith_invariant_factors([[0, 0], [0, 0]]) == []

    def test_product_of_factors_is_det(self):
        rng = Random(2)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = determinant(m)
            factors = smith_invariant_factors(m)
            prod = 1
            for f in factors:
                prod *= f
            if d != 0:
                assert prod == abs(d)
                assert len(factors) == n


class TestIdempotentSplit:
    def test_zero_matrix(self):
        split = idempotent_split([[0, 0], [0, 0]])
        assert split.col_basis == ()
        assert sorted(split.null_basis) == [(0, 1), (1, 0)]

    def test_identity(self):
        split = idempotent_split([[1, 0], [0, 1]])
        assert split.null_basis == ()
        assert sorted(split.col_basis) == [(0, 1), (1, 0)]

    def test_spec_example(self):
        a = [[1, 1], [0, 0]]
        split = idempotent_split(a)
        assert len(split.col_basis) == 1 and len(split.null_basis) == 1
        (y,) = split.col_basis
        (x,) = split.null_basis
        assert mat_vec(a, list(y)) == list(y)
        assert mat_vec(a, list(x)) == [0, 0]
        assert split.determinant in (1, -1)

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            idempotent_split([[2, 0], [0, 0]])

    def test_randomized_suite(self):
        rng = Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = random_idempotent(n, rng)
            assert mat_mul(a, a) == a
            split = idempotent_split(a)
            assert len(split.null_basis) + len(split.col_basis) == n
            assert split.determinant in (1, -1)
            for y in split.col_basis:
                assert mat_vec(a, list(y)) == list(y)
            for x in split.null_basis:
                assert mat_vec(a, list(x)) == [0] * n


class TestVerifyColumnFixed:
    def test_spec_examples(self):
        a = [[1, 1], [0, 0]]
        assert verify_column_fixed(a, [3, 0])
        assert not verify_column_fixed(a, [0, 1])
        assert verify_column_fixed([[1, 0], [0, 1]], [5, -2])

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            verify_column_fixed([[1, 1], [1, 1]], [1, 1])

    def test_matches_fixed_point_property(self):
        rng = Random(9)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = random_idempotent(n, rng)
            x = [rng.randint(-6, 6) for _ in range(n)]
            assert verify_column_fixed(a, x) == (mat_vec(a, x) == x)


class TestBezout:
    def test_two_components(self):
        cert = primitive_bezout([2, 3])
        assert cert.gcd == 1 and cert.coefficients == (-1, 1)
        assert cert.primitive and cert.odd_component

    def test_unit_vector(self):
        cert = primitive_bezout([1, 0, 0])
        assert cert.gcd == 1 and cert.coefficients == (1, 0, 0)

    def test_common_factor(self):
        cert = primitive_bezout([4, 6])
        assert cert.gcd == 2 and cert.coefficients == (-1, 1)
        assert not cert.primitive and cert.odd_component is None

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitive_bezout([0, 0])

    def test_random_certificates(self):
        rng = Random(3)
        for _ in range(200):
            n = rng.randint(1, 6)
            v = [rng.randint(-20, 20) for _ in range(n)]
            if not any(v):
                continue
            cert = primitive_bezout(v)
            assert sum(c * x for c, x in zip(cert.coefficients, v)) == cert.gcd
            assert cert.gcd > 0
            if cert.primitive:
                # a primitive vector always has an odd component
                assert cert.odd_component


def test_random_unimodular_inverse():
    rng = Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        u, inv = random_unimodular(n, rng)
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(u, inv) == eye
        assert mat_mul(inv, u) == eye
        assert determinant(u) in (1, -1)
