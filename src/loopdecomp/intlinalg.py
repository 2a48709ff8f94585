"""Integer linear algebra: idempotent matrix splittings and certificates.

An idempotent A in M_n(Z) splits Z^n as null space plus column space; the
split is computed from a single Hermite normal form of A^T with its
unimodular transformation, so every basis is exact and the concatenated
basis matrix carries a determinant +-1 certificate.  No rational
arithmetic is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


class NotIdempotent(ValueError):
    """Matrix with A*A != A passed where an idempotent is required."""


class ZeroVector(ValueError):
    """The zero vector has no gcd certificate."""


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a: Matrix, x) -> list[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def hermite_normal_form(rows: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style HNF with transform: returns (H, U) with U @ rows = H,
    U unimodular, H in row echelon form with positive pivots and entries
    above each pivot reduced."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    h = [list(r) for r in rows]
    u = identity(m)
    pivot = 0
    for col in range(n):
        nz = [i for i in range(pivot, m) if h[i][col] != 0]
        if not nz:
            continue
        if nz[0] != pivot:
            h[pivot], h[nz[0]] = h[nz[0]], h[pivot]
            u[pivot], u[nz[0]] = u[nz[0]], u[pivot]
        for row in nz[1:]:
            a, b = h[pivot][col], h[row][col]
            g, s, t = egcd(a, b)
            p, q = a // g, b // g
            h[pivot], h[row] = (
                [s * x + t * y for x, y in zip(h[pivot], h[row])],
                [-q * x + p * y for x, y in zip(h[pivot], h[row])],
            )
            u[pivot], u[row] = (
                [s * x + t * y for x, y in zip(u[pivot], u[row])],
                [-q * x + p * y for x, y in zip(u[pivot], u[row])],
            )
        if h[pivot][col] < 0:
            h[pivot] = [-x for x in h[pivot]]
            u[pivot] = [-x for x in u[pivot]]
        for r in range(pivot):
            q = h[r][col] // h[pivot][col]
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot])]
        pivot += 1
    return h, u


def determinant(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_invariant_factors(m: Matrix) -> list[int]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    factors = []
    top = 0
    while top < min(rows, cols):
        if all(a[i][j] == 0 for i in range(top, rows) for j in range(top, cols)):
            break
        # move a minimal nonzero entry to the corner
        i0, j0 = min(
            (
                (i, j)
                for i in range(top, rows)
                for j in range(top, cols)
                if a[i][j] != 0
            ),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        p = a[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = a[i][top] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = a[top][j] // p
            if q:
                for i in range(rows):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        # ensure divisibility of the remaining block
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        factors.append(abs(p))
        top += 1
    return factors


@dataclass(frozen=True)
class IdempotentSplit:
    """Bases of N(A) and C(A) whose concatenation is unimodular."""

    null_basis: tuple[tuple[int, ...], ...]
    col_basis: tuple[tuple[int, ...], ...]
    determinant: int


def idempotent_split(a: Matrix) -> IdempotentSplit:
    """Split Z^n as N(A) + C(A) for idempotent A, with certificates.

    Nonzero rows of the HNF of A^T span the column lattice of A; rows of
    the transform at zero rows span the kernel.  Idempotency makes each
    column-basis vector a fixed point, which is asserted.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if mat_mul(a, a) != [list(row) for row in a]:
        raise NotIdempotent("A*A != A")
    h, u = hermite_normal_form(transpose(a))
    col_basis = [tuple(row) for row in h if any(row)]
    null_basis = [tuple(u[i]) for i in range(n) if not any(h[i])]
    for y in col_basis:
        if mat_vec(a, list(y)) != list(y):
            raise AssertionError("column basis vector not fixed by A")
    for x in null_basis:
        if any(mat_vec(a, list(x))):
            raise AssertionError("null basis vector not annihilated by A")
    concat = [[*pair] for pair in zip(*(list(null_basis) + list(col_basis)))] if n else []
    det = determinant(concat) if n else 1
    if det not in (1, -1):
        raise AssertionError(f"basis concatenation has determinant {det}")
    return IdempotentSplit(tuple(null_basis), tuple(col_basis), det)


@dataclass(frozen=True)
class BezoutCertificate:
    gcd: int
    coefficients: tuple[int, ...]
    primitive: bool
    odd_component: bool | None


def primitive_bezout(v) -> BezoutCertificate:
    """gcd of the nonzero components with Bezout coefficients re-verified.

    When the gcd is 1 the certificate also reports the parity observation
    that some component must be odd.
    """
    v = list(v)
    if not v or not any(v):
        raise ZeroVector("need a nonzero vector")
    g = v[0]
    coeffs = [1]
    for comp in v[1:]:
        g2, s, t = egcd(g, comp)
        coeffs = [c * s for c in coeffs] + [t]
        g = g2
    if g < 0:
        g = -g
        coeffs = [-c for c in coeffs]
    if sum(c * x for c, x in zip(coeffs, v)) != g:
        raise AssertionError("Bezout certificate failed to re-verify")
    primitive = g == 1
    odd = any(x % 2 for x in v) if primitive else None
    return BezoutCertificate(g, tuple(coeffs), primitive, odd)


def random_unimodular(n: int, rng: Random, shears: int | None = None) -> tuple[Matrix, Matrix]:
    """Random unimodular U with its exact inverse, built from bounded shears."""
    u = identity(n)
    inv = identity(n)
    if n < 2:
        return u, inv
    for _ in range(shears if shears is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        for row in range(n):
            u[row][j] += k * u[row][i]
        # (E_ij(k))^-1 = E_ij(-k), applied on the left of the inverse
        inv[i] = [x - k * y for x, y in zip(inv[i], inv[j])]
    return u, inv


def random_idempotent(n: int, rng: Random) -> Matrix:
    """Random idempotent as U diag(0/1) U^-1; idempotency by construction."""
    u, inv = random_unimodular(n, rng)
    diag = [rng.randint(0, 1) for _ in range(n)]
    scaled = [[u[i][j] * diag[j] for j in range(n)] for i in range(n)]
    return mat_mul(scaled, inv)
