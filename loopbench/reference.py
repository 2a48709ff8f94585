"""Correctness reference that does not use loopdecomp.

For a flag complex K the loop series has a closed form (Panov-Ray for the
moment-angle case; it holds for every pair whose A_i has reduced series a_i):

    P(Omega (CA,A)^K) = 1 / sum_{sigma in K} prod_{i in sigma} (-a_i)
                                             prod_{i not in sigma} (1 + a_i)

with sigma running over all faces, the empty face included.  The formula
fails for k-skeleta that are not flag, so those items are checked by
relabelling instead (see run.py).  Every output is also checked for
internal consistency: the emitted series expands to the emitted expansion,
and the listed factors multiply out to it through the cutoff.

All arithmetic is on integer power series truncated at degree D.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb


def mul(a, b, degree: int) -> list[int]:
    out = [0] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                out[i + j] += x * y
    return out


def inverse(a, degree: int) -> list[int]:
    """1/a for a with constant term 1."""
    if a[0] != 1:
        raise ValueError("constant term must be 1")
    out = [1] + [0] * degree
    for n in range(1, degree + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1))
    return out


def faces(facets) -> set[tuple[int, ...]]:
    """Downward closure of the facets, empty face included."""
    out = {()}
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            out.update(combinations(f, r))
    return out


def reduced_series(dims, degree: int) -> list[int]:
    """Reduced series of A_i when Sigma A_i is the wedge of S^d, d in dims."""
    out = [0] * (degree + 1)
    for d in dims:
        if d - 1 <= degree:
            out[d - 1] += 1
    return out


def flag_loop_expansion(m: int, facets, dims, degree: int) -> list[int]:
    """Expansion of the loop series of a flag complex through the degree.

    The face sum factors as prod (1+a_i) * sum_sigma prod_{i in sigma} z_i
    with z_i = -a_i / (1+a_i); faces are grouped by how many vertices of
    each vertex type they hold, so each distinct monomial is built once.
    """
    types = sorted({tuple(d) for d in dims})
    type_of = {v: types.index(tuple(dims[v - 1])) for v in range(1, m + 1)}
    a = [reduced_series(t, degree) for t in types]
    one_plus = [[1 + c if i == 0 else c for i, c in enumerate(s)] for s in a]
    z = [mul([-c for c in s], inverse(p, degree), degree) for s, p in zip(a, one_plus)]

    shapes = Counter()
    for face in faces(facets):
        shape = [0] * len(types)
        for v in face:
            shape[type_of[v]] += 1
        shapes[tuple(shape)] += 1

    powers = [[[1] + [0] * degree] for _ in types]
    face_sum = [0] * (degree + 1)
    for shape, count in shapes.items():
        term = [1] + [0] * degree
        for t, e in enumerate(shape):
            while len(powers[t]) <= e:
                powers[t].append(mul(powers[t][-1], z[t], degree))
            term = mul(term, powers[t][e], degree)
        face_sum = [x + count * y for x, y in zip(face_sum, term)]
    for v in range(1, m + 1):
        face_sum = mul(face_sum, one_plus[type_of[v]], degree)
    return inverse(face_sum, degree)


def series_expansion(num, den, degree: int) -> list[int]:
    """Expansion of num/den for den with constant term 1."""
    if den[0] != 1:
        raise ValueError("denominator must start with 1")
    num = list(num) + [0] * (degree + 1)
    out = []
    for n in range(degree + 1):
        out.append(num[n] - sum(den[k] * out[n - k] for k in range(1, min(n, len(den) - 1) + 1)))
    return out


def factor_expansion(factors, degree: int) -> list[int]:
    """Product of the listed factors' Poincare series through the degree."""
    out = [1] + [0] * degree
    for f in factors:
        dim, mult = f["dim"], f["mult"]
        if f["kind"] == "sphere":  # (1 + t^dim)^mult
            step, coeff = dim, lambda j: comb(mult, j)
        elif f["kind"] == "loop_sphere":  # (1 - t^(dim-1))^(-mult)
            step, coeff = dim - 1, lambda j: comb(mult + j - 1, j)
        else:
            raise ValueError(f"unknown factor kind {f['kind']!r}")
        power = [0] * (degree + 1)
        for j in range(degree // step + 1):
            power[j * step] = coeff(j)
        out = mul(out, power, degree)
    return out


def check_product(doc: dict, item: dict) -> list[str]:
    """Problems with one decomposition (factors, series, expansion) of an item."""
    degree = item["cutoff"]
    expansion = doc["expansion"]
    problems = []
    if len(expansion) != degree + 1:
        problems.append(f"expansion has {len(expansion)} terms, want {degree + 1}")
        return problems
    if series_expansion(doc["series"]["num"], doc["series"]["den"], degree) != expansion:
        problems.append("series does not expand to the expansion")
    if factor_expansion(doc["factors"], degree) != expansion:
        problems.append("factors do not multiply out to the expansion")
    if item["flag"]:
        want = flag_loop_expansion(item["m"], item["facets"], item["dims"], degree)
        if want != expansion:
            first = next(i for i, (x, y) in enumerate(zip(want, expansion)) if x != y)
            problems.append(f"expansion differs from the flag formula at degree {first}")
    return problems
