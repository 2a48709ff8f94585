"""Independent oracles and shared generators for the test suite.

Everything here is deliberately separate from the library code paths it
checks: Lyndon words come from Duval's generation algorithm, necklace
counts from the Moebius formula, convolution is done directly on lists,
and a complex's faces are the closure of its facets as frozensets.  The
projective-pair presets, the general-pair (X, A) decomposition and
the other constructions below have no caller outside the tests.  So have
`add` and `sub`, the sum and difference of series, which the operator
chains need: a GradedSeries only multiplies, divides and compares.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from random import Random

from hypothesis import strategies as st

from loopdecomp.complexes import FlagSkeleton, classify_input, full_subcomplex, pushout_split
from loopdecomp import engine
from loopdecomp.engine import PairSpec, decompose_loop, trace_to_doc
from loopdecomp.homotopy import CellSeries, PProduct, SphereWedge, pproduct_mul
from loopdecomp.series import DEFAULT_DEGREE, GradedSeries, poly_add, poly_mul, poly_neg


def _series(x):
    """x as a series: an int is a constant."""
    return GradedSeries((x,)) if isinstance(x, int) else x


def add(a, b):
    """The sum of two series, cross-multiplied, or of two polynomials
    coefficient by coefficient; an int operand is a constant."""
    a, b = _series(a), _series(b)
    if a.den == b.den == (1,):
        return GradedSeries(poly_add(a.num, b.num))
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return GradedSeries(num, poly_mul(a.den, b.den))


def sub(a, b):
    """The difference a - b, as a plus the negated b; an int operand is a
    constant."""
    b = _series(b)
    return add(a, GradedSeries(poly_neg(b.num), b.den))


def convolve(a, b, degree):
    """Truncated product of coefficient lists, computed directly."""
    out = [0] * (degree + 1)
    for i, ca in enumerate(a[: degree + 1]):
        for j, cb in enumerate(b[: degree + 1 - i]):
            out[i + j] += ca * cb
    return out


def duval_lyndon_words(alphabet_size, max_len):
    """All Lyndon words over 0..alphabet_size-1 of length <= max_len."""
    words = []
    w = [0]
    while w:
        words.append(tuple(w))
        w = (w * (max_len // len(w) + 1))[:max_len]
        while w and w[-1] == alphabet_size - 1:
            w.pop()
        if w:
            w[-1] += 1
    return words


def graded_lyndon_counts(letter_degrees, max_degree):
    """Count Lyndon words by total degree for a graded alphabet.

    letter_degrees[i] is the degree of letter i; every letter has degree
    >= 1 so words of total degree <= max_degree have length <= max_degree.
    """
    counts = {}
    for word in duval_lyndon_words(len(letter_degrees), max_degree):
        degree = sum(letter_degrees[c] for c in word)
        if degree <= max_degree:
            counts[degree] = counts.get(degree, 0) + 1
    return counts


def moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_lyndon_count(q, n):
    """Number of Lyndon words of length n over q letters (Witt formula)."""
    total = sum(moebius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def is_lyndon(word):
    """Direct definition: strictly smaller than all proper rotations."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def has_chordless_long_cycle(adj):
    """Brute-force chordality check: look for an induced cycle of length >= 4."""
    vertices = sorted(adj)
    for size in range(4, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            sub = {v: adj[v] & set(subset) for v in subset}
            if all(len(sub[v]) == 2 for v in subset) and _is_single_cycle(sub):
                return True
    return False


def _is_single_cycle(adj):
    start = next(iter(adj))
    seen = {start}
    prev, current = None, start
    while True:
        nxt = [u for u in adj[current] if u != prev]
        if not nxt:
            return False
        prev, current = current, nxt[0]
        if current == start:
            return len(seen) == len(adj)
        if current in seen:
            return False
        seen.add(current)


def subset_residual_cells(summands):
    """Direct subset-sum form of the Porter residual cells, for cross-checks."""
    series = [p.series for p in summands]
    total = GradedSeries.zero()
    for size in range(2, len(series) + 1):
        for combo in itertools.combinations(series, size):
            term = GradedSeries((size - 1,))
            for s in combo:
                term = term * sub(s, 1)
            total = add(total, term)
    return GradedSeries.monomial(1) * total


def operator_porter(summands):
    """Porter's splitting by the operator chain, as the library built it
    before its closed form: R = sum 1/s_i - (n-1) as a fraction, and the
    series 1/R."""
    summands = list(summands)
    reciprocals = GradedSeries((1 - len(summands),))
    for p in summands:
        reciprocals = add(reciprocals, GradedSeries.one() / p.series)
    return PProduct(GradedSeries.one() / reciprocals, summands[0].cutoff)


def convolution_bottom_counts(s, degree, spheres):
    """The exponents of s's factorisation into one factor per bottom degree
    1..degree: power sums from t s'/s as the convolution of n c_n with the
    expansion of 1/s, then the divisor sweep (S^1, S^3, S^7 as 1 + t^d
    when `spheres` is set)."""
    reciprocal = (GradedSeries.one() / s).expand(degree)
    sums = convolve([n * c for n, c in enumerate(s.expand(degree))], reciprocal, degree)
    counts = [0] * (degree + 1)
    for d in range(1, degree + 1):
        c = counts[d] = sums[d] // d
        for j, n in enumerate(range(d, degree + 1, d)):
            sign = -1 if spheres and d in (1, 3, 7) and j % 2 else 1
            sums[n] -= sign * c * d
    return counts


@dataclass(frozen=True)
class VertexInfo:
    neighbors: frozenset[int]
    dominating: bool


def neighbors_and_domination(K):
    """Neighbours of each vertex of a SimplicialComplex, and whether the
    vertex is adjacent to all others."""
    rows = FlagSkeleton.of(K).adj
    return {
        v: VertexInfo(
            frozenset(u for u in range(1, K.m + 1) if row >> (u - 1) & 1),
            row.bit_count() == K.m - 1,
        )
        for v, row in enumerate(rows, 1)
    }


def forced_split(K, pairs, v):
    """A trace for K whose root is the pushout at v, which need not be the
    vertex the engine picks.  The root claims the engine's series for K;
    its children are the engine's nodes for the pieces of the split at v,
    so check_trace certifies the claim, and the factors listed for it, by
    rebuilding the root from them through the P-calculus."""
    _, trace = decompose_loop(K, pairs)
    memo, cones = {}, classify_input(K).flag
    children = [
        engine._decompose(piece, pairs.restrict(mask), memo, cones)
        for piece, mask in pushout_split(FlagSkeleton.of(K), v)
    ]
    return engine.TraceNode("pushout", trace.series, v, children)


@st.composite
def graph_and_k(draw, max_m=9):
    """(m, edges, k): a graph on 1..m of a random edge density, and a
    skeleton dimension k <= 4, so both flag complexes and proper skeleta
    of them are common."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    m, density = rng.randint(1, max_m), rng.random()
    pairs = itertools.combinations(range(1, m + 1), 2)
    return m, [e for e in pairs if rng.random() < density], rng.randint(0, 4)


def clique_faces(m, edges, k):
    """All cliques of at most k + 1 vertices, found by testing every subset."""
    edge_set = {frozenset(e) for e in edges}
    return [
        list(c)
        for size in range(1, min(k + 1, m) + 1)
        for c in itertools.combinations(range(1, m + 1), size)
        if all(frozenset(p) in edge_set for p in itertools.combinations(c, 2))
    ]


def closure(facets):
    """The nonempty faces of the complex with these facets, as frozensets."""
    return {
        frozenset(c)
        for f in facets
        for r in range(1, len(f) + 1)
        for c in itertools.combinations(f, r)
    }


def maximal_faces(faces):
    """The faces contained in no other, as sorted tuples in sorted order."""
    faces = {frozenset(f) for f in faces if f}
    return tuple(sorted(tuple(sorted(f)) for f in faces if not any(f < g for g in faces)))


def restricted_facets(facets, S):
    """The facets of the full subcomplex on S, relabelled 1..|S| by sorted
    order, from the closure: its faces within S, then the maximal ones."""
    index = {v: i for i, v in enumerate(sorted(S), 1)}
    keep = set(S)
    return maximal_faces({index[v] for v in f} for f in closure(facets) if f <= keep)


def graph_facets(graph):
    """The facets of the complex a FlagSkeleton stands for, in
    validate_complex's order: its maximal cliques of at most k + 1 vertices
    and the (k + 1)-subsets of the larger ones."""
    facets = set()
    for clique in graph.maximal_cliques():
        members = mask_vertices(clique)
        facets.update(itertools.combinations(members, min(len(members), graph.k + 1)))
    return tuple(sorted(facets))


def face_masks(faces):
    """Vertex masks (bit v - 1 for vertex v) of faces given as vertex sets."""
    return {sum(1 << (v - 1) for v in f) for f in faces}


def mask_vertices(mask):
    """The vertices of a vertex mask, ascending."""
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def derive_nodes(table, pairs):
    """Each node's (graph, cells) and the data the tree writer recorded for
    it, by id, for a `trace_to_doc` node table: derived from the root's
    graph and the pairs by the rules, as `check_trace` derives them."""
    nodes, root = table["nodes"], table["root"]
    graph = nodes[root]["graph"]
    adj = [0] * graph["m"]
    for a, b in graph["edges"]:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    derived = {root: (FlagSkeleton(tuple(adj), graph["k"]), pairs.cells)}
    data = {}
    for i in range(root, -1, -1):  # every parent has a larger id than its children
        graph, cells = derived[i]
        pieces, data[i] = _rule_inputs(nodes[i], graph, cells)
        for child, (piece, mask) in zip(nodes[i].get("children", []), pieces):
            derived.setdefault(child, (piece, tuple(cells[v - 1] for v in mask_vertices(mask))))
    return derived, data


def node_problems(trace, graph, pairs):
    """The (graph, pairs) that the rules derive for each node of an
    in-memory trace of the problem, by its position in unique_nodes."""
    derived, _ = derive_nodes(trace_to_doc(trace, graph), pairs)
    return [(piece, PairSpec(cells)) for piece, cells in (derived[i] for i in sorted(derived))]


def expand_trace(table, pairs):
    """The tree form of a `trace_to_doc` node table: each node written out
    under every parent, with its complex as {"m", "facets"} and the rule's
    inputs as `data`, both derived by `derive_nodes`.  This is the trace
    document of the tree writer the table replaced, which recorded them
    per node."""
    nodes = table["nodes"]
    derived, data = derive_nodes(table, pairs)
    trees = {}
    for i, node in enumerate(nodes):
        graph = derived[i][0]
        tree = {"rule": node["rule"], "complex": {"m": graph.m, "facets": graph_facets(graph)}}
        tree["series"] = node["series"]
        if "vertex" in node:
            tree["vertex"] = node["vertex"]
        if data[i]:
            tree["data"] = data[i]
        if "children" in node:
            tree["children"] = [trees[child] for child in node["children"]]
        trees[i] = tree
    return trees[table["root"]]


def _series_doc(s):
    num, den = s.to_pair()
    return {"num": num, "den": den}


def _rule_inputs(node, graph, cells):
    """The pieces a node's rule derives, as (graph, mask), and the data the
    tree writer recorded for it, in its key order."""
    rule, m = node["rule"], graph.m
    if rule == "simplex_skeleton":
        k = graph.simplex_skeleton_dim()
        return [], {"k": k, "vertex_cells": [_series_doc(c) for c in cells]}
    if rule == "cone":
        rest = [v for v in range(1, m + 1) if graph.adj[v - 1].bit_count() < m - 1]
        mask = sum(1 << (v - 1) for v in rest)
        return [(graph.induced(mask), mask)], {"rest_vertices": rest}
    if rule == "pushout":
        v = node["vertex"]
        pieces = pushout_split(graph, v)
        k1, k2, link = (mask_vertices(mask) for _, mask in pieces)
        a_prime = product_cells(cells[w - 1] for w in k2 if w not in link)
        return pieces, {
            "k1_vertices": k1,
            "l_vertices": link,
            "k2_vertices": k2,
            "l_empty": not link,
            "a_cells": _series_doc(cells[v - 1]),
            "a_prime_cells": _series_doc(a_prime),
        }
    return [], {}


def tuple_face_homology(K):
    """Reduced homology ranks over Q of K by degree, from boundary matrices
    on its faces as sorted tuples, each ranked by its own elimination over
    the rationals."""
    by_dim = {}
    for f in closure(K.facets):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    layers = [sorted(by_dim[d]) for d in range(len(by_dim))]
    boundary_ranks = [1]  # augmentation C_0 -> Z has rank 1
    for d in range(1, len(layers)):
        index = {f: i for i, f in enumerate(layers[d - 1])}
        matrix = [[Fraction(0)] * len(layers[d]) for _ in layers[d - 1]]
        for j, face in enumerate(layers[d]):
            for k in range(len(face)):
                matrix[index[face[:k] + face[k + 1 :]]][j] = Fraction((-1) ** k)
        boundary_ranks.append(_rational_rank(matrix))
    boundary_ranks.append(0)
    ranks = {}
    for d, faces in enumerate(layers):
        r = len(faces) - boundary_ranks[d] - boundary_ranks[d + 1]
        if r:
            ranks[d] = r
    return ranks


def subset_homology_table(K):
    """The Hochster table of K summed subset by subset: each full
    subcomplex's tuple_face_homology, shifted by |S| + 1."""
    table = Counter()
    for size in range(1, K.m + 1):
        for subset in itertools.combinations(range(1, K.m + 1), size):
            ranks = tuple_face_homology(full_subcomplex(K, subset))
            table.update({j + size + 1: r for j, r in ranks.items()})
    return dict(table)


def _rational_rank(matrix):
    """Rank of a matrix of Fractions by Gaussian elimination, in place."""
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            ratio = matrix[i][col] / matrix[rank][col]
            if ratio:
                matrix[i] = [x - ratio * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def suspension_splitting(p):
    """Suspension of a product of spheres and loop spaces, as a sphere wedge:
    cells t * (series - 1)."""
    return SphereWedge(CellSeries(GradedSeries.monomial(1) * sub(p.series, 1)))


_LOOP_DIM_CHOICES = [d for d in range(3, 17) if d not in (4, 8)]


def random_canonical_factors(rng, max_bottom=15):
    factors: dict[int, int] = {}
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.4:
            f = sphere(rng.choice([1, 3, 7]))
        else:
            f = loop_sphere(rng.choice([d for d in _LOOP_DIM_CHOICES if d - 1 <= max_bottom]))
        factors[f] = factors.get(f, 0) + rng.randint(1, 3)
    return sorted(factors.items())


def random_canonical_product(rng, cutoff=15):
    return product_of(random_canonical_factors(rng, cutoff), cutoff)


# --------------------------------------------------------------------------
# general pairs (X, A) and the complex projective presets


def decompose_general_pair(K, loops_of_x, fibers, cutoff=DEFAULT_DEGREE):
    """Omega (X,A)^K = prod Omega X_i x Omega (CY,Y)^K with Y_i the fiber
    of A_i into X_i; the caller supplies the loop products of the X_i and
    the fiber suspension data."""
    loops_of_x = list(loops_of_x)
    if len(loops_of_x) != K.m:
        raise ValueError("need one loop product per vertex")
    product, _ = decompose_loop(K, fibers, cutoff)
    for p in loops_of_x:
        product = pproduct_mul(product, p)
    return product


def loops_of_cp(n, cutoff=DEFAULT_DEGREE):
    """Omega CP^n = S^1 x Omega S^(2n+1); n = None means CP^infinity."""
    s1 = GradedSeries((1, 1))
    if n is None:
        return PProduct(s1, cutoff)
    if n < 1:
        raise ValueError("need n >= 1")
    return PProduct(s1 * geometric(2 * n), cutoff)


def cp_pair_fiber_cells(n, m):
    """Reduced series of the homotopy fiber of the pair (CP^n, CP^m).

    m = None is the basepoint pair, whose fiber is Omega CP^n itself; for
    m >= 0 the fiber is S^(2m+1) x Omega S^(2n+1) (just the sphere when
    n is infinite).  The suspension of such a product is a sphere wedge,
    so the fiber enters PairSpec through its exact series.
    """
    if m is None:
        return sub(loops_of_cp(n).series, 1)
    if m < 0 or (n is not None and m >= n):
        raise ValueError("need 0 <= m < n")
    bottom = add(GradedSeries.monomial(2 * m + 1), 1)
    if n is None:
        return sub(bottom, 1)
    return sub(bottom * geometric(2 * n), 1)


def cp_fiber_pairs(pairs_spec):
    """PairSpec for a list of (n, m) projective pairs, m = None for basepoint."""
    return PairSpec(tuple(cp_pair_fiber_cells(n, m) for n, m in pairs_spec))


# the (n, m) of the pairs (CP^n, CP^m) the tests draw: n = None is CP^infinity
# and m = None the basepoint; most give fraction cells
CP_PAIRS = [(n, m) for n in (None, 1, 2, 3) for m in (None, *range(n or 3))]


# --------------------------------------------------------------------------
# the recursion's series by GradedSeries operators: the reference for the
# closed forms that engine._decompose and engine._skeleton_cells build


def operator_pushout_series(p1, p2, pl, a, a_prime):
    """A pushout node's P from its children's P_K1, P_K2, P_L by the
    pushout identity u = (1 + a') u_K1 + (1 + a) u_K2 - (1 + a)(1 + a') u_L
    on u = 1/P."""
    one = GradedSeries.one()
    u1, u2, ul = (one / p for p in (p1, p2, pl))
    e, e_prime = add(1, a), add(1, a_prime)
    return one / sub(add(e_prime * u1, e * u2), e * e_prime * ul)


def operator_skeleton_series(cells):
    """A simplex_skeleton node's P = 1/u for u = 1 - cells/t."""
    return GradedSeries.one() / sub(1, GradedSeries(cells.num[1:], cells.den))


def operator_skeleton_cells(m, k, pairs):
    """The cells of the k-skeleton of the (m-1)-simplex's sphere wedge:
    the elementary symmetric DP over every j at every vertex."""
    if k + 2 > m:
        return GradedSeries.zero()
    elementary = [GradedSeries.one()] + [GradedSeries.zero()] * m
    for r in pairs.cells:
        for j in range(m, 0, -1):
            elementary[j] = add(elementary[j], r * elementary[j - 1])
    cells = GradedSeries.zero()
    for j in range(k + 2, m + 1):
        cells = add(cells, GradedSeries((comb(j - 1, k + 1),)) * elementary[j])
    return GradedSeries.monomial(k + 1) * cells


def product_cells(cells):
    """The reduced series prod (1 + c) - 1 of the product of the spaces
    with these cells."""
    product = GradedSeries.one()
    for c in cells:
        product = product * add(c, 1)
    return sub(product, 1)


# --------------------------------------------------------------------------
# constructors and checks of the W/P calculus that only the tests use


def sphere(dim):
    """The factor S^dim, canonical for dim in {1,3,7}, as its bottom degree."""
    if dim not in (1, 3, 7):
        raise ValueError(f"sphere factor dimension {dim} not in 1,3,7")
    return dim


def loop_sphere(dim):
    """The factor Omega S^dim, canonical for dim >= 3 but not 4 or 8, as its
    bottom degree dim - 1."""
    if dim < 3 or dim in (4, 8):
        raise ValueError(f"loop factor on S^{dim} is not canonical")
    return dim - 1


POINT = CellSeries(GradedSeries.zero())


def wedge_of_spheres(dims):
    """The wedge of the spheres S^d, d in dims."""
    total = GradedSeries.zero()
    for d in dims:
        total = add(total, GradedSeries.monomial(d))
    return SphereWedge(CellSeries(total))


def is_point(w):
    """Whether a sphere wedge is the empty wedge, a point."""
    return w.cells.reduced.is_zero()


def geometric(step):
    """1/(1 - t^step)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return GradedSeries((1,), (1,) + (0,) * (step - 1) + (-1,))


def factor_series(d):
    """Poincare series of the factor of bottom degree d: 1 + t^d for the
    sphere S^d (d in 1, 3, 7), else 1/(1 - t^d) for loops on S^(d+1)."""
    if d in (1, 3, 7):
        return add(GradedSeries.monomial(d), 1)
    return geometric(d)


def merged_factors(*factor_lists):
    """The union of factor multisets, as a P-form lists it: (d, mult) in
    ascending d, without zero multiplicities."""
    counts = Counter()
    for factors in factor_lists:
        for d, mult in factors:
            counts[d] += mult
    return tuple(sorted((d, mult) for d, mult in counts.items() if mult))


def product_of(factors, cutoff=DEFAULT_DEGREE):
    """The exact product of explicitly listed factors (all bottoms <= cutoff),
    which reads them back off its series."""
    series = GradedSeries.one()
    for factor, mult in factors:
        for _ in range(mult):
            series = series * factor_series(factor)
    p = PProduct(series, cutoff)
    assert p.factors == merged_factors(factors), (p.factors, factors)
    return p


def product_from_doc(doc):
    """The PProduct that `PProduct.to_doc` wrote, whose factors must be
    the ones the document lists."""
    kinds = {"sphere": sphere, "loop_sphere": loop_sphere}
    factors = tuple((kinds[e["kind"]](e["dim"]), e["mult"]) for e in doc["factors"])
    series = GradedSeries(tuple(doc["series"]["num"]), tuple(doc["series"]["den"]))
    p = PProduct(series, doc["cutoff"])
    assert p.factors == factors, (p.factors, factors)
    return p


def multiplicity(p, factor):
    return dict(p.factors).get(factor, 0)
