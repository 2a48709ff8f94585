"""Independent oracles and shared generators for the test suite.

Everything here is deliberately separate from the library code paths it
checks: Lyndon words come from Duval's generation algorithm, necklace
counts from the Moebius formula, convolution is done directly on lists.
The projective-pair presets, the general-pair (X, A) decomposition and
the other constructions below have no caller outside the tests.
"""

import itertools
from dataclasses import dataclass
from random import Random

from hypothesis import strategies as st

from loopdecomp.complexes import FlagSkeleton, classify_input, pushout_split
from loopdecomp import engine
from loopdecomp.engine import PairSpec, decompose_loop
from loopdecomp.homotopy import (
    CellSeries,
    NotCanonicalP,
    PProduct,
    SphereWedge,
    greedy_factorize,
    loop_sphere,
    pproduct_mul,
    sphere,
)
from loopdecomp.intlinalg import idempotent_split, mat_vec, smith_invariant_factors
from loopdecomp.series import DEFAULT_DEGREE, GradedSeries


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
                term = term * (s - 1)
            total = total + term
    return GradedSeries.monomial(1) * total


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
            frozenset(u for u in K.vertices() if row >> (u - 1) & 1),
            row.bit_count() == K.m - 1,
        )
        for v, row in zip(K.vertices(), rows)
    }


def forced_split(K, pairs, v):
    """A trace for K whose root is the pushout at v, which need not be the
    vertex the engine picks.  The root claims the engine's series for K;
    its children are the engine's nodes for the pieces of the split at v,
    so check_trace certifies the claim, and the factors listed for it, by
    rebuilding the root from them through the P-calculus."""
    _, trace = decompose_loop(K, pairs)
    G = FlagSkeleton.of(K)
    memo, cones = {}, classify_input(K).flag
    children = [
        engine._decompose(piece, pairs.restrict(vertices), memo, cones)[1]
        for piece, vertices in engine._pieces(pushout_split(G, v))
    ]
    return engine.TraceNode("pushout", G, pairs, trace.series, v, children)


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


def expand_trace(table, pairs):
    """The tree form of a `trace_to_doc` node table: each node written out
    under every parent, with its complex as {"m", "facets"} and the rule's
    inputs as `data`.  Both are derived from the root's graph and the pairs
    by the rules, as `check_trace` derives them.  This is the trace document
    of the tree writer the table replaced, which recorded them per node."""
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
        for child, (piece, vertices) in zip(nodes[i].get("children", []), pieces):
            derived.setdefault(child, (piece, tuple(cells[v - 1] for v in vertices)))
    trees = {}
    for i, node in enumerate(nodes):
        graph = derived[i][0]
        tree = {"rule": node["rule"], "complex": {"m": graph.m, "facets": graph.facets()}}
        tree["series"] = node["series"]
        if "vertex" in node:
            tree["vertex"] = node["vertex"]
        if data[i]:
            tree["data"] = data[i]
        if "children" in node:
            tree["children"] = [trees[child] for child in node["children"]]
        trees[i] = tree
    return trees[root]


def _series_doc(s):
    num, den = s.to_pair()
    return {"num": num, "den": den}


def _rule_inputs(node, graph, cells):
    """The pieces a node's rule derives, as (graph, vertices), and the data
    the tree writer recorded for it, in its key order."""
    rule, m = node["rule"], graph.m
    if rule == "simplex_skeleton":
        k = graph.simplex_skeleton_dim()
        return [], {"k": k, "vertex_cells": [_series_doc(c) for c in cells]}
    if rule == "cone":
        rest = tuple(v for v in range(1, m + 1) if graph.adj[v - 1].bit_count() < m - 1)
        return [(graph.induced(rest), rest)], {"rest_vertices": list(rest)}
    if rule == "pushout":
        v = node["vertex"]
        split = pushout_split(graph, v)
        a_prime = GradedSeries.one()
        for w in split.k2_vertices:
            if w not in split.l_vertices:
                a_prime = a_prime * (cells[w - 1] + 1)
        return engine._pieces(split), {
            "k1_vertices": list(split.k1_vertices),
            "l_vertices": list(split.l_vertices),
            "k2_vertices": list(split.k2_vertices),
            "l_empty": split.l.m == 0,
            "a_cells": _series_doc(cells[v - 1]),
            "a_prime_cells": _series_doc(a_prime - 1),
        }
    return [], {}


def tuple_face_homology(K):
    """Reduced integral homology of K from boundary matrices on its faces as
    sorted tuples: (ranks over Q by degree, the degrees j with torsion in
    H_j).  Each boundary's rank is the number of its Smith invariant factors."""
    by_dim = {}
    for f in K.nonempty_faces():
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    layers = [sorted(by_dim[d]) for d in range(len(by_dim))]
    boundary_ranks, torsion = [1], set()  # augmentation C_0 -> Z has rank 1
    for d in range(1, len(layers)):
        index = {f: i for i, f in enumerate(layers[d - 1])}
        matrix = [[0] * len(layers[d]) for _ in layers[d - 1]]
        for j, face in enumerate(layers[d]):
            for k in range(len(face)):
                matrix[index[face[:k] + face[k + 1 :]]][j] = (-1) ** k
        factors = smith_invariant_factors(matrix)
        boundary_ranks.append(len(factors))
        if any(f > 1 for f in factors):
            torsion.add(d - 1)
    boundary_ranks.append(0)
    ranks = {}
    for d, faces in enumerate(layers):
        r = len(faces) - boundary_ranks[d] - boundary_ranks[d + 1]
        if r:
            ranks[d] = r
    return ranks, torsion


def suspension_splitting(p):
    """Suspension of a product of spheres and loop spaces, as a sphere wedge:
    cells t * (series - 1)."""
    return SphereWedge(CellSeries(GradedSeries.monomial(1) * (p.series - 1)))


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


def verify_column_fixed(a, x):
    """Decide x in C(A) by solving A x' = x over Z through the Hermite-form
    column basis of `idempotent_split` (which rejects a non-idempotent A);
    whenever the answer is yes, A x = x is asserted."""
    residue = list(x)
    for row in idempotent_split(a).col_basis:
        j = next(k for k, v in enumerate(row) if v)
        if residue[j] % row[j]:
            return False
        q = residue[j] // row[j]
        if q:
            residue = [r - q * v for r, v in zip(residue, row)]
    if any(residue):
        return False
    if mat_vec(a, list(x)) != list(x):
        raise AssertionError("member of C(A) not fixed by idempotent A")
    return True


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
        return PProduct(s1, ((sphere(1), 1),), cutoff)
    if n < 1:
        raise ValueError("need n >= 1")
    series = s1 * geometric(2 * n)
    factors = [(sphere(1), 1)]
    if 2 * n <= cutoff:
        factors.append((loop_sphere(2 * n + 1), 1))
    return PProduct(series, tuple(factors), cutoff)


def cp_pair_fiber_cells(n, m):
    """Reduced series of the homotopy fiber of the pair (CP^n, CP^m).

    m = None is the basepoint pair, whose fiber is Omega CP^n itself; for
    m >= 0 the fiber is S^(2m+1) x Omega S^(2n+1) (just the sphere when
    n is infinite).  The suspension of such a product is a sphere wedge,
    so the fiber enters PairSpec through its exact series.
    """
    if m is None:
        return loops_of_cp(n).series - 1
    if m < 0 or (n is not None and m >= n):
        raise ValueError("need 0 <= m < n")
    bottom = GradedSeries.monomial(2 * m + 1) + 1
    if n is None:
        return bottom - 1
    return bottom * geometric(2 * n) - 1


def cp_fiber_pairs(pairs_spec):
    """PairSpec for a list of (n, m) projective pairs, m = None for basepoint."""
    return PairSpec(tuple(cp_pair_fiber_cells(n, m) for n, m in pairs_spec))


# --------------------------------------------------------------------------
# constructors and checks of the W/P calculus that only the tests use

POINT = CellSeries(GradedSeries.zero())


def wedge_of_spheres(dims):
    """The wedge of the spheres S^d, d in dims."""
    total = GradedSeries.zero()
    for d in dims:
        total = total + GradedSeries.monomial(d)
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
        return GradedSeries.monomial(d) + 1
    return geometric(d)


def product_of(factors, cutoff=DEFAULT_DEGREE):
    """The exact product of explicitly listed factors (all bottoms <= cutoff)."""
    series = GradedSeries.one()
    for factor, mult in factors:
        for _ in range(mult):
            series = series * factor_series(factor)
    return PProduct(series, tuple(factors), cutoff)


def product_from_doc(doc):
    """The PProduct that `PProduct.to_doc` wrote."""
    kinds = {"sphere": sphere, "loop_sphere": loop_sphere}
    factors = tuple((kinds[e["kind"]](e["dim"]), e["mult"]) for e in doc["factors"])
    series = GradedSeries(tuple(doc["series"]["num"]), tuple(doc["series"]["den"]))
    return PProduct(series, factors, doc["cutoff"])


def check_canonical(p):
    """Raise NotCanonicalP unless the listed factors are those greedy
    factorisation reads from the series through the cutoff."""
    if greedy_factorize(p.series, p.cutoff).factors != p.factors:
        raise NotCanonicalP("series does not match listed factors below cutoff")


def multiplicity(p, factor):
    return dict(p.factors).get(factor, 0)
