"""Loop-space decomposition engine for polyhedral products (CA,A)^K.

For K the k-skeleton of a flag complex and per-vertex spaces A_i whose
suspensions are sphere wedges, the loop space of (CA,A)^K is a finite-type
product of spheres and loops on spheres.  Each node of the recursion
records its loop space's Poincare series P, the one record of u = 1/P,
built once, in closed form, from its children's numerators and denominators:
a skeleton of a simplex has u = 1 - c/t for the cells c of its sphere wedge,
and a split at a non-dominating vertex v into the star side K1, the link L
and the deletion K2 has
u = (1 + a') u_K1 + (1 + a) u_K2 - (1 + a)(1 + a') u_L, with a the cells
of A_v and 1 + a' the product of the 1 + a_i over K2 - L.
A node with a dominating vertex v is the cone v * L on the rest, when it is
flag (no clique has more than k + 1 vertices): then (CA,A)^K is
CA_v x (CA,A)^L, and CA_v is contractible, so u_K = u_L.  The cone rule
drops every dominating vertex at once, so a pushout's star side costs one
node, whose child is the link's memo entry.  It fires only under a flag
root, whose full subcomplexes are all flag with the same k: in a non-flag
k-skeleton a (k + 1)-clique of the rest is a face but its join with v is
not, so v * L is not K.  Only the root is factorised.  The trace records
choices only: each node's rule, a pushout's vertex, the series and the
children, in memory as in the document.  A vertex set is a mask, and
`pushout_split` and `_one_plus_a_prime` derive the rest, for the recursion
and for `check_trace`, run by `verify`: over the trace's node table, root
down it gives each child the piece its parent's rule derives from the
input's graph and pairs and checks each rule's precondition on it, and
leaves up it rebuilds each P-form by the proof's splittings.  Only
`_decompose` recurses.  A P-form's factors are read off its series, so
each one the certificate makes is checked canonical at the node that makes
it, the root's included.
"""

from __future__ import annotations

from math import comb

from .complexes import FlagSkeleton, SimplicialComplex, classify_input, pushout_split
from .homotopy import (
    CellSeries,
    PProduct,
    SphereWedge,
    divide_products,
    greedy_factorize,
    hilton_milnor,
    join_cells,
    loop_half_smash,
    porter_loop_wedge,
    pproduct_mul,
)
from .series import DEFAULT_DEGREE, Frozen, GradedSeries, poly_add, poly_mul, poly_neg


class NotFlagSkeleton(ValueError):
    """Input complex is not the k-skeleton of a flag complex."""


_T = GradedSeries.monomial(1)


class PairSpec(Frozen):
    """Per-vertex suspension data for the pairs (CA_i, A_i).

    Each vertex carries the reduced-homology series of A_i, equivalently
    the cell series of the wedge Sigma A_i shifted down by one.  Finite
    wedges come from lists of suspension dimensions, [2] being the
    moment-angle pair (A_i = S^1) and [n] the disk pair (A_i = S^(n-1));
    product-shaped fibers come from their exact Poincare series.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: tuple[GradedSeries, ...]):
        object.__setattr__(self, "cells", cells)
        # each distinct cell once: most specs repeat one cell at every vertex
        for s in {(s.num, s.den): s for s in cells}.values():
            if s.is_zero():
                raise ValueError("a vertex's cell series must not be zero")
            CellSeries(s)

    @property
    def m(self) -> int:
        return len(self.cells)

    @classmethod
    def moment_angle(cls, m: int) -> "PairSpec":
        return cls((_T,) * m)

    @classmethod
    def from_suspension_dims(cls, dims_per_vertex) -> "PairSpec":
        """Vertex i gets Sigma A_i = wedge of S^d for d in its list (all >= 2);
        the series of each distinct list is built once, by counting its
        dims into one coefficient list."""
        cells, built = [], {}
        for dims in map(tuple, dims_per_vertex):
            if dims not in built:
                if not dims or min(dims) < 2:
                    raise ValueError("each vertex needs a nonempty list of dims >= 2")
                counts = [0] * max(dims)
                for d in dims:
                    counts[d - 1] += 1
                built[dims] = GradedSeries(tuple(counts))
            cells.append(built[dims])
        return cls(tuple(cells))

    def is_moment_angle(self) -> bool:
        return all(s == _T for s in self.cells)

    def vertex(self, v: int) -> GradedSeries:
        return self.cells[v - 1]

    def restrict(self, mask: int) -> "PairSpec":
        """The pairs on the vertex mask, relabelled 1..n in ascending order:
        this spec's cells, unchecked."""
        spec = object.__new__(PairSpec)
        cells = tuple([c for i, c in enumerate(self.cells) if mask >> i & 1])
        object.__setattr__(spec, "cells", cells)
        return spec

    def key(self):
        return tuple([(s.num, s.den) for s in self.cells])


class TraceNode:
    """One derivation step by its choices: the rule, the series, a
    pushout's vertex and the children, the pieces the rule derives.  Its
    graph and pairs follow from the root's by the rules above it."""

    __slots__ = ("rule", "series", "vertex", "children")

    def __init__(self, rule: str, series: GradedSeries, vertex: int | None = None, children=None):
        self.rule, self.series, self.vertex = rule, series, vertex
        self.children = [] if children is None else children


def skeleton_simplex_wedge(m: int, k: int, pairs: PairSpec) -> SphereWedge:
    """(CA,A)^K for K the k-skeleton of the (m-1)-simplex, as a sphere wedge.

    Cell series: sum over j = k+2..m and |S| = j of binom(j-1, k+1) *
    t^(k+1) * prod_{i in S} reduced(A_i); the subset sums are elementary
    symmetric polynomials in the vertex series, built by the usual DP.
    The full simplex (k = m-1) gives the empty wedge.
    """
    return SphereWedge(CellSeries(_skeleton_cells(m, k, pairs)))


def _skeleton_cells(m: int, k: int, pairs: PairSpec) -> GradedSeries:
    if not 0 <= k <= m - 1:
        raise ValueError("need 0 <= k <= m-1")
    if pairs.m != m:
        raise ValueError("pair data must cover all m vertices")
    if k + 2 > m:
        return GradedSeries.zero()  # the full simplex: no j to sum over
    # e_j as (num, den) pairs: after i vertices only e_0..e_i are nonzero
    elementary = [((1,), (1,))] + [((), (1,))] * m
    for i, r in enumerate(pairs.cells):
        for j in range(i + 1, 0, -1):
            (num, den), (pn, pd) = elementary[j], elementary[j - 1]
            elementary[j] = _add(num, den, poly_mul(r.num, pn), poly_mul(r.den, pd))
    num, den = (), (1,)
    for j, (en, ed) in enumerate(elementary[k + 2 :], k + 2):
        num, den = _add(num, den, poly_mul((comb(j - 1, k + 1),), en), ed)
    return GradedSeries((0,) * (k + 1) + num, den)


def _add(num, den, other_num, other_den):
    """The fraction num/den + other_num/other_den, cross-multiplied."""
    return poly_add(poly_mul(num, other_den), poly_mul(other_num, den)), poly_mul(den, other_den)


def decompose_loop(
    K: SimplicialComplex, pairs: PairSpec, cutoff: int = DEFAULT_DEGREE
) -> tuple[PProduct, TraceNode]:
    """Canonical product decomposition of Omega (CA,A)^K with its trace.

    K must be the k-skeleton of a flag complex.  It is classified once;
    the recursion then runs on its 1-skeleton and k.  The output does not
    depend on the pushout vertices chosen, only the shape of the
    derivation does.
    """
    if K.m != pairs.m:
        raise ValueError("pair data must cover all vertices of K")
    classification = classify_input(K)
    if classification.k_skeleton_of_flag is None:
        raise NotFlagSkeleton("K is not the k-skeleton of a flag complex")
    node = _decompose(FlagSkeleton.of(K), pairs, {}, classification.flag)
    return greedy_factorize(node.series, cutoff), node


def _decompose(K: FlagSkeleton, pairs: PairSpec, memo, cones) -> TraceNode:
    """The trace node for K, memoised by problem.  Its series P = 1/u does
    not depend on any cutoff, and is the only record of u: a child's u is
    d/n for its P = n/d, and P is built once, from the children's num and
    den.  The cone rule applies when `cones` is set, which needs a flag
    root."""
    key = (K.adj, K.k, pairs.key())
    if key in memo:
        return memo[key]

    if K.m <= 1:
        node = TraceNode("contractible", GradedSeries.one())
    elif (k := K.simplex_skeleton_dim()) is not None:
        cells = _skeleton_cells(K.m, k, pairs)
        u_num = poly_add(cells.den, poly_neg(cells.num[1:]))  # u = 1 - cells/t, times den
        node = TraceNode("simplex_skeleton", GradedSeries(cells.den, u_num))
    elif cones and (rest := _non_dominating(K)).bit_count() < K.m:
        child = _decompose(K.induced(rest), pairs.restrict(rest), memo, cones)
        node = TraceNode("cone", child.series, None, [child])
    else:
        # the least degree: a dominating vertex has the largest, and some
        # vertex does not dominate, or the graph would be complete
        v = min(range(1, K.m + 1), key=lambda w: (K.adj[w - 1].bit_count(), w))
        children = [
            _decompose(graph, pairs.restrict(mask), memo, cones)
            for graph, mask in pushout_split(K, v)
        ]
        # u_i = d_i/n_i for a child's P_i = n_i/d_i, 1 + a = e/a.den, 1 + a' = N/D:
        # P = 1/(s - z) for s = (1 + a') u1 + (1 + a) u2, z = (1 + a)(1 + a') ul
        (n1, d1), (n2, d2), (nl, dl) = ((c.series.num, c.series.den) for c in children)
        a = pairs.vertex(v)
        e, (N, D) = poly_add(a.num, a.den), _one_plus_a_prime(K, v, pairs)
        s = _add(poly_mul(N, d1), poly_mul(D, n1), poly_mul(e, d2), poly_mul(a.den, n2))
        z_num, z_den = poly_mul(poly_mul(e, N), dl), poly_mul(poly_mul(a.den, D), nl)
        u_num, u_den = _add(*s, poly_neg(z_num), z_den)
        node = TraceNode("pushout", GradedSeries(u_den, u_num), v, children)

    memo[key] = node
    return node


def _pushout_cells(K: FlagSkeleton, v: int, pairs: PairSpec) -> tuple[GradedSeries, GradedSeries]:
    """a, A_v's cells, and a' = (N - D)/D for 1 + a' = N/D."""
    num, den = _one_plus_a_prime(K, v, pairs)
    return pairs.vertex(v), GradedSeries(poly_add(num, poly_neg(den)), den)


def _one_plus_a_prime(K: FlagSkeleton, v: int, pairs: PairSpec):
    """1 + a' = N/D = prod (n_w + d_w) / prod d_w over K2 - L, the
    vertices outside v's closed neighbourhood, a_w = n_w/d_w."""
    num = den = (1,)
    for c in pairs.restrict(~(K.adj[v - 1] | 1 << (v - 1))).cells:
        num = poly_mul(num, poly_add(c.num, c.den))
        if c.den != (1,):
            den = poly_mul(den, c.den)
    return num, den


def _non_dominating(K: FlagSkeleton) -> int:
    """The mask of the vertices not adjacent to every other vertex."""
    return sum(1 << i for i, row in enumerate(K.adj) if row.bit_count() < K.m - 1)


# --------------------------------------------------------------------------
# trace checking and serialization


def _derive(node: TraceNode, graph: FlagSkeleton):
    """The (graph, mask) pieces a node's rule derives from its graph, once
    the rule's precondition holds there and there is one child per piece."""
    rule, m, pieces = node.rule, graph.m, ()
    if (node.vertex is not None) != (rule == "pushout"):
        raise ValueError("a pushout, and only a pushout, has a vertex")
    if rule == "contractible":
        if m > 1:
            raise ValueError(f"a contractible node has {m} vertices")
    elif rule == "simplex_skeleton":
        if graph.simplex_skeleton_dim() is None:
            raise ValueError("the graph is not a skeleton of a simplex")
    elif rule == "cone":
        rest = _non_dominating(graph)
        if rest.bit_count() == m:
            raise ValueError("no vertex dominates")
        largest = max(c.bit_count() for c in graph.maximal_cliques())
        if largest > graph.k + 1:
            raise ValueError(f"the node is not flag: it has a clique of {largest} vertices")
        pieces = ((graph.induced(rest), rest),)
    elif rule == "pushout":
        pieces = pushout_split(graph, node.vertex)
    else:
        raise ValueError(f"unknown trace rule {rule!r}")
    if len(node.children) != len(pieces):
        raise ValueError(f"the rule derives {len(pieces)} children, not {len(node.children)}")
    return pieces


def _rebuild(node: TraceNode, graph: FlagSkeleton, pairs: PairSpec, children, cutoff: int):
    """A node's P-form from its children's, once `_derive` has checked it;
    each step checks membership in P, and the rebuilt series must be the
    recorded one.  A pushout returns the P-form of the recorded series: its
    rebuilt fraction holds its operands' polynomials, which would pile up
    along the trace.  The other rules build the recorded fraction itself."""
    if node.rule == "contractible":
        product = PProduct.trivial(cutoff)
    elif node.rule == "simplex_skeleton":
        k = graph.simplex_skeleton_dim()
        product = hilton_milnor(skeleton_simplex_wedge(graph.m, k, pairs), cutoff)
    elif node.rule == "cone":
        (product,) = children
    else:
        p1, p2, pl = children
        a, a_prime = map(CellSeries, _pushout_cells(graph, node.vertex, pairs))
        s_join = hilton_milnor(join_cells(a, a_prime), cutoff)
        s_g = loop_half_smash(a_prime, divide_products(p1, pl))
        s_h = loop_half_smash(a, divide_products(p2, pl))
        product = pproduct_mul(pl, porter_loop_wedge([s_join, s_g, s_h]))
    if product.series != node.series:
        raise ValueError("the rebuilt series is not the recorded one")
    return greedy_factorize(node.series, cutoff) if node.rule == "pushout" else product


def unique_nodes(root: TraceNode) -> list[TraceNode]:
    """Each distinct node of the trace once, children first (in k1, k2, l
    order), so the root is last; a node's position is its id.  The walk
    keeps (node, children left) on a stack, not a frame per level."""
    order: list[TraceNode] = []
    seen, stack = {id(root)}, [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def check_trace(node: TraceNode, graph: FlagSkeleton, pairs: PairSpec, cutoff: int) -> list[str]:
    """Certify a trace of the problem (graph, pairs) in two passes over
    unique_nodes' table.  Root down, by descending id, each node's rule
    precondition must hold on its piece, and each child, whose id must be
    below its parent's, gets the piece the rule derives: the induced graph
    with the pairs restricted, the same from every parent (the larger-id
    parent's is kept).  Leaves up, each node's P-form is rebuilt from its
    children's, each step's P-form checked canonical where it is built;
    the root's rebuilt series is its recorded one, so its factors are
    those of `decompose_loop`.  No node without a piece or above a failing
    one is rebuilt.  Returns one message per failing node, by ascending id."""
    nodes = unique_nodes(node)
    ids = {id(current): i for i, current in enumerate(nodes)}
    problems: list = [None] * (len(nodes) - 1) + [(graph, pairs)]  # (graph, pairs) by id
    failures: dict[int, str] = {}
    for i in range(len(nodes) - 1, -1, -1):
        if problems[i] is None:
            continue
        graph, pairs = problems[i]
        try:
            if pairs.m != graph.m:  # only the root's pairs are not restricted
                raise ValueError(f"the pairs cover {pairs.m} vertices, the graph {graph.m}")
            pieces = _derive(nodes[i], graph)
            for j, (child, (piece, mask)) in enumerate(zip(nodes[i].children, pieces)):
                c, sub = ids[id(child)], pairs.restrict(mask)
                if c >= i:
                    raise ValueError(f"child {j} is the node itself or one above it")
                if problems[c] is None:
                    problems[c] = (piece, sub)
                elif problems[c][0] != piece or problems[c][1].key() != sub.key():
                    raise ValueError(f"child {j} is also the node of another piece")
        except (ArithmeticError, LookupError, ValueError) as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
    products: list = [None] * len(nodes)
    for i, current in enumerate(nodes):
        children = [products[ids[id(child)]] for child in current.children]
        if problems[i] is not None and i not in failures and None not in children:
            try:
                products[i] = _rebuild(current, *problems[i], children, cutoff)
            except (ArithmeticError, LookupError, ValueError) as exc:
                failures[i] = f"{type(exc).__name__}: {exc}"
    return [
        f"node {i} ({nodes[i].rule}, m={problems[i][0].m}): {failures[i]}" for i in sorted(failures)
    ]


def trace_to_doc(node: TraceNode, graph: FlagSkeleton) -> dict:
    """The trace as a node table: unique_nodes' list, a node's id its
    position in it.  Only the root has its graph, the one given: the
    others' follow from it by the rules, as check_trace derives them."""
    nodes = unique_nodes(node)
    ids = {id(current): i for i, current in enumerate(nodes)}
    docs = []
    for current in nodes:
        num, den = current.series.to_pair()
        doc = {"rule": current.rule, "series": {"num": num, "den": den}}
        if current is node:
            edges = [list(e) for e in graph.edges()]
            doc["graph"] = {"m": graph.m, "k": graph.k, "edges": edges}
        if current.vertex is not None:
            doc["vertex"] = current.vertex
        if current.children:
            doc["children"] = [ids[id(child)] for child in current.children]
        docs.append(doc)
    return {"root": len(nodes) - 1, "nodes": docs}
