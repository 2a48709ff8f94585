"""Loop-space decomposition engine for polyhedral products (CA,A)^K.

For K the k-skeleton of a flag complex and per-vertex spaces A_i whose
suspensions are sphere wedges, the loop space of (CA,A)^K is a finite-type
product of spheres and loops on spheres.  Each node of the recursion
carries u = 1/P for its loop space's Poincare series P: a skeleton of a
simplex has u = 1 - c/t for the cells c of its sphere wedge, and a split
at a non-dominating vertex v into the star side K1, the link L and the
deletion K2 has u = (1 + a') u_K1 + (1 + a) u_K2 - (1 + a)(1 + a') u_L,
with a the cells of A_v and 1 + a' the product of the 1 + a_i over K2 - L.
A node with a dominating vertex v is the cone v * L on the rest, when it is
flag (no clique has more than k + 1 vertices): then (CA,A)^K is
CA_v x (CA,A)^L, and CA_v is contractible, so u_K = u_L.  The cone rule
drops every dominating vertex at once, so a pushout's star side costs one
node, whose child is the link's memo entry.  It fires only under a flag
root, whose full subcomplexes are all flag with the same k: in a non-flag
k-skeleton a (k + 1)-clique of the rest is a face but its join with v is
not, so v * L is not K.  Only the root is factorised.  The trace records
choices only: each node's rule, a pushout's vertex, the series and the
children.  `_pieces` and `_pushout_cells` derive the rest, for the recursion
and for `check_trace`, run by `verify`: it checks that each node's pairs
cover its vertices, each rule's precondition and that the children are the
pieces it derives, rebuilds each P-form by
the proof's splittings, which check membership in P, and at the root
compares the rebuilt factors with the listed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .series import DEFAULT_DEGREE, GradedSeries, poly_add, poly_mul, poly_neg


class NotFlagSkeleton(ValueError):
    """Input complex is not the k-skeleton of a flag complex."""


_T = GradedSeries.monomial(1)


@dataclass(frozen=True)
class PairSpec:
    """Per-vertex suspension data for the pairs (CA_i, A_i).

    Each vertex carries the reduced-homology series of A_i, equivalently
    the cell series of the wedge Sigma A_i shifted down by one.  Presets
    cover the moment-angle case (A_i = S^1) and disk pairs (A_i = S^(n-1));
    arbitrary finite wedges come from lists of suspension dimensions, and
    product-shaped fibers from their exact Poincare series.
    """

    cells: tuple[GradedSeries, ...]

    def __post_init__(self):
        for s in self.cells:
            coeffs = s.checkable_coeffs(DEFAULT_DEGREE)
            if s.is_zero() or coeffs[0] != 0 or any(c < 0 for c in coeffs):
                raise ValueError("vertex cell series must be reduced and non-negative")

    @property
    def m(self) -> int:
        return len(self.cells)

    @classmethod
    def moment_angle(cls, m: int) -> "PairSpec":
        return cls((_T,) * m)

    @classmethod
    def disks(cls, dim: int, m: int) -> "PairSpec":
        """Pairs (D^n, S^(n-1)); dim is n >= 2."""
        if dim < 2:
            raise ValueError("disk dimension must be >= 2")
        return cls((GradedSeries.monomial(dim - 1),) * m)

    @classmethod
    def from_suspension_dims(cls, dims_per_vertex) -> "PairSpec":
        """Vertex i gets Sigma A_i = wedge of S^d for d in its list (all >= 2)."""
        cells = []
        for dims in dims_per_vertex:
            dims = list(dims)
            if not dims or any(d < 2 for d in dims):
                raise ValueError("each vertex needs a nonempty list of dims >= 2")
            total = GradedSeries.zero()
            for d in dims:
                total = total + GradedSeries.monomial(d - 1)
            cells.append(total)
        return cls(tuple(cells))

    def is_moment_angle(self) -> bool:
        return all(s == _T for s in self.cells)

    def vertex(self, v: int) -> GradedSeries:
        return self.cells[v - 1]

    def restrict(self, vertices) -> "PairSpec":
        """The pairs on the vertices, relabelled 1..len: this spec's cells, unchecked."""
        spec = object.__new__(PairSpec)
        object.__setattr__(spec, "cells", tuple(self.cells[v - 1] for v in vertices))
        return spec

    def key(self):
        return tuple((s.num, s.den) for s in self.cells)


@dataclass
class TraceNode:
    """One derivation step: a rule on a graph and its pairs, a pushout's
    vertex, the series, and the children, the pieces the rule derives."""

    rule: str
    graph: FlagSkeleton
    pairs: PairSpec
    series: GradedSeries
    vertex: int | None = None
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.graph.m


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
    elementary = [GradedSeries.one()] + [GradedSeries.zero()] * m
    for r in pairs.cells:
        for j in range(m, 0, -1):
            elementary[j] = elementary[j] + r * elementary[j - 1]
    cells = GradedSeries.zero()
    for j in range(k + 2, m + 1):
        cells = cells + comb(j - 1, k + 1) * elementary[j]
    return GradedSeries.monomial(k + 1) * cells


def decompose_loop(
    K: SimplicialComplex,
    pairs: PairSpec,
    cutoff: int = DEFAULT_DEGREE,
    split_vertex: int | None = None,
) -> tuple[PProduct, TraceNode]:
    """Canonical product decomposition of Omega (CA,A)^K with its trace.

    K must be the k-skeleton of a flag complex.  It is classified once;
    the recursion then runs on its 1-skeleton and k.  `split_vertex` forces
    the top-level pushout vertex (the output never depends on the choice,
    only the shape of the derivation does).
    """
    if K.m != pairs.m:
        raise ValueError("pair data must cover all vertices of K")
    if K.m > 1 and classify_input(K).k_skeleton_of_flag is None:
        raise NotFlagSkeleton("K is not the k-skeleton of a flag complex")
    cones = K.m > 1 and classify_input(K).flag
    _, node = _decompose(FlagSkeleton.of(K), pairs, {}, cones, split_vertex)
    return greedy_factorize(node.series, cutoff), node


def _decompose(K: FlagSkeleton, pairs: PairSpec, memo, cones, forced=None):
    """(u, trace node) for K; u = 1/P does not depend on any cutoff.  The
    cone rule applies when `cones` is set, which needs a flag root."""
    key = (K.adj, K.k, pairs.key())
    if forced is None and key in memo:
        return memo[key]

    rule, v, children = "contractible", None, []
    if K.m <= 1:
        u = GradedSeries.one()
    elif (k := K.simplex_skeleton_dim()) is not None:
        cells = _skeleton_cells(K.m, k, pairs)
        u = 1 - GradedSeries(cells.num[1:], cells.den)  # 1 - cells/t
        rule = "simplex_skeleton"
    elif cones and forced is None and len(rest := _non_dominating(K)) < K.m:
        u, child = _decompose(K.induced(rest), pairs.restrict(rest), memo, cones)
        rule, children = "cone", [child]
    else:
        # unless forced: the least degree among the non-dominating vertices
        v = forced if forced is not None else min(
            _non_dominating(K), key=lambda w: (K.adj[w - 1].bit_count(), w)
        )
        split = pushout_split(K, v)
        (u1, n1), (u2, n2), (ul, nl) = (
            _decompose(graph, pairs.restrict(vertices), memo, cones)
            for graph, vertices in _pieces(split)
        )
        a, a_prime = _pushout_cells(split, pairs)
        u = (1 + a_prime) * u1 + (1 + a) * u2 - (1 + a) * (1 + a_prime) * ul
        rule, children = "pushout", [n1, n2, nl]

    node = TraceNode(rule, K, pairs, 1 / u, v, children)
    if forced is None:
        memo[key] = (u, node)
    return u, node


def _pieces(split):
    """(graph, vertices) of the star side, the deletion and the link."""
    graphs = (split.k1, split.k2, split.l)
    return list(zip(graphs, (split.k1_vertices, split.k2_vertices, split.l_vertices)))


def _pushout_cells(split, pairs: PairSpec) -> tuple[GradedSeries, GradedSeries]:
    """a, A_v's cells, and a' = prod (n_w + d_w) / prod d_w - 1 over K2 - L, a_w = n_w/d_w."""
    num = den = (1,)
    for c in (pairs.vertex(w) for w in split.k2_vertices if w not in split.l_vertices):
        num, den = poly_mul(num, poly_add(c.num, c.den)), poly_mul(den, c.den)
    return pairs.vertex(split.vertex), GradedSeries(poly_add(num, poly_neg(den)), den)


def _non_dominating(K: FlagSkeleton) -> tuple[int, ...]:
    """The vertices not adjacent to every other vertex, ascending."""
    return tuple(w for w, row in enumerate(K.adj, 1) if row.bit_count() < K.m - 1)


# --------------------------------------------------------------------------
# trace checking and serialization


def _rebuild(node: TraceNode, children: list[PProduct], cutoff: int) -> PProduct:
    """A node's P-form from its children's, which must be the pieces its
    rule derives from its graph; each step checks membership in P."""
    graph, pairs, rule = node.graph, node.pairs, node.rule
    if pairs.m != node.m:
        raise ValueError(f"the pairs cover {pairs.m} vertices, the graph {node.m}")
    if (node.vertex is not None) != (rule == "pushout"):
        raise ValueError("a pushout, and only a pushout, has a vertex")
    if rule == "contractible":
        if node.m > 1:
            raise ValueError(f"a contractible node has {node.m} vertices")
        _check_children(node, [])
        product = PProduct.trivial(cutoff)
    elif rule == "simplex_skeleton":
        if (k := graph.simplex_skeleton_dim()) is None:
            raise ValueError("the graph is not a skeleton of a simplex")
        _check_children(node, [])
        product = hilton_milnor(skeleton_simplex_wedge(node.m, k, pairs), cutoff)
    elif rule == "cone":
        rest = _non_dominating(graph)
        if len(rest) == node.m:
            raise ValueError("no vertex dominates")
        largest = max(c.bit_count() for c in graph.maximal_cliques())
        if largest > graph.k + 1:
            raise ValueError(f"the node is not flag: it has a clique of {largest} vertices")
        _check_children(node, [(graph.induced(rest), rest)])
        (product,) = children
    elif rule == "pushout":
        split = pushout_split(graph, node.vertex)
        _check_children(node, _pieces(split))
        p1, p2, pl = children
        a, a_prime = (CellSeries(cells) for cells in _pushout_cells(split, pairs))
        s_join = hilton_milnor(join_cells(a, a_prime), cutoff)
        s_g = loop_half_smash(a_prime, divide_products(p1, pl))
        s_h = loop_half_smash(a, divide_products(p2, pl))
        product = pproduct_mul(pl, porter_loop_wedge([s_join, s_g, s_h], cutoff))
    else:
        raise ValueError(f"unknown trace rule {rule!r}")
    if product.series != node.series:
        raise ValueError("the rebuilt series is not the recorded one")
    return product


def _check_children(node: TraceNode, pieces) -> None:
    """Each child must be its (graph, vertices) piece, with the pairs restricted."""
    if len(node.children) != len(pieces):
        raise ValueError(f"the rule derives {len(pieces)} children, not {len(node.children)}")
    for j, (child, (graph, vertices)) in enumerate(zip(node.children, pieces)):
        if child.graph != graph or child.pairs.key() != node.pairs.restrict(vertices).key():
            raise ValueError(f"child {j} is not the piece the rule derives")


def unique_nodes(root: TraceNode) -> list[TraceNode]:
    """Each distinct node of the trace once, children first (in k1, k2, l
    order), so the root is last; a node's position is its id."""
    order: list[TraceNode] = []
    seen: set[int] = set()

    def visit(node: TraceNode) -> None:
        if id(node) not in seen:
            seen.add(id(node))
            for child in node.children:
                visit(child)
            order.append(node)

    visit(root)
    return order


def check_trace(node: TraceNode, cutoff: int) -> list[str]:
    """Certify a trace: check each node's rule and children against its
    graph and pairs, rebuild its P-form from its children's, and at the root
    compare the rebuilt factors with those of `greedy_factorize(node.series,
    cutoff)`, the listed ones.

    Each node is checked once, children first; the nodes above a failing
    one are not checked.  Returns one message per failing node, naming its id.
    """
    failures = []
    products: dict[int, PProduct | None] = {}
    for i, current in enumerate(unique_nodes(node)):
        children = [products[id(child)] for child in current.children]
        products[id(current)] = None
        if None in children:
            continue
        try:
            product = _rebuild(current, children, cutoff)
            if current is node:
                listed = greedy_factorize(node.series, cutoff).factors
                if product.factors != listed:
                    raise ValueError("the rebuilt factors are not the listed ones")
            products[id(current)] = product
        except (ArithmeticError, LookupError, ValueError) as exc:
            where = f"node {i} ({current.rule}, m={current.m})"
            failures.append(f"{where}: {type(exc).__name__}: {exc}")
    return failures


def trace_to_doc(node: TraceNode) -> dict:
    """The trace as a node table: unique_nodes' list, a node's id its
    position in it.  Only the root has its graph: the others' follow from
    it by the rules, as check_trace derives them."""
    nodes = unique_nodes(node)
    ids = {id(current): i for i, current in enumerate(nodes)}
    docs = []
    for current in nodes:
        num, den = current.series.to_pair()
        doc = {"rule": current.rule, "series": {"num": num, "den": den}}
        if current is node:
            edges = [list(e) for e in node.graph.edges()]
            doc["graph"] = {"m": node.m, "k": node.graph.k, "edges": edges}
        if current.vertex is not None:
            doc["vertex"] = current.vertex
        if current.children:
            doc["children"] = [ids[id(child)] for child in current.children]
        docs.append(doc)
    return {"root": len(nodes) - 1, "nodes": docs}
