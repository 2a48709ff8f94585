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
not, so v * L is not K.  Only the root is factorised.  `check_trace`, run
by `verify`, certifies the trace: it rebuilds each node's P-form by the
proof's half-smash, join and wedge splittings, which check membership in
P, checks each cone's domination and flagness, and at the root compares
the rebuilt factors with the listed ones.
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
from .series import DEFAULT_DEGREE, GradedSeries


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

    @classmethod
    def from_cells(cls, cells) -> "PairSpec":
        return cls(tuple(cells))

    def is_moment_angle(self) -> bool:
        return all(s == _T for s in self.cells)

    def vertex(self, v: int) -> GradedSeries:
        return self.cells[v - 1]

    def restrict(self, vertices) -> "PairSpec":
        return PairSpec(tuple(self.cells[v - 1] for v in vertices))

    def product_cells(self, vertices) -> CellSeries:
        """Reduced series of the product of the A_i over the given vertices."""
        total = GradedSeries.one()
        for v in vertices:
            total = total * (self.cells[v - 1] + 1)
        return CellSeries(total - 1)

    def key(self):
        return tuple((s.num, s.den) for s in self.cells)


@dataclass
class TraceNode:
    """One derivation step: which rule fired, on what, with what series."""

    rule: str
    graph: FlagSkeleton
    series: GradedSeries
    vertex: int | None = None
    data: dict = field(default_factory=dict)
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
    return SphereWedge(CellSeries(GradedSeries.monomial(k + 1) * cells))


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


def _decompose(K: FlagSkeleton, pairs, memo, cones, forced=None):
    """(u, trace node) for K; u = 1/P does not depend on any cutoff.  The
    cone rule applies when `cones` is set, which needs a flag root."""
    key = (K.adj, K.k, pairs.key())
    if forced is None and key in memo:
        return memo[key]

    rule, v, data, children = "contractible", None, {}, []
    if K.m <= 1:
        u = GradedSeries.one()
    elif (k := K.simplex_skeleton_dim()) is not None:
        cells = skeleton_simplex_wedge(K.m, k, pairs).cells.reduced
        u = 1 - GradedSeries(cells.num[1:], cells.den)  # 1 - cells/t
        rule, data = "simplex_skeleton", {"k": k, "vertex_cells": pairs.cells}
    elif cones and forced is None and len(rest := _non_dominating(K)) < K.m:
        u, child = _decompose(K.induced(rest), pairs.restrict(rest), memo, cones)
        rule, data, children = "cone", {"rest_vertices": rest}, [child]
    else:
        # unless forced: the least degree among the non-dominating vertices
        v = forced if forced is not None else min(
            _non_dominating(K), key=lambda w: (K.adj[w - 1].bit_count(), w)
        )
        split = pushout_split(K, v)
        u1, n1 = _decompose(split.k1, pairs.restrict(split.k1_vertices), memo, cones)
        u2, n2 = _decompose(split.k2, pairs.restrict(split.k2_vertices), memo, cones)
        ul, nl = _decompose(split.l, pairs.restrict(split.l_vertices), memo, cones)
        a = pairs.vertex(v)
        outside = [w for w in split.k2_vertices if w not in split.l_vertices]
        a_prime = pairs.product_cells(outside).reduced
        u = (1 + a_prime) * u1 + (1 + a) * u2 - (1 + a) * (1 + a_prime) * ul
        rule, children = "pushout", [n1, n2, nl]
        data = {
            "k1_vertices": split.k1_vertices,
            "l_vertices": split.l_vertices,
            "k2_vertices": split.k2_vertices,
            "l_empty": split.l.m == 0,
            "a_cells": a,
            "a_prime_cells": a_prime,
        }

    node = TraceNode(rule, K, 1 / u, v, data, children)
    if forced is None:
        memo[key] = (u, node)
    return u, node


def _non_dominating(K: FlagSkeleton) -> tuple[int, ...]:
    """The vertices not adjacent to every other vertex, ascending."""
    return tuple(w for w, row in enumerate(K.adj, 1) if row.bit_count() < K.m - 1)


# --------------------------------------------------------------------------
# trace checking and serialization


def _rebuild(node: TraceNode, children: list[PProduct], cutoff: int) -> PProduct:
    """A node's P-form from its children's; each step checks membership in P."""
    data = node.data
    if node.rule == "contractible":
        product = PProduct.trivial(cutoff)
    elif node.rule == "simplex_skeleton":
        wedge = skeleton_simplex_wedge(node.m, data["k"], PairSpec(data["vertex_cells"]))
        product = hilton_milnor(wedge, cutoff)
    elif node.rule == "cone":
        rest, graph = data["rest_vertices"], node.graph
        removed = set(range(1, node.m + 1)).difference(rest)
        if not removed or len(removed) + len(rest) != node.m:
            raise ValueError("the rest is not a proper subset of the vertices")
        if any(graph.adj[w - 1].bit_count() != node.m - 1 for w in removed):
            raise ValueError("a removed vertex does not dominate")
        largest = max(c.bit_count() for c in graph.maximal_cliques())
        if largest > graph.k + 1:
            raise ValueError(f"the node is not flag: it has a clique of {largest} vertices")
        if [child.m for child in node.children] != [len(rest)]:
            raise ValueError("the child does not match the rest's vertex set")
        (product,) = children
    elif node.rule == "pushout":
        sizes = tuple(len(data[f"{side}_vertices"]) for side in ("k1", "k2", "l"))
        if tuple(child.m for child in node.children) != sizes:
            raise ValueError("children do not match the split's vertex sets")
        p1, p2, pl = children
        a, a_prime = CellSeries(data["a_cells"]), CellSeries(data["a_prime_cells"])
        s_join = hilton_milnor(join_cells(a, a_prime), cutoff)
        s_g = loop_half_smash(a_prime, divide_products(p1, pl))
        s_h = loop_half_smash(a, divide_products(p2, pl))
        product = pproduct_mul(pl, porter_loop_wedge([s_join, s_g, s_h], cutoff))
    else:
        raise ValueError(f"unknown trace rule {node.rule!r}")
    if product.series != node.series:
        raise ValueError("the rebuilt series is not the recorded one")
    return product


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
    """Certify a trace: rebuild each node's P-form from its children's, and
    at the root compare the rebuilt factors with the listed ones, those of
    `greedy_factorize(node.series, cutoff)`.

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
        except (ArithmeticError, KeyError, ValueError) as exc:
            where = f"node {i} ({current.rule}, m={current.m})"
            failures.append(f"{where}: {type(exc).__name__}: {exc}")
    return failures


def trace_to_doc(node: TraceNode) -> dict:
    """The trace as a node table: unique_nodes' list, a node's id its
    position in it."""
    nodes = unique_nodes(node)
    ids = {id(current): i for i, current in enumerate(nodes)}
    return {
        "root": len(nodes) - 1,
        "nodes": [
            _node_doc(current, [ids[id(child)] for child in current.children])
            for current in nodes
        ],
    }


def _node_doc(node: TraceNode, children: list[int]) -> dict:
    graph = node.graph
    doc = {
        "rule": node.rule,
        "graph": {"m": graph.m, "k": graph.k, "edges": [list(e) for e in graph.edges()]},
        "series": _doc_value(node.series),
    }
    if node.vertex is not None:
        doc["vertex"] = node.vertex
    if node.data:
        doc["data"] = {k: _doc_value(v) for k, v in node.data.items()}
    if children:
        doc["children"] = children
    return doc


def _doc_value(value):
    if isinstance(value, GradedSeries):
        num, den = value.to_pair()
        return {"num": num, "den": den}
    if isinstance(value, tuple):
        return [_doc_value(v) for v in value]
    return value
