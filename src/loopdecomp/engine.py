"""Loop-space decomposition engine for polyhedral products (CA,A)^K.

For K the k-skeleton of a flag complex and per-vertex spaces A_i whose
suspensions are sphere wedges, the loop space of (CA,A)^K is a finite-type
product of spheres and loops on spheres.  The engine mechanizes the proof:
skeleta of simplices are the base case (an explicit sphere wedge), and
otherwise K splits as a pushout at a non-dominating vertex, whose pieces
are handled by the half-smash, join and wedge splittings and reassembled
with exact Poincare-series arithmetic.  Every step is recorded in a
derivation trace whose nodes can be re-checked as rational identities.
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
    hilton_milnor,
    join_cells,
    loop_half_smash,
    loop_sphere,
    porter_loop_wedge,
    pproduct_mul,
    sphere,
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
    m: int
    facets: tuple
    series: GradedSeries
    vertex: int | None = None
    data: dict = field(default_factory=dict)
    children: list["TraceNode"] = field(default_factory=list)


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
    return _decompose(FlagSkeleton.of(K), pairs, cutoff, {}, split_vertex)


def _decompose(K: FlagSkeleton, pairs, cutoff, memo, forced=None):
    key = (K.adj, K.k, pairs.key(), cutoff)
    if forced is None and key in memo:
        return memo[key]

    if K.m <= 1:
        product = PProduct.trivial(cutoff)
        node = TraceNode("contractible", K.m, K.facets(), product.series)
    else:
        k = K.simplex_skeleton_dim()
        if k is not None:
            wedge = skeleton_simplex_wedge(K.m, k, pairs)
            product = hilton_milnor(wedge, cutoff)
            node = TraceNode(
                "simplex_skeleton",
                K.m,
                K.facets(),
                product.series,
                data={"k": k, "vertex_cells": pairs.cells},
            )
        else:
            # unless forced: the least degree among the non-dominating vertices
            v = forced if forced is not None else min(
                (row.bit_count(), u)
                for u, row in enumerate(K.adj, 1)
                if row.bit_count() < K.m - 1
            )[1]
            split = pushout_split(K, v)
            p1, n1 = _decompose(split.k1, pairs.restrict(split.k1_vertices), cutoff, memo)
            p2, n2 = _decompose(split.k2, pairs.restrict(split.k2_vertices), cutoff, memo)
            pl, nl = _decompose(split.l, pairs.restrict(split.l_vertices), cutoff, memo)
            g = divide_products(p1, pl)
            h = divide_products(p2, pl)
            a = CellSeries(pairs.vertex(v))
            outside = [u for u in split.k2_vertices if u not in split.l_vertices]
            a_prime = pairs.product_cells(outside)
            s_join = hilton_milnor(join_cells(a, a_prime), cutoff)
            s_g = loop_half_smash(a_prime, g)
            s_h = loop_half_smash(a, h)
            wedge_loops = porter_loop_wedge([s_join, s_g, s_h], cutoff)
            product = pproduct_mul(pl, wedge_loops)
            node = TraceNode(
                "pushout",
                K.m,
                K.facets(),
                product.series,
                vertex=v,
                data={
                    "k1_vertices": split.k1_vertices,
                    "l_vertices": split.l_vertices,
                    "k2_vertices": split.k2_vertices,
                    "l_empty": split.l.m == 0,
                    "a_cells": a.reduced,
                    "a_prime_cells": a_prime.reduced,
                },
                children=[n1, n2, nl],
            )

    if forced is None:
        memo[key] = (product, node)
    return product, node


def decompose_general_pair(
    K: SimplicialComplex,
    loops_of_x,
    fibers: PairSpec,
    cutoff: int = DEFAULT_DEGREE,
) -> PProduct:
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


# --------------------------------------------------------------------------
# complex projective presets


def loops_of_cp(n: int | None, cutoff: int = DEFAULT_DEGREE) -> PProduct:
    """Omega CP^n = S^1 x Omega S^(2n+1); n = None means CP^infinity."""
    s1 = GradedSeries((1, 1))
    if n is None:
        return PProduct(s1, ((sphere(1), 1),), cutoff)
    if n < 1:
        raise ValueError("need n >= 1")
    series = s1 * GradedSeries.geometric(2 * n)
    factors = [(sphere(1), 1)]
    if 2 * n <= cutoff:
        factors.append((loop_sphere(2 * n + 1), 1))
    return PProduct(series, tuple(factors), cutoff)


def cp_pair_fiber_cells(n: int | None, m: int | None) -> GradedSeries:
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
    return bottom * GradedSeries.geometric(2 * n) - 1


def cp_fiber_pairs(pairs_spec) -> PairSpec:
    """PairSpec for a list of (n, m) projective pairs, m = None for basepoint."""
    return PairSpec.from_cells(
        tuple(cp_pair_fiber_cells(n, m) for n, m in pairs_spec)
    )


# --------------------------------------------------------------------------
# trace checking and serialization


def _recompute(node: TraceNode) -> GradedSeries:
    if node.rule == "contractible":
        return GradedSeries.one()
    if node.rule == "simplex_skeleton":
        pairs = PairSpec(node.data["vertex_cells"])
        wedge = skeleton_simplex_wedge(node.m, node.data["k"], pairs)
        cells = wedge.cells.reduced
        if cells.is_zero():
            return GradedSeries.one()
        return 1 / (1 - GradedSeries(cells.num[1:], cells.den))
    if node.rule == "pushout":
        k1, k2, l = (child.series for child in node.children)
        g = k1 / l
        h = k2 / l
        a = node.data["a_cells"]
        a_prime = node.data["a_prime_cells"]
        s1 = 1 / (1 - a * a_prime)
        s2 = (1 / (1 - a_prime * (g - 1))) * g
        s3 = (1 / (1 - a * (h - 1))) * h
        total = s1 * s2 * s3
        cross = (
            (s1 - 1) * s2 * s3
            + (s2 - 1) * s1 * s3
            + (s3 - 1) * s1 * s2
        )
        return l * total / (total - cross)
    raise ValueError(f"unknown trace rule {node.rule!r}")


def check_trace(node: TraceNode) -> list[str]:
    """Re-derive every node's series from its rule; list the mismatches."""
    failures = []
    stack = [node]
    while stack:
        current = stack.pop()
        if _recompute(current) != current.series:
            failures.append(f"{current.rule} node on m={current.m} fails its identity")
        stack.extend(current.children)
    return failures


def trace_to_doc(node: TraceNode) -> dict:
    num, den = node.series.to_pair()
    doc = {
        "rule": node.rule,
        "complex": {"m": node.m, "facets": [list(f) for f in node.facets]},
        "series": {"num": num, "den": den},
    }
    if node.vertex is not None:
        doc["vertex"] = node.vertex
    if node.data:
        doc["data"] = {k: _doc_value(v) for k, v in node.data.items()}
    if node.children:
        doc["children"] = [trace_to_doc(c) for c in node.children]
    return doc


def _doc_value(value):
    if isinstance(value, GradedSeries):
        num, den = value.to_pair()
        return {"num": num, "den": den}
    if isinstance(value, tuple):
        return [_doc_value(v) for v in value]
    return value
