"""Simplicial-complex combinatorics on the vertex set {1..m}.

A face, like every vertex set, is a vertex mask (bit v - 1 for vertex v).
An input complex is stored by its canonical facets, the maximal faces as
ascending tuples in ascending order, so equal complexes have equal fields.
Its faces, which can be exponentially more, are enumerated only for the
face-level checks: the Hochster oracle and minimal non-faces.  A k-skeleton
of a flag complex is carried as its 1-skeleton plus k (`FlagSkeleton`),
where a full subcomplex is the induced subgraph with the same k, so
classification and the decomposition recursion enumerate no faces and no
vertex subsets.  Vertices are 1-based.  Every vertex must appear in some
facet: ghost vertices are rejected rather than interpreted, because each
vertex carries a space pair in the intended application.
"""

from __future__ import annotations

import itertools
import reprlib
from typing import NamedTuple

from .series import Frozen


class BadIndex(ValueError):
    """A vertex index outside 1..m."""


class GhostVertex(ValueError):
    """Some vertex of [m] lies in no facet."""


class BadDocument(ValueError):
    """An input document of the wrong shape or type."""


class DominatingVertex(ValueError):
    """Splitting at a vertex adjacent to every other vertex."""


class TooLarge(ValueError):
    """An input past a desk-scale gate: its vertex count (cli.VERTEX_BOUND),
    the maximal cliques of its 1-skeleton (CLIQUE_BOUND), the Hochster
    table's vertex count, the cell degree of a pair, or the cutoff."""


# the 2n-vertex cross-polytope boundary has 2^n maximal cliques, G(48, 0.85) 20,426
CLIQUE_BOUND = 1 << 16


class SimplicialComplex(Frozen):
    """A complex on {1..m} by its facets (maximal faces): ascending vertex
    tuples in ascending order, as validate_complex builds them, so two
    complexes are equal, and hash alike, exactly when their faces are."""

    __slots__ = ("m", "facets", "_graph", "_classification")

    def __init__(self, m: int, facets: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_graph", None)
        object.__setattr__(self, "_classification", None)

    def __eq__(self, other):
        return type(other) is SimplicialComplex and (self.m, self.facets) == (other.m, other.facets)

    def __hash__(self):
        return hash((self.m, self.facets))

    def faces(self) -> set[int]:
        """The nonempty faces as vertex masks (bit v - 1 for vertex v): the
        submasks of each facet."""
        found = set()
        for facet in self.facets:
            top = _mask(facet)
            face = top
            while face:
                found.add(face)
                face = (face - 1) & top
        return found

    def dim(self) -> int:
        """Dimension, -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def to_doc(self) -> dict:
        return {"m": self.m, "facets": [list(f) for f in self.facets]}


def _mask(vertices) -> int:
    return sum(1 << (v - 1) for v in vertices)


def validate_complex(raw_facets, m: int) -> SimplicialComplex:
    """Build a complex from a raw facet list, establishing all invariants.

    A facet is kept when it is maximal: each vertex has a bitset of the
    distinct facets that contain it, and the AND of these over a facet's
    vertices holds the facets that contain it, only itself when maximal.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise BadDocument(f"m must be an integer, got {reprlib.repr(m)}")
    if m < 0:
        raise BadIndex("m must be >= 0")
    seen = set()
    facets = []
    for facet in raw_facets:
        fs = set()
        for v in facet:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= m:
                raise BadIndex(f"vertex {reprlib.repr(v)} outside 1..{reprlib.repr(m)}")
            fs.add(v)
        if fs:
            facets.append(fs)
            seen.update(fs)
    if len(seen) < m:
        # name a few: m may be far larger than the facet list
        missing = m - len(seen)
        first = list(itertools.islice((v for v in range(1, m + 1) if v not in seen), 5))
        more = f" and {reprlib.repr(missing - len(first))} more" if missing > len(first) else ""
        raise GhostVertex(f"vertices {first}{more} lie in no facet")
    faces = [tuple([*_indices(mask)]) for mask in dict.fromkeys(map(_mask, facets))]
    containing = [0] * m
    for i, face in enumerate(faces):
        for v in face:
            containing[v] |= 1 << i
    maximal = []
    for i, face in enumerate(faces):
        above = -1
        for v in face:
            above &= containing[v]
        if above == 1 << i:
            maximal.append(tuple([v + 1 for v in face]))
    return SimplicialComplex(m, tuple(sorted(maximal)))


def full_subcomplex(K: SimplicialComplex, S) -> SimplicialComplex:
    """Faces of K contained in S, relabeled to 1..|S| by sorted order: the
    maximal traces of K's facets on S.  An empty S yields the empty complex.
    """
    S = sorted(set(S))
    if any(not 1 <= v <= K.m for v in S):
        raise BadIndex(f"subset {S} not within 1..{K.m}")
    index = {v: i for i, v in enumerate(S, 1)}
    return validate_complex([[index[v] for v in f if v in index] for f in K.facets], len(S))


def _indices(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FlagSkeleton(NamedTuple):
    """The k-skeleton of the flag complex of a graph on {1..m}.

    adj[i] is the bitmask of the neighbours of vertex i + 1 (bit j stands
    for vertex j + 1).  The faces are the cliques of at most k + 1 vertices.
    """

    adj: tuple[int, ...]
    k: int

    @classmethod
    def of(cls, K: SimplicialComplex) -> "FlagSkeleton":
        """K's 1-skeleton with k = dim K: the same complex as K exactly when
        K is the k-skeleton of a flag complex, which classify_input tests.
        Read from the facets: the face closure can be exponentially larger.
        Built once and kept on K, so classification, the decomposition and
        the oracle share it."""
        if K._graph is None:
            rows = [0] * K.m
            for facet in K.facets:
                mask = _mask(facet)
                for v in facet:
                    rows[v - 1] |= mask & ~(1 << (v - 1))
            object.__setattr__(K, "_graph", cls(tuple(rows), max(K.dim(), 0)))
        return K._graph

    @property
    def m(self) -> int:
        return len(self.adj)

    def induced(self, mask: int) -> "FlagSkeleton":
        """The full subcomplex on the vertex mask, relabelled 1..n in
        ascending order.  Each kept row maps bit by bit through a table from
        old to new vertex bits, so the cost is the kept vertices and their
        edges, not all pairs."""
        new_bit = {1 << i: 1 << j for j, i in enumerate(_indices(mask))}
        rows = []
        for bit in new_bit:
            row, new_row = self.adj[bit.bit_length() - 1] & mask, 0
            while row:
                low = row & -row
                new_row |= new_bit[low]
                row ^= low
            rows.append(new_row)
        return FlagSkeleton(tuple(rows), self.k)

    def edges(self) -> list[tuple[int, int]]:
        """The edges (i, j), i < j, in ascending order."""
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self.adj)
            for j in _indices(row >> (i + 1) << (i + 1))
        ]

    def simplex_skeleton_dim(self) -> int | None:
        """d when the complex is the d-skeleton of the (m-1)-simplex, else None.

        That is a complete graph (d = min(k, m - 1)) or, with no edges at
        all, the 0-skeleton.
        """
        if all(row.bit_count() == self.m - 1 for row in self.adj):
            return min(self.k, self.m - 1)
        if not any(self.adj):
            return 0
        return None

    def maximal_cliques(self) -> list[int]:
        """The maximal cliques as masks, by Bron-Kerbosch with pivoting; at most CLIQUE_BOUND."""
        found: list[int] = []
        _expand_cliques(self.adj, 0, (1 << self.m) - 1, 0, found)
        return found


def _expand_cliques(adj, clique: int, candidates: int, excluded: int, found: list[int]) -> None:
    """Bron-Kerbosch below clique; a module function, not a closure, so a
    call leaves no reference cycle."""
    if not candidates:
        if not excluded and clique:
            found.append(clique)
            if len(found) > CLIQUE_BOUND:
                raise TooLarge(f"more than {CLIQUE_BOUND} maximal cliques")
        return
    pivot = max(
        _indices(candidates | excluded),
        key=lambda u: (candidates & adj[u]).bit_count(),
    )
    for u in _indices(candidates & ~adj[pivot]):
        _expand_cliques(adj, clique | 1 << u, candidates & adj[u], excluded & adj[u], found)
        candidates &= ~(1 << u)
        excluded |= 1 << u


def _skeleton_facets(cliques, size: int):
    """The facets of the (size - 1)-skeleton of a clique complex, from its
    maximal cliques as masks: ascending tuples, one may come more than once."""
    for clique in cliques:
        members = tuple([i + 1 for i in _indices(clique)])
        if len(members) > size:
            yield from itertools.combinations(members, size)
        else:
            yield members


def _is_skeleton(cliques, size: int, facets) -> bool:
    """Whether `facets` are the skeleton's: each skeleton facet is one of
    them, and there are as many distinct ones.  The walk stops at the first
    one missing, so a clique lists at most one subset more than there are
    facets, not all of its subsets of that size."""
    wanted, found = set(facets), set()
    for facet in _skeleton_facets(cliques, size):
        if facet not in wanted:
            return False
        found.add(facet)
    return len(found) == len(wanted)


class Classification(NamedTuple):
    flag: bool
    k_skeleton_of_flag: int | None
    skeleton_of_simplex: tuple[int, int] | None
    chordal_1_skeleton: bool


def minimal_non_faces(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces as vertex masks, ascending, by a scan of all 2^m
    vertex subsets.  The decomposition never calls it; it is an independent
    check on classify_input."""
    faces = K.faces()
    return [
        subset
        for subset in range(1, 1 << K.m)
        if subset not in faces and all(subset ^ 1 << v in faces for v in _indices(subset))
    ]


def classify_input(K: SimplicialComplex) -> Classification:
    """Flag / skeleton-of-flag / skeleton-of-simplex / chordality report.

    With k = dim K, K is the k-skeleton of a flag complex when its facets
    are those of its graph form, and flag when they are the maximal cliques
    of its 1-skeleton: when it is admissible and no maximal clique has more
    than k + 1 vertices.  Both come from one list of maximal cliques.  A
    k-skeleton of the simplex is admissible, so only an admissible K can be
    one.  The result is kept on K, so the oracle's gate and the
    decomposition classify it once.
    """
    if K._classification is None:
        G = FlagSkeleton.of(K)
        cliques = G.maximal_cliques()
        admissible = _is_skeleton(cliques, G.k + 1, K.facets)
        simplex = admissible and G.simplex_skeleton_dim() is not None
        classification = Classification(
            flag=admissible and max((c.bit_count() for c in cliques), default=0) <= G.k + 1,
            k_skeleton_of_flag=G.k if admissible else None,
            skeleton_of_simplex=(K.m, G.k) if simplex else None,
            chordal_1_skeleton=is_chordal(G),
        )
        object.__setattr__(K, "_classification", classification)
    return K._classification


def is_chordal(G: FlagSkeleton) -> bool:
    """Chordality by maximum cardinality search: the graph is chordal exactly
    when each vertex's neighbours visited before it form a clique (Tarjan and
    Yannakakis)."""
    visited, unvisited = 0, (1 << G.m) - 1
    while unvisited:
        v = max(_indices(unvisited), key=lambda u: (G.adj[u] & visited).bit_count())
        earlier = G.adj[v] & visited
        if any(earlier & ~G.adj[u] != 1 << u for u in _indices(earlier)):
            return False
        visited, unvisited = visited | 1 << v, unvisited & ~(1 << v)
    return True


def pushout_split(K: FlagSkeleton, v: int) -> tuple[tuple[FlagSkeleton, int], ...]:
    """Split K = K1 cup_L K2 at v: the star side K1 (v and its neighbours),
    the deletion K2 (all but v) and the link L (the neighbours), in that
    order, each as its induced graph and its vertex mask in K."""
    if not 1 <= v <= K.m:
        raise BadIndex(f"vertex {v} outside 1..{K.m}")
    bit, link = 1 << (v - 1), K.adj[v - 1]
    if link.bit_count() == K.m - 1:
        raise DominatingVertex(f"vertex {v} is dominating")
    return tuple([(K.induced(mask), mask) for mask in (link | bit, ((1 << K.m) - 1) ^ bit, link)])
