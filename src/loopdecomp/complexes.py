"""Simplicial-complex combinatorics on the vertex set {1..m}.

Input complexes are stored by their facets.  The downward closure, which
can be exponentially larger, is derived on demand for the face-level
checks: the Hochster oracle's faces, minimal non-faces, equality.  A k-skeleton of a flag complex is carried as its 1-skeleton
plus k (`FlagSkeleton`), where a full subcomplex is the induced subgraph
with the same k, so classification and the decomposition recursion
enumerate no faces and no vertex subsets.  Vertices are 1-based.
Every vertex must appear in some facet: ghost vertices are rejected rather
than interpreted, because each vertex carries a space pair in the intended
application.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple


class BadIndex(ValueError):
    """A vertex index outside 1..m."""


class GhostVertex(ValueError):
    """Some vertex of [m] lies in no facet."""


class BadDocument(ValueError):
    """An input document of the wrong shape or type."""


class DominatingVertex(ValueError):
    """Splitting at a vertex adjacent to every other vertex."""


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Faces of a complex on {1..m}, stored by facets (maximal faces)."""

    m: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_graph", None)
        object.__setattr__(self, "_classification", None)

    # -- derived data --------------------------------------------------------

    def faces(self) -> frozenset[frozenset[int]]:
        """Downward closure, including the empty face."""
        if self._faces is None:
            closure = {frozenset()}
            for facet in self.facets:
                fs = tuple(facet)
                for r in range(1, len(fs) + 1):
                    closure.update(frozenset(c) for c in itertools.combinations(fs, r))
            object.__setattr__(self, "_faces", frozenset(closure))
        return self._faces

    def nonempty_faces(self) -> frozenset[frozenset[int]]:
        return frozenset(f for f in self.faces() if f)

    def dim(self) -> int:
        """Dimension, -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.m == other.m and self.faces() == other.faces()

    def __hash__(self):
        return hash((self.m, self.faces()))

    def to_doc(self) -> dict:
        return {"m": self.m, "facets": [list(f) for f in self.facets]}


def _canonical_facets(faces) -> tuple[tuple[int, ...], ...]:
    nonempty = [frozenset(f) for f in faces if f]
    maximal = [f for f in nonempty if not any(f < g for g in nonempty)]
    return tuple(sorted({tuple(sorted(f)) for f in maximal}))


def _from_faces(m: int, faces) -> SimplicialComplex:
    return SimplicialComplex(m, _canonical_facets(faces))


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex(0, ())


def validate_complex(raw_facets, m: int) -> SimplicialComplex:
    """Build a complex from a raw facet list, establishing all invariants."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise BadDocument(f"m must be an integer, got {m!r}")
    if m < 0:
        raise BadIndex("m must be >= 0")
    seen = set()
    facets = []
    for facet in raw_facets:
        fs = set()
        for v in facet:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= m:
                raise BadIndex(f"vertex {v!r} outside 1..{m}")
            fs.add(v)
        if fs:
            facets.append(fs)
            seen.update(fs)
    if len(seen) < m:
        # name a few: m may be far larger than the facet list
        missing = m - len(seen)
        first = list(itertools.islice((v for v in range(1, m + 1) if v not in seen), 5))
        more = f" and {missing - len(first)} more" if missing > len(first) else ""
        raise GhostVertex(f"vertices {first}{more} lie in no facet")
    return _from_faces(m, facets)


def full_subcomplex(K: SimplicialComplex, S) -> SimplicialComplex:
    """Faces of K contained in S, relabeled to 1..|S| by sorted order.

    An empty S yields the empty complex.
    """
    S = sorted(set(S))
    if any(not 1 <= v <= K.m for v in S):
        raise BadIndex(f"subset {S} not within 1..{K.m}")
    if not S:
        return empty_complex()
    index = {v: i + 1 for i, v in enumerate(S)}
    keep = set(S)
    faces = [{index[v] for v in f} for f in K.nonempty_faces() if f <= keep]
    faces.extend({index[v]} for v in S)  # singletons survive restriction
    return _from_faces(len(S), faces)


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
                mask = sum(1 << (v - 1) for v in facet)
                for v in facet:
                    rows[v - 1] |= mask & ~(1 << (v - 1))
            object.__setattr__(K, "_graph", cls(tuple(rows), max(K.dim(), 0)))
        return K._graph

    @property
    def m(self) -> int:
        return len(self.adj)

    def induced(self, vertices) -> "FlagSkeleton":
        """The full subcomplex on the ascending vertices, relabelled 1..len."""
        bits = [1 << (v - 1) for v in vertices]
        return FlagSkeleton(
            tuple(
                sum(1 << j for j, bit in enumerate(bits) if self.adj[v - 1] & bit)
                for v in vertices
            ),
            self.k,
        )

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

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets in validate_complex's order: the maximal cliques of at most
        k + 1 vertices and the (k + 1)-subsets of the larger ones."""
        return _skeleton_facets(self.maximal_cliques(), self.k + 1)

    def maximal_cliques(self) -> list[int]:
        """The maximal cliques as vertex masks, by Bron-Kerbosch with pivoting."""
        adj, found = self.adj, []

        def expand(clique, candidates, excluded):
            if not candidates:
                if not excluded and clique:
                    found.append(clique)
                return
            pivot = max(
                _indices(candidates | excluded),
                key=lambda u: (candidates & adj[u]).bit_count(),
            )
            for u in _indices(candidates & ~adj[pivot]):
                expand(clique | 1 << u, candidates & adj[u], excluded & adj[u])
                candidates &= ~(1 << u)
                excluded |= 1 << u

        expand(0, (1 << self.m) - 1, 0)
        return found


def _skeleton_facets(cliques, size: int) -> tuple[tuple[int, ...], ...]:
    """The facets of the (size - 1)-skeleton of a clique complex, from its
    maximal cliques as masks, in validate_complex's order."""
    found = set()
    for clique in cliques:
        members = tuple(i + 1 for i in _indices(clique))
        if len(members) > size:
            found.update(itertools.combinations(members, size))
        else:
            found.add(members)
    return tuple(sorted(found))


@dataclass(frozen=True)
class Classification:
    flag: bool
    k_skeleton_of_flag: int | None
    skeleton_of_simplex: tuple[int, int] | None
    chordal_1_skeleton: bool


def minimal_non_faces(K: SimplicialComplex) -> list[frozenset[int]]:
    """Minimal non-faces, by a scan of all 2^m vertex subsets.  The
    decomposition never calls it; it is an independent check on
    classify_input."""
    faces = K.faces()
    out = []
    verts = K.vertices()
    for r in range(2, K.m + 1):
        for combo in itertools.combinations(verts, r):
            fs = frozenset(combo)
            if fs in faces:
                continue
            if all(fs - {v} in faces for v in combo):
                out.append(fs)
    return out


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
        admissible = _skeleton_facets(cliques, G.k + 1) == K.facets
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


@dataclass(frozen=True)
class PushoutSplit:
    """K = K1 cup_L K2 split at a non-dominating vertex.

    The vertex tuples map local indices (position + 1) back to K's labels.
    """

    vertex: int
    k1: FlagSkeleton
    l: FlagSkeleton
    k2: FlagSkeleton
    k1_vertices: tuple[int, ...]
    l_vertices: tuple[int, ...]
    k2_vertices: tuple[int, ...]


def pushout_split(K: FlagSkeleton, v: int) -> PushoutSplit:
    """Split K at v into the star side, its link boundary and the deletion."""
    if not 1 <= v <= K.m:
        raise BadIndex(f"vertex {v} outside 1..{K.m}")
    row = K.adj[v - 1]
    if row.bit_count() == K.m - 1:
        raise DominatingVertex(f"vertex {v} is dominating")
    nbrs = tuple(u + 1 for u in _indices(row))
    s1 = tuple(sorted((v, *nbrs)))
    s2 = tuple(u for u in range(1, K.m + 1) if u != v)
    return PushoutSplit(v, K.induced(s1), K.induced(nbrs), K.induced(s2), s1, nbrs, s2)
