"""Simplicial-complex combinatorics on the vertex set {1..m}.

Complexes are stored by their facets with the downward closure derived on
demand; everything here assumes desk-scale inputs (m up to about 12).
Vertices are 1-based.  Every vertex must appear in some facet: ghost
vertices are rejected rather than interpreted, because each vertex carries
a space pair in the intended application.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb


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
        return max((len(f) for f in self.faces()), default=0) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(f for f in self.faces() if len(f) == 2)

    def adjacency(self) -> dict[int, set[int]]:
        adj = {v: set() for v in self.vertices()}
        for e in self.edges():
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def canonical_key(self):
        return (self.m, self.faces())

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.m == other.m and self.faces() == other.faces()

    def __hash__(self):
        return hash(self.canonical_key())

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
    missing = set(range(1, m + 1)) - seen
    if missing:
        raise GhostVertex(f"vertices {sorted(missing)} lie in no facet")
    return _from_faces(m, facets)


def full_subcomplex(K: SimplicialComplex, S) -> SimplicialComplex:
    """Faces of K contained in S, relabeled to 1..|S| by sorted order.

    An empty S yields the empty complex (needed by the pushout when the
    split vertex is isolated).
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


@dataclass(frozen=True)
class Classification:
    flag: bool
    k_skeleton_of_flag: int | None
    skeleton_of_simplex: tuple[int, int] | None
    chordal_1_skeleton: bool


def minimal_non_faces(K: SimplicialComplex) -> list[frozenset[int]]:
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


def _cliques(adj: dict[int, set[int]]) -> set[frozenset[int]]:
    verts = sorted(adj)
    found = {frozenset()}
    for v in verts:
        new = set()
        for c in found:
            if all(u in adj[v] for u in c):
                new.add(c | {v})
        found |= new
    found.discard(frozenset())
    return found


def classify_input(K: SimplicialComplex) -> Classification:
    """Flag / skeleton-of-flag / skeleton-of-simplex / chordality report."""
    if K.m == 0:
        raise ValueError("classification needs at least one vertex")
    k = K.dim()
    flag = all(len(f) == 2 for f in minimal_non_faces(K))

    cliques = _cliques(K.adjacency())
    skel = {c for c in cliques if len(c) <= k + 1}
    skel.update(frozenset({v}) for v in K.vertices())
    k_flag = k if skel == set(K.nonempty_faces()) else None

    n_faces = len(K.nonempty_faces())
    simplex = (K.m, k) if n_faces == sum(comb(K.m, j) for j in range(1, k + 2)) else None

    return Classification(
        flag=flag,
        k_skeleton_of_flag=k_flag,
        skeleton_of_simplex=simplex,
        chordal_1_skeleton=is_chordal(K.adjacency()),
    )


def lex_bfs_order(adj: dict[int, set[int]]) -> list[int]:
    """Lexicographic BFS ordering; ties break to the smallest vertex."""
    labels = {v: [] for v in adj}
    order = []
    remaining = set(adj)
    counter = len(adj)
    while remaining:
        v = max(remaining, key=lambda u: (labels[u], -u))
        order.append(v)
        remaining.discard(v)
        for u in adj[v]:
            if u in remaining:
                labels[u].append(counter)
        counter -= 1
    return order


def is_chordal(adj: dict[int, set[int]]) -> bool:
    """Chordality via a perfect elimination ordering from LexBFS."""
    if len(adj) <= 2:
        return True
    order = lex_bfs_order(adj)
    elimination = list(reversed(order))
    position = {v: i for i, v in enumerate(elimination)}
    for v in elimination:
        later = [u for u in adj[v] if position[u] > position[v]]
        if not later:
            continue
        parent = min(later, key=position.__getitem__)
        if any(u != parent and u not in adj[parent] for u in later):
            return False
    return True


@dataclass(frozen=True)
class VertexInfo:
    neighbors: frozenset[int]
    dominating: bool


def neighbors_and_domination(K: SimplicialComplex) -> dict[int, VertexInfo]:
    adj = K.adjacency()
    return {
        v: VertexInfo(frozenset(adj[v]), len(adj[v]) == K.m - 1)
        for v in K.vertices()
    }


@dataclass(frozen=True)
class PushoutSplit:
    """K = K1 cup_L K2 split at a non-dominating vertex.

    The vertex tuples map local indices (position + 1) back to K's labels.
    """

    k1: SimplicialComplex
    l: SimplicialComplex
    k2: SimplicialComplex
    k1_vertices: tuple[int, ...]
    l_vertices: tuple[int, ...]
    k2_vertices: tuple[int, ...]


def pushout_split(K: SimplicialComplex, v: int) -> PushoutSplit:
    """Split K at v into the star side, its link boundary and the deletion."""
    if not 1 <= v <= K.m:
        raise BadIndex(f"vertex {v} outside 1..{K.m}")
    nbrs = sorted(K.adjacency()[v])
    if len(nbrs) == K.m - 1:
        raise DominatingVertex(f"vertex {v} is dominating")
    s1 = sorted({v, *nbrs})
    s2 = [u for u in K.vertices() if u != v]
    return PushoutSplit(
        k1=full_subcomplex(K, s1),
        l=full_subcomplex(K, nbrs),
        k2=full_subcomplex(K, s2),
        k1_vertices=tuple(s1),
        l_vertices=tuple(nbrs),
        k2_vertices=tuple(s2),
    )
