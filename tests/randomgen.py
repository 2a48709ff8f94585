"""Seeded random inputs for randomized verification sweeps.

Chordal graphs are grown by attaching each new vertex to a clique of the
existing graph, which makes the reverse insertion order a perfect
elimination ordering by construction.  Flag complexes come from random
graphs by taking clique complexes.
"""

from __future__ import annotations

import itertools
from random import Random

from loopdecomp.complexes import FlagSkeleton, SimplicialComplex, validate_complex

from helpers import graph_facets


def random_graph_complex(m: int, rng: Random, edge_prob: float = 0.5) -> SimplicialComplex:
    facets = [[v] for v in range(1, m + 1)]
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            if rng.random() < edge_prob:
                facets.append([a, b])
    return validate_complex(facets, m)


def clique_complex(graph: SimplicialComplex) -> SimplicialComplex:
    """The flag complex of graph's 1-skeleton: its maximal cliques as facets."""
    g = FlagSkeleton.of(graph)
    return validate_complex(graph_facets(g._replace(k=g.m)), g.m)


def skeleton(K: SimplicialComplex, k: int) -> SimplicialComplex:
    """The k-skeleton: the (k + 1)-subsets of K's larger facets, and the rest."""
    faces = [c for f in K.facets for c in itertools.combinations(f, min(len(f), k + 1))]
    return validate_complex(faces, K.m)


def random_flag_complex(m: int, rng: Random) -> SimplicialComplex:
    return clique_complex(random_graph_complex(m, rng))


def random_flag_skeleton(m: int, rng: Random) -> SimplicialComplex:
    flag = random_flag_complex(m, rng)
    return skeleton(flag, rng.randint(0, max(flag.dim(), 0)))


def random_hollow_complex(m: int, rng: Random) -> SimplicialComplex:
    """A random flag complex with each facet of three or more vertices
    replaced, with probability 1/2, by its boundary: such a facet is a
    missing face, so the complex is not flag, and its boundary sphere can
    carry homology above degree 1."""
    facets = []
    for f in random_flag_complex(m, rng).facets:
        hollow = len(f) > 2 and rng.random() < 0.5
        facets.extend(itertools.combinations(f, len(f) - 1) if hollow else [f])
    return validate_complex([list(f) for f in facets], m)


def random_chordal_graph(m: int, rng: Random) -> SimplicialComplex:
    """Chordal graph on m vertices via clique attachments."""
    cliques = [frozenset({1})]
    edges = []
    for v in range(2, m + 1):
        base = rng.choice(cliques)
        attach = [u for u in base if rng.random() < 0.7]
        edges.extend([u, v] for u in attach)
        cliques.append(frozenset(attach) | {v})
    facets = [[u] for u in range(1, m + 1)] + edges
    return validate_complex(facets, m)


def random_chordal_flag_complex(m: int, rng: Random) -> SimplicialComplex:
    return clique_complex(random_chordal_graph(m, rng))


def relabel(K: SimplicialComplex, perm: dict[int, int]) -> SimplicialComplex:
    facets = [[perm[v] for v in f] for f in K.facets]
    return validate_complex(facets, K.m)
