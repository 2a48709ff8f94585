import itertools
from math import comb
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from loopdecomp.complexes import (
    BadIndex,
    DominatingVertex,
    FlagSkeleton,
    GhostVertex,
    SimplicialComplex,
    classify_input,
    full_subcomplex,
    is_chordal,
    minimal_non_faces,
    pushout_split,
    validate_complex,
)

from helpers import (
    clique_faces,
    closure,
    face_masks,
    graph_and_k,
    graph_facets,
    has_chordless_long_cycle,
    mask_vertices,
    maximal_faces,
    neighbors_and_domination,
    restricted_facets,
)


def square():
    return validate_complex([[1, 2], [2, 3], [3, 4], [1, 4]], 4)


def path3():
    return validate_complex([[1, 2], [2, 3]], 3)


def as_complex(G):
    return SimplicialComplex(G.m, graph_facets(G))


class TestValidate:
    def test_square_closure(self):
        # 4 vertices + 4 edges, as masks
        vertices, edges = {0b0001, 0b0010, 0b0100, 0b1000}, {0b0011, 0b0110, 0b1100, 0b1001}
        assert square().faces() == vertices | edges

    def test_single_vertex(self):
        K = validate_complex([[1]], 1)
        assert K.faces() == {1}

    def test_ghost_vertex(self):
        with pytest.raises(GhostVertex):
            validate_complex([[1, 2]], 3)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            validate_complex([[0, 1]], 2)
        with pytest.raises(BadIndex):
            validate_complex([[1, 5]], 4)

    def test_facets_are_maximal(self):
        K = validate_complex([[1, 2], [1], [2]], 2)
        assert K.facets == ((1, 2),)

    def test_empty_complex(self):
        K = validate_complex([], 0)
        assert K == SimplicialComplex(0, ())
        assert K.faces() == set() and K.dim() == -1


@st.composite
def raw_facets(draw, m=None):
    """(m, facets): a raw facet list on 1..m, m <= 9, with repeated
    vertices, unsorted facets, duplicates and faces nested in others."""
    m = draw(st.integers(0, 9)) if m is None else m
    if m == 0:
        return 0, []
    facets = draw(st.lists(st.lists(st.integers(1, m), min_size=1, max_size=6), max_size=8))
    for f in draw(st.lists(st.sampled_from(facets), max_size=4)) if facets else []:
        facets.append(f[::-1][: draw(st.integers(1, len(f)))])
    covered = {v for f in facets for v in f}
    facets += [[v] for v in range(1, m + 1) if v not in covered]
    return m, draw(st.permutations(facets))


class TestCanonicalFacets:
    """The masks against a reference that closes the raw facets as frozensets."""

    @settings(max_examples=200, deadline=None)
    @given(raw_facets(), st.data())
    def test_facets_faces_and_restriction(self, raw, data):
        m, facets = raw
        K = validate_complex(facets, m)
        assert K.facets == maximal_faces(closure(facets))
        assert K.faces() == face_masks(closure(facets))
        S = data.draw(st.sets(st.integers(1, m))) if m else set()
        assert full_subcomplex(K, S).facets == restricted_facets(facets, S)

    @settings(max_examples=200, deadline=None)
    @given(raw_facets(), st.data())
    def test_equality_is_equality_of_closures(self, raw, data):
        m, facets = raw
        if data.draw(st.booleans()):
            # the same faces listed another way: every facet's faces, reordered
            other = [list(f) for f in closure(facets)]
            other = data.draw(st.permutations(other))
        else:
            _, other = data.draw(raw_facets(m))
        K, L = validate_complex(facets, m), validate_complex(other, m)
        same = closure(facets) == closure(other)
        assert (K == L) == same
        assert (hash(K) == hash(L)) == same
        assert K != validate_complex(facets + [[m + 1]], m + 1)


class TestFullSubcomplex:
    def test_square_diagonal_is_two_points(self):
        sub = full_subcomplex(square(), {1, 3})
        assert sub.m == 2
        assert sub.facets == ((1,), (2,))

    def test_whole_vertex_set_is_identity(self):
        K = square()
        assert full_subcomplex(K, {1, 2, 3, 4}) == K

    def test_path_restriction_is_edge(self):
        sub = full_subcomplex(path3(), {2, 3})
        assert sub.facets == ((1, 2),)

    def test_empty_subset(self):
        assert full_subcomplex(square(), set()) == SimplicialComplex(0, ())

    def test_composition(self):
        K = validate_complex([[1, 2, 3], [3, 4], [4, 5]], 5)
        once = full_subcomplex(full_subcomplex(K, {1, 2, 3, 4}), {2, 3, 4})
        direct = full_subcomplex(K, {2, 3, 4})
        assert once == direct

    def test_composition_random(self):
        from randomgen import random_flag_skeleton

        rng = Random(14)
        for _ in range(20):
            K = random_flag_skeleton(rng.randint(2, 7), rng)
            outer = sorted(rng.sample(range(1, K.m + 1), rng.randint(1, K.m)))
            inner_local = sorted(
                rng.sample(range(1, len(outer) + 1), rng.randint(1, len(outer)))
            )
            nested = full_subcomplex(full_subcomplex(K, outer), inner_local)
            composed = full_subcomplex(K, [outer[i - 1] for i in inner_local])
            assert nested == composed


class TestClassify:
    def test_square(self):
        cls = classify_input(square())
        assert cls.flag
        assert cls.k_skeleton_of_flag == 1
        assert cls.skeleton_of_simplex is None
        assert not cls.chordal_1_skeleton
        assert minimal_non_faces(square()) == [0b0101, 0b1010]

    def test_triangle_boundary(self):
        K = validate_complex([[1, 2], [2, 3], [1, 3]], 3)
        cls = classify_input(K)
        assert not cls.flag
        assert minimal_non_faces(K) == [0b111]
        assert cls.k_skeleton_of_flag == 1
        assert cls.skeleton_of_simplex == (3, 1)
        assert cls.chordal_1_skeleton

    def test_full_simplex(self):
        for m in range(1, 5):
            K = validate_complex([list(range(1, m + 1))], m)
            cls = classify_input(K)
            assert cls.flag
            assert cls.skeleton_of_simplex == (m, m - 1)
            assert cls.k_skeleton_of_flag == m - 1

    def test_not_a_flag_skeleton(self):
        # a full triangle glued to a square corner: the clique complex of the
        # 1-skeleton acquires {1,3,4}, which K lacks
        K = validate_complex([[1, 2, 3], [3, 4], [1, 4]], 4)
        cls = classify_input(K)
        assert not cls.flag
        assert cls.k_skeleton_of_flag is None
        # a complete 1-skeleton with one of its four triangles
        cls = classify_input(validate_complex([[1, 2, 3], [1, 4], [2, 4], [3, 4]], 4))
        assert not cls.flag
        assert cls.k_skeleton_of_flag is None
        assert cls.skeleton_of_simplex is None

    def test_relabeling_invariance(self):
        rng = Random(5)
        K = validate_complex([[1, 2, 3], [3, 4], [4, 5]], 5)
        base = classify_input(K)
        for _ in range(5):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(5)}
            relabeled = validate_complex(
                [[mapping[v] for v in f] for f in K.facets], 5
            )
            assert classify_input(relabeled) == base

    def test_skeleton_of_flag_closed_under_full_subcomplexes(self):
        rng = Random(11)
        from randomgen import random_flag_skeleton

        for _ in range(20):
            K = random_flag_skeleton(rng.randint(2, 6), rng)
            assert classify_input(K).k_skeleton_of_flag is not None
            size = rng.randint(1, K.m)
            sub = full_subcomplex(K, rng.sample(range(1, K.m + 1), size))
            assert classify_input(sub).k_skeleton_of_flag is not None


class TestNeighbors:
    def test_square_vertex(self):
        info = neighbors_and_domination(square())
        assert info[1].neighbors == frozenset({2, 4})
        assert not info[1].dominating

    def test_simplex_dominating(self):
        K = validate_complex([[1, 2, 3]], 3)
        info = neighbors_and_domination(K)
        assert all(rec.dominating for rec in info.values())

    def test_two_points(self):
        K = validate_complex([[1], [2]], 2)
        info = neighbors_and_domination(K)
        assert info[1].neighbors == frozenset()
        assert not info[1].dominating


class TestPushout:
    def test_square(self):
        (k1, k1_mask), (_, k2_mask), (link, l_mask) = pushout_split(FlagSkeleton.of(square()), 1)
        assert (k1_mask, k2_mask, l_mask) == (0b1011, 0b1110, 0b1010)
        assert graph_facets(link) == ((1,), (2,))
        assert len(k1.edges()) == 2  # the path 4-1-2

    def test_path(self):
        (k1, _), (k2, _), (link, _) = pushout_split(FlagSkeleton.of(path3()), 1)
        assert graph_facets(k1) == ((1, 2),)
        assert graph_facets(link) == ((1,),)
        assert k2.m == 2 and graph_facets(k2) == ((1, 2),)

    def test_two_points(self):
        K = validate_complex([[1], [2]], 2)
        (k1, k1_mask), (k2, k2_mask), (link, l_mask) = pushout_split(FlagSkeleton.of(K), 1)
        assert (k1.m, k2.m, link.m) == (1, 1, 0)
        assert (k1_mask, k2_mask, l_mask) == (0b01, 0b10, 0)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(BadIndex):
            pushout_split(FlagSkeleton.of(path3()), 4)

    def test_dominating_vertex_rejected(self):
        with pytest.raises(DominatingVertex):
            pushout_split(FlagSkeleton.of(validate_complex([[1, 2, 3]], 3)), 1)

    def test_reassembly(self):
        rng = Random(3)
        from randomgen import random_flag_skeleton

        for _ in range(25):
            K = random_flag_skeleton(rng.randint(2, 6), rng)
            info = neighbors_and_domination(K)
            options = [v for v, rec in info.items() if not rec.dominating]
            if not options:
                continue
            v = rng.choice(options)
            back = lambda sub, mask: {
                frozenset(mask_vertices(mask)[i - 1] for i in f)
                for f in closure(graph_facets(sub))
            }
            k1, k2, l = (back(*piece) for piece in pushout_split(FlagSkeleton.of(K), v))
            assert k1 | k2 == closure(K.facets)
            assert k1 & k2 == l


@st.composite
def complexes(draw):
    """k-skeleta of flag complexes, and such skeleta less every face that
    contains a chosen face, or with a few random faces added."""
    m, edges, k = draw(graph_and_k())
    faces = [set(f) for f in clique_faces(m, edges, k)]
    change = draw(st.sampled_from(["none", "hole", "extra"]))
    big = [f for f in faces if len(f) >= 2]
    if change == "hole" and big:
        hole = draw(st.sampled_from(big))
        faces = [f for f in faces if not hole <= f] + [{v} for v in hole]
    elif change == "extra":
        faces += draw(st.lists(st.sets(st.integers(1, m), min_size=1, max_size=4), max_size=3))
    return validate_complex([sorted(f) for f in faces], m)


class TestGraphForm:
    @settings(max_examples=150, deadline=None)
    @given(complexes())
    def test_classification_matches_minimal_non_faces(self, K):
        cls = classify_input(K)
        k = K.dim()
        sizes = {f.bit_count() for f in minimal_non_faces(K)}
        assert cls.flag == all(size == 2 for size in sizes)
        # a k-skeleton of a flag complex also misses the cliques of k + 2 vertices
        admissible = sizes <= {2, k + 2}
        assert cls.k_skeleton_of_flag == (k if admissible else None)
        simplex = len(K.faces()) == sum(comb(K.m, j) for j in range(1, k + 2))
        assert cls.skeleton_of_simplex == ((K.m, k) if simplex else None)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_k(), st.data())
    def test_facets_and_induced_match_the_complex(self, graph, data):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        adj = [0] * m
        for a, b in edges:
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        G = FlagSkeleton(tuple(adj), k)
        assert graph_facets(G) == K.facets
        assert G.edges() == sorted(edges)
        assert graph_facets(FlagSkeleton.of(K)) == K.facets
        S = sorted(data.draw(st.sets(st.integers(1, m))))
        assert as_complex(G.induced(sum(1 << (v - 1) for v in S))) == full_subcomplex(K, S)

    def test_clique_complex_matches_subset_search(self):
        """randomgen's clique complexes, built from the one Bron-Kerbosch,
        have the facets that testing every vertex subset finds."""
        from randomgen import clique_complex, random_chordal_graph, random_graph_complex

        rng = Random(13)
        for trial in range(300):
            m = rng.randint(1, 11)
            if trial % 2:
                graph = random_graph_complex(m, rng, rng.random())
            else:
                graph = random_chordal_graph(m, rng)
            edges = [f for f in graph.facets if len(f) == 2]
            expected = validate_complex(clique_faces(m, edges, m), m)
            assert clique_complex(graph) == expected


class TestChordality:
    def test_square_not_chordal(self):
        assert not classify_input(square()).chordal_1_skeleton

    def test_paths_and_trees_chordal(self):
        assert classify_input(path3()).chordal_1_skeleton

    def test_against_networkx_and_brute_force(self):
        rng = Random(17)
        for _ in range(60):
            m = rng.randint(1, 10)
            adj = {v: set() for v in range(1, m + 1)}
            for a, b in itertools.combinations(range(1, m + 1), 2):
                if rng.random() < 0.5:
                    adj[a].add(b)
                    adj[b].add(a)
            rows = tuple(sum(1 << (u - 1) for u in adj[v]) for v in range(1, m + 1))
            mine = is_chordal(FlagSkeleton(rows, 1))
            g = nx.Graph()
            g.add_nodes_from(adj)
            g.add_edges_from((a, b) for a in adj for b in adj[a] if a < b)
            assert mine == nx.is_chordal(g)
            assert mine == (not has_chordless_long_cycle(adj))
