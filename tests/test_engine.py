import copy
import itertools
import json
import re
from dataclasses import replace
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from loopdecomp import engine
from loopdecomp.complexes import FlagSkeleton, pushout_split, validate_complex
from loopdecomp.engine import (
    NotFlagSkeleton,
    PairSpec,
    check_trace,
    decompose_loop,
    skeleton_simplex_wedge,
    trace_to_doc,
)
from loopdecomp.homotopy import PProduct, loop_sphere, sphere
from loopdecomp.oracle import hochster_table
from loopdecomp.randomgen import random_flag_skeleton, relabel
from loopdecomp.series import DEFAULT_DEGREE, GradedSeries

from helpers import (
    clique_faces,
    cp_fiber_pairs,
    cp_pair_fiber_cells,
    decompose_general_pair,
    forced_split,
    geometric,
    graph_and_k,
    is_point,
    loops_of_cp,
    multiplicity,
    neighbors_and_domination,
)


def gs(num, den=(1,)):
    return GradedSeries(tuple(num), tuple(den))


T = GradedSeries.monomial(1)


def square():
    return validate_complex([[1, 2], [2, 3], [3, 4], [1, 4]], 4)


def c5():
    return validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)


class TestPairSpec:
    def test_moment_angle(self):
        pairs = PairSpec.moment_angle(3)
        assert pairs.is_moment_angle()
        assert pairs.vertex(2) == GradedSeries.monomial(1)

    def test_disks(self):
        pairs = PairSpec.disks(4, 2)
        assert pairs.vertex(1) == GradedSeries.monomial(3)
        with pytest.raises(ValueError):
            PairSpec.disks(1, 2)

    def test_suspension_dims(self):
        pairs = PairSpec.from_suspension_dims([[2, 4], [3]])
        assert pairs.vertex(1) == gs([0, 1, 0, 1])
        with pytest.raises(ValueError):
            PairSpec.from_suspension_dims([[1]])
        with pytest.raises(ValueError):
            PairSpec.from_suspension_dims([[]])

    def test_product_cells(self):
        # a of vertex 1, and a' of the product over K2 - L = {3, 4} when the
        # only edge is {1, 2}
        split = pushout_split(FlagSkeleton((0b10, 0b1, 0, 0), 1), 1)
        assert engine._pushout_cells(split, PairSpec.moment_angle(4)) == (T, gs([0, 2, 1]))

    def test_polynomial_checked_past_working_degree(self):
        # t - t^25 is negative only in degree 25, beyond DEFAULT_DEGREE
        with pytest.raises(ValueError):
            PairSpec((T - GradedSeries.monomial(25), T, T))
        # a fraction is still checked through the working degree only
        PairSpec((cp_pair_fiber_cells(2, 0), T))

    def test_restrict(self):
        pairs = PairSpec.from_suspension_dims([[2], [3], [4]])
        sub = pairs.restrict((1, 3))
        assert sub.cells == (gs([0, 1]), gs([0, 0, 0, 1]))

    def test_only_the_roots_cells_are_checked(self, monkeypatch):
        # restricted specs and the pushout cells are built unchecked: on C8
        # the one check of each vertex series is the root spec's
        checked = []
        checkable = GradedSeries.checkable_coeffs

        def counted(self, degree):
            checked.append(self)
            return checkable(self, degree)

        monkeypatch.setattr(GradedSeries, "checkable_coeffs", counted)
        pairs = varied_pairs(8)
        c8 = validate_complex([[i, i % 8 + 1] for i in range(1, 9)], 8)
        _, trace = decompose_loop(c8, pairs)
        assert [id(s) for s in checked] == [id(s) for s in pairs.cells]
        assert len(engine.unique_nodes(trace)) > 8


class TestSkeletonWedge:
    def test_two_points(self):
        w = skeleton_simplex_wedge(2, 0, PairSpec.moment_angle(2))
        assert w.cells.reduced == GradedSeries.monomial(3)

    def test_three_points(self):
        w = skeleton_simplex_wedge(3, 0, PairSpec.moment_angle(3))
        assert w.cells.reduced == gs([0, 0, 0, 3, 2])

    def test_full_simplex_contractible(self):
        for m in range(1, 5):
            w = skeleton_simplex_wedge(m, m - 1, PairSpec.moment_angle(m))
            assert is_point(w)

    def test_triangle_boundary_is_s5(self):
        w = skeleton_simplex_wedge(3, 1, PairSpec.moment_angle(3))
        assert w.cells.reduced == GradedSeries.monomial(5)

    def test_matches_hochster_for_small_skeleta(self):
        # reduced ranks of the wedge equal the Hochster table of the skeleton
        from loopdecomp.randomgen import skeleton

        for m in range(1, 6):
            full = validate_complex([list(range(1, m + 1))], m)
            for k in range(m):
                K = skeleton(full, k)
                w = skeleton_simplex_wedge(m, k, PairSpec.moment_angle(m))
                bound = m + K.dim() + 2
                ranks = {
                    d: c
                    for d, c in enumerate(w.cells.reduced.expand(bound))
                    if c
                }
                assert ranks == hochster_table(K).ranks, (m, k)


class TestDecompose:
    def test_square_boundary(self):
        product, trace = decompose_loop(square(), PairSpec.moment_angle(4))
        assert product.factors == ((loop_sphere(3), 2),)
        assert product.series == gs([1], [1, 0, -2, 0, 1])
        assert product.series.to_pair() == ([1], [1, 0, -2, 0, 1])
        assert check_trace(trace, DEFAULT_DEGREE) == []

    def test_single_vertex(self):
        K = validate_complex([[1]], 1)
        product, trace = decompose_loop(K, PairSpec.moment_angle(1))
        assert product.is_trivial()
        assert trace.rule == "contractible"

    def test_path3(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        product, _ = decompose_loop(K, PairSpec.moment_angle(3))
        assert product.factors == ((loop_sphere(3), 1),)
        assert product.series == geometric(2)

    def test_not_flag_skeleton(self):
        K = validate_complex([[1, 2, 3], [3, 4], [1, 4]], 4)
        with pytest.raises(NotFlagSkeleton):
            decompose_loop(K, PairSpec.moment_angle(4))

    def test_face_closure_is_never_built(self):
        # the simplex on 12 vertices has 4095 faces and one facet
        for K in (square(), validate_complex([list(range(1, 13))], 12)):
            product, _ = decompose_loop(K, PairSpec.moment_angle(K.m))
            assert K._faces is None

    def test_pair_count_must_match(self):
        with pytest.raises(ValueError):
            decompose_loop(square(), PairSpec.moment_angle(3))

    def test_c5_trace_root_is_pushout(self):
        product, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        assert trace.rule == "pushout"
        assert check_trace(trace, DEFAULT_DEGREE) == []
        doc = trace_to_doc(trace)
        root = doc["nodes"][doc["root"]]
        assert root["rule"] == "pushout"
        assert root["children"]

    def test_heuristic_independence(self):
        # a split at any non-dominating vertex rebuilds the engine's series
        # and factors, which check_trace compares at the root
        rng = Random(4)
        for K in [square(), c5()] + [random_flag_skeleton(rng.randint(3, 6), rng) for _ in range(6)]:
            pairs = PairSpec.moment_angle(K.m)
            info = neighbors_and_domination(K)
            for v in (v for v, rec in info.items() if not rec.dominating):
                root = forced_split(K, pairs, v)
                assert check_trace(root, DEFAULT_DEGREE) == [], (K.facets, v)

    @settings(max_examples=20, deadline=None)
    @given(graph_and_k(), st.integers(1, 12))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3)
    def test_every_split_vertex_gives_the_product(self, graph, j):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        pairs = PairSpec.moment_angle(m)
        for v, rec in neighbors_and_domination(K).items():
            if not rec.dominating:
                root = forced_split(K, pairs, v)
                assert check_trace(root, 12) == [], v
                # a wrong claim at the forced root fails there, and only there
                wrong = replace(root, series=root.series * (1 + GradedSeries.monomial(j)))
                where = f"node {len(engine.unique_nodes(root)) - 1} (pushout, m={m})"
                assert check_trace(wrong, 12) == [
                    f"{where}: ValueError: the rebuilt series is not the recorded one"
                ], v

    def test_relabeling_invariance(self):
        rng = Random(6)
        for _ in range(6):
            K = random_flag_skeleton(rng.randint(2, 6), rng)
            dims = [[rng.choice([2, 2, 3])] for _ in range(K.m)]
            pairs = PairSpec.from_suspension_dims(dims)
            base, _ = decompose_loop(K, pairs)
            perm = list(range(1, K.m + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(K.m)}
            moved = relabel(K, mapping)
            moved_dims = [None] * K.m
            for v in range(1, K.m + 1):
                moved_dims[mapping[v] - 1] = dims[v - 1]
            alt, _ = decompose_loop(moved, PairSpec.from_suspension_dims(moved_dims))
            assert alt.factors == base.factors
            assert alt.series == base.series

    def test_disk_pairs_triangle_boundary(self):
        # (D^3, S^2) on the boundary of a triangle: the wedge is S^8, and
        # Omega S^8 is rewritten into S^7 x Omega S^15
        K = validate_complex([[1, 2], [2, 3], [1, 3]], 3)
        product, _ = decompose_loop(K, PairSpec.disks(3, 3))
        assert product.factors == ((sphere(7), 1), (loop_sphere(15), 1))
        assert product.series == geometric(7)

    def test_trace_node_series_are_recorded(self):
        product, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        assert trace.series == product.series
        stack = [trace]
        seen = 0
        while stack:
            node = stack.pop()
            seen += 1
            assert node.series.expand(5)
            stack.extend(node.children)
        assert seen >= 4


class TestConeRule:
    """A flag node with a dominating vertex v is the cone v * L: u_K = u_L."""

    def test_cone_has_the_links_answer(self):
        # the cone on the pentagon, as a flag complex: v = 6 joins each edge
        pentagon = [[i, i % 5 + 1] for i in range(1, 6)]
        K = validate_complex([edge + [6] for edge in pentagon], 6)
        product, trace = decompose_loop(K, PairSpec.moment_angle(6))
        link, _ = decompose_loop(c5(), PairSpec.moment_angle(5))
        assert trace.rule == "cone"
        (child,) = trace.children
        assert (child.graph.adj, child.pairs.m) == (FlagSkeleton.of(c5()).adj, 5)
        assert (product.factors, product.series) == (link.factors, link.series)
        assert check_trace(trace, DEFAULT_DEGREE) == []

    def test_star_costs_one_node(self):
        # C5's star side is the cone on its link, which is the memo's entry
        _, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        k1, _, link = trace.children
        assert k1.rule == "cone" and k1.children == [link]

    def test_not_on_a_non_flag_skeleton(self):
        # the 1-skeleton of v * (triangle + point): v = 1 dominates, but the
        # 2-simplex {2, 3, 4} of the link is not a face, so K is no cone
        edges = [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [3, 4]]
        K = validate_complex(edges, 5)
        pairs = PairSpec.moment_angle(5)
        base, trace = decompose_loop(K, pairs)
        assert all(node.rule != "cone" for node in engine.unique_nodes(trace))
        assert check_trace(trace, DEFAULT_DEGREE) == []
        for v in range(2, 6):
            root = forced_split(K, pairs, v)
            assert all(node.rule != "cone" for node in engine.unique_nodes(root)), v
            assert check_trace(root, DEFAULT_DEGREE) == [], v
        link = validate_complex([[1, 2], [1, 3], [2, 3], [4]], 4)
        assert decompose_loop(link, PairSpec.moment_angle(4))[0].series != base.series

    def test_forced_split_is_a_pushout(self):
        # the engine takes the cone rule at this root; a pushout is valid too
        K = validate_complex([[1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6]], 6)
        root = forced_split(K, PairSpec.moment_angle(6), 1)
        assert check_trace(root, DEFAULT_DEGREE) == []


class TestRootOnlyFactorisation:
    def test_one_factorisation_and_no_proof_steps(self, monkeypatch):
        calls = {}
        for name in (
            "greedy_factorize",
            "divide_products",
            "loop_half_smash",
            "porter_loop_wedge",
            "hilton_milnor",
        ):
            original = getattr(engine, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        K = validate_complex([[i, i % 8 + 1] for i in range(1, 9)], 8)
        product, trace = decompose_loop(K, PairSpec.moment_angle(8), 20)
        assert calls == {"greedy_factorize": 1}
        assert product.factors
        # the proof steps run in the certificate instead
        assert check_trace(trace, 20) == []
        assert calls["divide_products"] and calls["porter_loop_wedge"]


def _unique_nodes(trace):
    seen, stack = {}, [trace]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


def varied_pairs(m):
    """Pairs that differ by vertex: Sigma A_v = S^(2 + v mod 3).  Under
    moment-angle pairs a wrong vertex set of the right size has the same
    pairs, so only its graph could tell it apart."""
    return PairSpec.from_suspension_dims([[2 + v % 3] for v in range(1, m + 1)])


def failures_name_nodes(failures):
    """The certificate fails, and each message names a node by its id."""
    return bool(failures) and all(re.match(r"node \d+ \(\w+, m=\d+\): ", f) for f in failures)


def _position(trace, node):
    return next(i for i, n in enumerate(engine.unique_nodes(trace)) if n is node)


class TestCheckTraceMutations:
    """Each edit of a valid trace must make its certificate fail."""

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.integers(1, 12), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3, Random(0))
    def test_mutations_are_rejected(self, graph, j, rng):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        _, trace = decompose_loop(K, varied_pairs(m), 12)
        assert check_trace(trace, 12) == []
        nodes = engine.unique_nodes(trace)

        def copy_with(index):
            """A deep copy of the trace and its node at the given position."""
            mutated = copy.deepcopy(trace)
            return mutated, engine.unique_nodes(mutated)[index]

        mutated, node = copy_with(rng.randrange(len(nodes)))
        node.series = node.series * (1 + GradedSeries.monomial(j))
        assert failures_name_nodes(check_trace(mutated, 12))

        pushouts = [i for i, n in enumerate(nodes) if n.rule == "pushout"]
        if not pushouts:
            return
        index = rng.choice(pushouts)
        where = f"node {index} (pushout, m={nodes[index].m}): ValueError: "

        mutated, node = copy_with(index)
        node.children[0], node.children[2] = node.children[2], node.children[0]
        assert check_trace(mutated, 12) == [where + "child 0 is not the piece the rule derives"]

        # a' changes with the cells of a vertex of K2 - L, which the node's
        # children, or the parent's restriction, no longer match
        mutated, node = copy_with(index)
        split = pushout_split(node.graph, node.vertex)
        w = rng.choice([w for w in split.k2_vertices if w not in split.l_vertices])
        cells = list(node.pairs.cells)
        cells[w - 1] = cells[w - 1] + GradedSeries.monomial(j)
        node.pairs = PairSpec(tuple(cells))
        assert failures_name_nodes(check_trace(mutated, 12))

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), Random(0))
    def test_derivation_mutations_are_rejected(self, graph, rng):
        """Each recorded choice is checked against what its rule derives:
        the vertex, the children and their order, the children's pairs and
        graphs, and each rule's precondition."""
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        _, trace = decompose_loop(K, varied_pairs(m), 12)
        nodes = engine.unique_nodes(trace)
        pushouts = [i for i, n in enumerate(nodes) if n.rule == "pushout"]
        if not pushouts:
            return
        index = rng.choice(pushouts)
        node = nodes[index]
        where = f"node {index} (pushout, m={node.m}): ValueError: "

        def mutated(edit):
            copied = copy.deepcopy(trace)
            edit(engine.unique_nodes(copied)[index])
            return copied

        # another non-dominating vertex, unless its split has the same pieces
        def pieces(v):
            split = pushout_split(node.graph, v)
            return [(g, node.pairs.restrict(vs).key()) for g, vs in engine._pieces(split)]

        others = [
            w
            for w in engine._non_dominating(node.graph)
            if w != node.vertex and pieces(w) != pieces(node.vertex)
        ]
        if others:
            failures = check_trace(mutated(lambda n: setattr(n, "vertex", rng.choice(others))), 12)
            assert len(failures) == 1 and failures[0].startswith(where + "child ")

        # a child with its pairs permuted, or with one edge less
        varied = [c for c in range(3) if len(set(node.children[c].pairs.key())) > 1]
        if varied:
            c = rng.choice(varied)

            def permute(n):
                cells = n.children[c].pairs.cells
                n.children[c].pairs = PairSpec(cells[1:] + cells[:1])

            assert failures_name_nodes(check_trace(mutated(permute), 12))
        with_edges = [c for c in range(3) if any(node.children[c].graph.adj)]
        if with_edges:
            c = rng.choice(with_edges)

            def drop_edge(n):
                child = n.children[c].graph
                a, b = rng.choice(child.edges())
                adj = list(child.adj)
                adj[a - 1] &= ~(1 << (b - 1))
                adj[b - 1] &= ~(1 << (a - 1))
                n.children[c].graph = FlagSkeleton(tuple(adj), child.k)

            assert failures_name_nodes(check_trace(mutated(drop_edge), 12))

        def fails_at(index, edit, message):
            """The edit of the node at index fails there, with the message."""
            copied = copy.deepcopy(trace)
            edited = engine.unique_nodes(copied)[index]
            edit(edited)
            i = _position(copied, edited)  # a child dropped or added moves the ids
            where = f"node {i} ({edited.rule}, m={edited.m}): ValueError: "
            assert check_trace(copied, 12) == [where + message]

        # a leaf rule on a node whose graph breaks its precondition: a
        # pushout's graph is neither complete nor edgeless, and has m > 1
        def leaf(rule):
            def edit(n):
                n.rule, n.vertex, n.children = rule, None, []

            return edit

        fails_at(index, leaf("simplex_skeleton"), "the graph is not a skeleton of a simplex")
        fails_at(index, leaf("contractible"), f"a contractible node has {node.m} vertices")
        # a pushout without its vertex or with a child too few, and a leaf
        # with a vertex or a child
        only_pushouts = "a pushout, and only a pushout, has a vertex"
        fails_at(index, lambda n: setattr(n, "vertex", None), only_pushouts)
        fails_at(index, lambda n: n.children.pop(), "the rule derives 3 children, not 2")
        first_leaf = next(i for i, n in enumerate(nodes) if not n.children)
        fails_at(first_leaf, lambda n: setattr(n, "vertex", 1), only_pushouts)
        fails_at(
            first_leaf,
            lambda n: setattr(n, "children", [copy.deepcopy(n)]),
            "the rule derives 0 children, not 1",
        )

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.integers(1, 12), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3, Random(0))
    def test_cone_mutations_are_rejected(self, graph, j, rng):
        m, edges, _ = graph
        K = validate_complex(clique_faces(m, edges, m), m)  # flag
        _, trace = decompose_loop(K, varied_pairs(m), 12)
        cones = [i for i, n in enumerate(engine.unique_nodes(trace)) if n.rule == "cone"]
        if not cones:
            return
        index = rng.choice(cones)
        _, point = decompose_loop(validate_complex([[1]], 1), PairSpec.moment_angle(1))

        def fails(mutate, message):
            mutated = copy.deepcopy(trace)
            node = engine.unique_nodes(mutated)[index]
            mutate(node)
            i = _position(mutated, node)  # a new child moves the ids
            assert check_trace(mutated, 12) == [f"node {i} (cone, m={node.m}): ValueError: {message}"]

        def dominating(graph):
            return [v for v in range(1, graph.m + 1) if graph.adj[v - 1].bit_count() == graph.m - 1]

        node = engine.unique_nodes(trace)[index]
        w = rng.choice(dominating(node.graph))
        x = rng.choice([v for v in range(1, node.m + 1) if v != w])

        def drop_an_edge(node):
            adj = list(node.graph.adj)
            adj[w - 1] &= ~(1 << (x - 1))
            adj[x - 1] &= ~(1 << (w - 1))
            node.graph = FlagSkeleton(tuple(adj), node.graph.k)

        def lower_k(node):
            # below the clique number, so some clique is not a face
            node.graph = FlagSkeleton(node.graph.adj, clique_number(node) - 2)

        def clique_number(node):
            return max(map(len, clique_faces(node.m, node.graph.edges(), node.m)))

        def multiply_series(node):
            node.series = node.series * (1 + GradedSeries.monomial(j))

        # w and x join the rest the certificate derives, unless none is left
        edited = copy.copy(node)
        drop_an_edge(edited)
        fails(
            drop_an_edge,
            "child 0 is not the piece the rule derives"
            if dominating(edited.graph)
            else "no vertex dominates",
        )
        fails(lower_k, f"the node is not flag: it has a clique of {clique_number(node)} vertices")
        fails(
            lambda node: setattr(node, "children", [point]),
            "child 0 is not the piece the rule derives",
        )
        fails(multiply_series, "the rebuilt series is not the recorded one")

    def test_failure_names_the_node(self):
        _, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        trace.series = trace.series * (1 + T)
        assert check_trace(trace, DEFAULT_DEGREE) == [
            "node 6 (pushout, m=5): ValueError: the rebuilt series is not the recorded one"
        ]

    def test_root_pairs_must_cover_its_graph(self):
        # the rules read only the first m cells, and no parent restricts the
        # root's pairs: only the vertex count tells the extra pair apart
        _, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        trace.pairs = PairSpec.moment_angle(6)
        assert check_trace(trace, DEFAULT_DEGREE) == [
            "node 6 (pushout, m=5): ValueError: the pairs cover 6 vertices, the graph 5"
        ]

    def test_lost_factor_fails_at_the_root(self, monkeypatch):
        # every series still matches: only the root's factor check sees it
        _, trace = decompose_loop(c5(), PairSpec.moment_angle(5))
        hilton_milnor = engine.hilton_milnor

        def drop_one(wedge, cutoff):
            product = hilton_milnor(wedge, cutoff)
            return PProduct(product.series, product.factors[1:], cutoff)

        monkeypatch.setattr(engine, "hilton_milnor", drop_one)
        assert check_trace(trace, DEFAULT_DEGREE) == [
            "node 6 (pushout, m=5): ValueError: the rebuilt factors are not the listed ones"
        ]


class TestTraceTable:
    """trace_to_doc writes each distinct node once, children first."""

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k())
    def test_node_table(self, graph):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        _, trace = decompose_loop(K, PairSpec.moment_angle(m), 12)
        doc = trace_to_doc(trace)
        nodes = doc["nodes"]
        assert len(nodes) == len(_unique_nodes(trace))
        assert doc["root"] == len(nodes) - 1
        referenced = [child for node in nodes for child in node.get("children", [])]
        for i, node in enumerate(nodes):
            assert all(child < i for child in node.get("children", []))
        # every node but the root is some node's child; with moment-angle
        # pairs, distinct nodes have distinct graphs, so no node is repeated
        assert set(referenced) | {doc["root"]} == set(range(len(nodes)))
        graphs = [node.graph for node in engine.unique_nodes(trace)]
        assert len(set(graphs)) == len(graphs)
        # only the root has its graph, from which the others are derived
        root_edges = [list(e) for e in sorted(edges)] if k >= 1 else []
        assert nodes[doc["root"]]["graph"] == {"m": m, "k": K.dim(), "edges": root_edges}
        for node in nodes[:-1]:
            assert {"rule", "series"} <= set(node) <= {"rule", "series", "vertex", "children"}
        _, again = decompose_loop(K, PairSpec.moment_angle(m), 12)
        assert json.dumps(trace_to_doc(again)) == json.dumps(doc)

    def test_facets_only_from_classification(self, monkeypatch):
        # the boundary of the cross-polytope, m = 12: one vertex of each
        # pair {i, i + 6} per facet
        K = validate_complex(
            [
                [i + 6 * side for i, side in zip(range(1, 7), sides)]
                for sides in itertools.product((0, 1), repeat=6)
            ],
            12,
        )
        calls = {"all": 0, "classifying": 0}
        classifying = [False]
        classify = engine.classify_input

        def flagged_classify(complex_):
            classifying[0] = True
            try:
                return classify(complex_)
            finally:
                classifying[0] = False

        maximal_cliques = FlagSkeleton.maximal_cliques

        def counted_cliques(self):
            calls["all"] += 1
            calls["classifying"] += classifying[0]
            return maximal_cliques(self)

        # the one clique search, which check_trace's cone test also runs
        monkeypatch.setattr(FlagSkeleton, "maximal_cliques", counted_cliques)
        monkeypatch.setattr(engine, "classify_input", flagged_classify)
        _, trace = decompose_loop(K, PairSpec.moment_angle(12))
        # a recursion of many steps; cone nodes keep it at 16
        assert len(_unique_nodes(trace)) >= 16
        assert 0 < calls["all"] == calls["classifying"] == 1


class TestGeneralPair:
    def test_cp_infinity_basepoint(self):
        # (CP^inf, *) on each vertex: m circle factors times the moment-angle answer
        K = validate_complex([[1, 2], [2, 3]], 3)
        loops = [loops_of_cp(None) for _ in range(3)]
        fibers = cp_fiber_pairs([(None, None)] * 3)
        assert fibers.is_moment_angle()
        result = decompose_general_pair(K, loops, fibers)
        base, _ = decompose_loop(K, PairSpec.moment_angle(3))
        circle = gs([1, 1])
        assert result.series == base.series * circle * circle * circle
        assert multiplicity(result, sphere(1)) == 3

    def test_cp_pair_fiber_cells(self):
        # fiber of (CP^2, CP^0) is S^1 x Omega S^5
        cells = cp_pair_fiber_cells(2, 0)
        assert cells == (gs([1, 1]) * geometric(4)) - 1
        # infinite ambient space leaves just the sphere
        assert cp_pair_fiber_cells(None, 1) == GradedSeries.monomial(3)
        with pytest.raises(ValueError):
            cp_pair_fiber_cells(2, 2)

    def test_loops_of_cp(self):
        p = loops_of_cp(2)
        assert p.factors == ((sphere(1), 1), (loop_sphere(5), 1))
        assert p.series == gs([1, 1]) * geometric(4)
        assert loops_of_cp(None).factors == ((sphere(1), 1),)

    def test_trivial_ambient_reduces_to_decompose_loop(self):
        K = square()
        pairs = PairSpec.moment_angle(4)
        base, _ = decompose_loop(K, pairs)
        result = decompose_general_pair(K, [PProduct.trivial()] * 4, pairs)
        assert result.series == base.series
        assert result.factors == base.factors

    def test_projective_pair_end_to_end(self):
        # (CP^2, CP^0) on a path: fibers S^1 x Omega S^5 drive the recursion
        K = validate_complex([[1, 2], [2, 3]], 3)
        loops = [loops_of_cp(2) for _ in range(3)]
        fibers = cp_fiber_pairs([(2, 0)] * 3)
        result = decompose_general_pair(K, loops, fibers)
        base, trace = decompose_loop(K, fibers)
        assert check_trace(trace, DEFAULT_DEGREE) == []
        expect = base.series
        for p in loops:
            expect = expect * p.series
        assert result.series == expect
        assert multiplicity(result, sphere(1)) == 3 + multiplicity(base, sphere(1))
