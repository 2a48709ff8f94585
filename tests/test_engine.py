import copy
import itertools
import json
import re
import sys
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from loopdecomp import engine
from loopdecomp.cli import VERTEX_BOUND, resolve_pairs
from loopdecomp.complexes import (
    FlagSkeleton,
    SimplicialComplex,
    classify_input,
    pushout_split,
    validate_complex,
)
from loopdecomp.engine import (
    NotFlagSkeleton,
    PairSpec,
    TraceNode,
    check_trace,
    decompose_loop,
    skeleton_simplex_wedge,
    trace_to_doc,
)
from loopdecomp.homotopy import PProduct, greedy_factorize, pproduct_mul
from loopdecomp.oracle import hochster_table, verify_against_oracle
from loopdecomp.series import GradedSeries

from helpers import (
    CP_PAIRS,
    add,
    clique_faces,
    cp_fiber_pairs,
    cp_pair_fiber_cells,
    decompose_general_pair,
    factor_series,
    forced_split,
    geometric,
    graph_and_k,
    is_point,
    loop_sphere,
    loops_of_cp,
    mask_vertices,
    moment_angle,
    multiplicity,
    neighbors_and_domination,
    node_problems,
    operator_pushout_series,
    operator_skeleton_cells,
    operator_skeleton_series,
    product_cells,
    sphere,
    sub,
)
from randomgen import random_flag_skeleton, relabel


def gs(num, den=(1,)):
    return GradedSeries(tuple(num), tuple(den))


T = GradedSeries.monomial(1)


def square():
    return validate_complex([[1, 2], [2, 3], [3, 4], [1, 4]], 4)


def c5():
    return validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)


class TestPairSpec:
    def test_moment_angle(self):
        # A_i = S^1: each vertex's cells are t
        assert moment_angle(3).cells == (GradedSeries.monomial(1),) * 3

    def test_disks(self):
        pairs = PairSpec.from_suspension_dims([[4]] * 2)
        assert pairs.cells[0] == GradedSeries.monomial(3)
        with pytest.raises(ValueError):
            PairSpec.from_suspension_dims([[1]] * 2)

    def test_suspension_dims(self):
        pairs = PairSpec.from_suspension_dims([[2, 4], [3]])
        assert pairs.cells[0] == gs([0, 1, 0, 1])
        with pytest.raises(ValueError):
            PairSpec.from_suspension_dims([[1]])
        with pytest.raises(ValueError):
            PairSpec.from_suspension_dims([[]])

    @given(st.lists(st.lists(st.integers(2, 40), min_size=1, max_size=30), max_size=6))
    def test_suspension_dims_are_a_sum_of_monomials(self, dims_per_vertex):
        # the dims are counted into one coefficient list: the same fraction
        # as adding one monomial t^(d - 1) per sphere
        pairs = PairSpec.from_suspension_dims(dims_per_vertex)
        for cells, dims in zip(pairs.cells, dims_per_vertex):
            total = GradedSeries.zero()
            for d in dims:
                total = add(total, GradedSeries.monomial(d - 1))
            assert (cells.num, cells.den) == (total.num, total.den)

    def test_product_cells(self):
        # a of vertex 1, and a' of the product over K2 - L = {3, 4} when the
        # only edge is {1, 2}
        G = FlagSkeleton((0b10, 0b1, 0, 0), 1)
        assert engine._pushout_cells(G, 1, moment_angle(4)) == (T, gs([0, 2, 1]))

    def test_polynomial_checked_past_working_degree(self):
        # t - t^25 is negative only in degree 25: a polynomial cell is
        # checked at every degree, whatever the cutoff; the spec itself is
        # stored unchecked, and the run refuses it
        bad = PairSpec((sub(T, GradedSeries.monomial(25)), T, T))
        path = classify_input(validate_complex([[1, 2], [2, 3]], 3))
        for cutoff in (1, 20, 60):
            with pytest.raises(ValueError, match="non-negative"):
                decompose_loop(path, bad, cutoff)
        # a fraction is checked through the cutoff + 1
        decompose_loop(path, PairSpec((cp_pair_fiber_cells(2, 0), T, T)), 60)

    def test_fraction_cells_checked_through_the_cutoff(self):
        # x = t/(1 - t) - 2 t^40 is -1 in degree 40 only: a vertex's cells
        # are a wedge's, read through cutoff + 1, so cutoffs from 39 refuse
        # it and cutoffs to 38 never read that degree
        x = GradedSeries((0, 1) + (0,) * 38 + (-2, 2), (1, -1))
        assert x.expand(41)[39:] == (1, -1, 1)
        pairs = PairSpec((x,) + (T,) * 4)
        cls = classify_input(c5())
        product, trace = decompose_loop(cls, pairs, 20)
        assert check_trace(trace, cls.graph, pairs, 20) == []
        assert verify_against_oracle(c5(), pairs, 20)["status"] == "PASS"
        decompose_loop(cls, pairs, 38)
        for cutoff in (39, 60):
            with pytest.raises(ValueError, match="reduced series must be non-negative"):
                decompose_loop(cls, pairs, cutoff)
            with pytest.raises(ValueError, match="reduced series must be non-negative"):
                check_trace(trace, cls.graph, pairs, cutoff)
        (check,) = verify_against_oracle(c5(), pairs, 60)["checks"]
        assert check["name"] == "decompose" and check["status"] == "FAIL"
        assert check["detail"] == "ValueError: reduced series must be non-negative"

    def test_restrict(self):
        pairs = PairSpec.from_suspension_dims([[2], [3], [4]])
        sub = pairs.restrict(0b101)
        assert sub.cells == (gs([0, 1]), gs([0, 0, 0, 1]))

    def test_only_the_roots_cells_are_checked(self, monkeypatch):
        # restricted specs and the pushout cells are built unchecked: on C8
        # the one check of each distinct vertex series is decompose_loop's
        checked = []
        checkable = GradedSeries.checkable_coeffs

        def counted(self, degree):
            checked.append(self)
            return checkable(self, degree)

        monkeypatch.setattr(GradedSeries, "checkable_coeffs", counted)
        pairs = varied_pairs(8)
        c8 = validate_complex([[i, i % 8 + 1] for i in range(1, 9)], 8)
        _, trace = decompose_loop(classify_input(c8), pairs, 20)
        distinct = list(dict.fromkeys(id(s) for s in pairs.cells))
        assert len(distinct) == 3
        assert [id(s) for s in checked] == distinct
        assert len(engine.unique_nodes(trace)) > 8


class TestSkeletonWedge:
    def test_two_points(self):
        w = skeleton_simplex_wedge(2, 0, moment_angle(2), 21)
        assert w.cells.reduced == GradedSeries.monomial(3)

    def test_three_points(self):
        w = skeleton_simplex_wedge(3, 0, moment_angle(3), 21)
        assert w.cells.reduced == gs([0, 0, 0, 3, 2])

    def test_full_simplex_contractible(self):
        for m in range(1, 5):
            w = skeleton_simplex_wedge(m, m - 1, moment_angle(m), 21)
            assert is_point(w)

    def test_full_simplex_skips_the_sweep(self, monkeypatch):
        # no j in k + 2..m to sum over, so no elementary symmetric product
        products = []
        poly_mul = engine.poly_mul

        def counted(a, b):
            products.append((a, b))
            return poly_mul(a, b)

        monkeypatch.setattr(engine, "poly_mul", counted)
        w = skeleton_simplex_wedge(64, 63, moment_angle(64), 21)
        assert is_point(w) and products == []
        skeleton_simplex_wedge(64, 62, moment_angle(64), 21)
        assert products

    def test_triangle_boundary_is_s5(self):
        w = skeleton_simplex_wedge(3, 1, moment_angle(3), 21)
        assert w.cells.reduced == GradedSeries.monomial(5)

    def test_matches_hochster_for_small_skeleta(self):
        # reduced ranks of the wedge equal the Hochster table of the skeleton
        from randomgen import skeleton

        for m in range(1, 6):
            full = validate_complex([list(range(1, m + 1))], m)
            for k in range(m):
                K = skeleton(full, k)
                w = skeleton_simplex_wedge(m, k, moment_angle(m), 21)
                bound = m + K.dim() + 2
                ranks = {
                    d: c
                    for d, c in enumerate(w.cells.reduced.expand(bound))
                    if c
                }
                assert ranks == hochster_table(K), (m, k)


# Sigma A_i of the custom pairs: [2, 3] is S^2 v S^3
CUSTOM_WEDGES = ([2, 3], [2], [3], [2, 2])


def drawn_pairs(kind, m, rng):
    """Moment-angle, disks:3, custom wedges or projective-pair fibres,
    the last mostly fraction cells, for m vertices."""
    if kind == 0:
        return moment_angle(m)
    if kind == 1:
        return PairSpec.from_suspension_dims([[3]] * m)
    if kind == 2:
        return PairSpec.from_suspension_dims([rng.choice(CUSTOM_WEDGES) for _ in range(m)])
    return cp_fiber_pairs([rng.choice(CP_PAIRS) for _ in range(m)])


class TestClosedForms:
    """The recursion builds each node's series in closed form on its
    children's num and den.  Series are never reduced, and the trace and
    the golden digests hold every num and den, so each must be the very
    fraction the GradedSeries operators give."""

    @settings(max_examples=120, deadline=None)
    @given(graph_and_k(max_m=7), st.integers(0, 3), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3, Random(0))
    @example((4, [(1, 2), (1, 3), (2, 3), (3, 4)], 1), 3, Random(1))
    def test_nodes_match_the_operator_chain(self, graph, kind, rng):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        pairs = drawn_pairs(kind, m, rng)
        _, trace = decompose_loop(classify_input(K), pairs, 20)
        problems = node_problems(trace, FlagSkeleton.of(K), pairs)
        for node, (piece, piece_pairs) in zip(engine.unique_nodes(trace), problems):
            if node.rule == "pushout":
                _, k2, link = (mask for _, mask in pushout_split(piece, node.vertex))
                outside = (piece_pairs.cells[w - 1] for w in mask_vertices(k2 & ~link))
                p1, p2, pl = (child.series for child in node.children)
                a = piece_pairs.cells[node.vertex - 1]
                expect = operator_pushout_series(p1, p2, pl, a, product_cells(outside))
            elif node.rule == "simplex_skeleton":
                dim = piece.simplex_skeleton_dim()
                expect = operator_skeleton_series(operator_skeleton_cells(piece.m, dim, piece_pairs))
            else:
                continue
            assert (node.series.num, node.series.den) == (expect.num, expect.den), node.rule
        for j in range(m):
            cells, expect = engine._skeleton_cells(m, j, pairs), operator_skeleton_cells(m, j, pairs)
            assert (cells.num, cells.den) == (expect.num, expect.den), j


class TestDecompose:
    def test_square_boundary(self):
        product, trace = decompose_loop(classify_input(square()), moment_angle(4), 20)
        assert product.factors == ((loop_sphere(3), 2),)
        assert product.series == gs([1], [1, 0, -2, 0, 1])
        assert product.series.to_pair() == ([1], [1, 0, -2, 0, 1])
        assert check_trace(trace, FlagSkeleton.of(square()), moment_angle(4), 20) == []

    def test_single_vertex(self):
        K = validate_complex([[1]], 1)
        product, trace = decompose_loop(classify_input(K), moment_angle(1), 20)
        assert product.is_trivial()
        assert trace.rule == "contractible"

    def test_path3(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        product, _ = decompose_loop(classify_input(K), moment_angle(3), 20)
        assert product.factors == ((loop_sphere(3), 1),)
        assert product.series == geometric(2)

    def test_not_flag_skeleton(self):
        K = validate_complex([[1, 2, 3], [3, 4], [1, 4]], 4)
        with pytest.raises(NotFlagSkeleton):
            decompose_loop(classify_input(K), moment_angle(4), 20)

    def test_face_closure_is_never_built(self, monkeypatch):
        # the simplex on 12 vertices has 4095 faces and one facet
        def refuse(K):
            raise AssertionError("the decomposition enumerated faces")

        monkeypatch.setattr(SimplicialComplex, "faces", refuse)
        for K in (square(), validate_complex([list(range(1, 13))], 12)):
            decompose_loop(classify_input(K), moment_angle(K.m), 20)

    def test_pair_count_must_match(self):
        with pytest.raises(ValueError):
            decompose_loop(classify_input(square()), moment_angle(3), 20)

    def test_c5_trace_root_is_pushout(self):
        product, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        assert trace.rule == "pushout"
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == []
        doc = trace_to_doc(trace, FlagSkeleton.of(c5()))
        root = doc["nodes"][doc["root"]]
        assert root["rule"] == "pushout"
        assert root["children"]

    def test_heuristic_independence(self):
        # a split at any non-dominating vertex rebuilds the engine's series
        # and factors, which check_trace compares at the root
        rng = Random(4)
        for K in [square(), c5()] + [random_flag_skeleton(rng.randint(3, 6), rng) for _ in range(6)]:
            pairs = moment_angle(K.m)
            info = neighbors_and_domination(K)
            for v in (v for v, rec in info.items() if not rec.dominating):
                root = forced_split(K, pairs, v)
                assert check_trace(root, FlagSkeleton.of(K), pairs, 20) == [], (K.facets, v)

    @settings(max_examples=20, deadline=None)
    @given(graph_and_k(), st.integers(1, 12))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3)
    def test_every_split_vertex_gives_the_product(self, graph, j):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        pairs = moment_angle(m)
        for v, rec in neighbors_and_domination(K).items():
            if not rec.dominating:
                root = forced_split(K, pairs, v)
                assert check_trace(root, FlagSkeleton.of(K), pairs, 12) == [], v
                # a wrong claim at the forced root fails there, and only there
                new_series = root.series * add(1, GradedSeries.monomial(j))
                wrong = TraceNode(root.rule, new_series, root.vertex, root.children)
                where = f"node {len(engine.unique_nodes(root)) - 1} (pushout, m={m})"
                assert check_trace(wrong, FlagSkeleton.of(K), pairs, 12) == [
                    f"{where}: ValueError: the rebuilt series is not the recorded one"
                ], v

    def test_relabeling_invariance(self):
        rng = Random(6)
        for _ in range(6):
            K = random_flag_skeleton(rng.randint(2, 6), rng)
            dims = [[rng.choice([2, 2, 3])] for _ in range(K.m)]
            pairs = PairSpec.from_suspension_dims(dims)
            base, _ = decompose_loop(classify_input(K), pairs, 20)
            perm = list(range(1, K.m + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(K.m)}
            moved = relabel(K, mapping)
            moved_dims = [None] * K.m
            for v in range(1, K.m + 1):
                moved_dims[mapping[v] - 1] = dims[v - 1]
            moved_pairs = PairSpec.from_suspension_dims(moved_dims)
            alt, _ = decompose_loop(classify_input(moved), moved_pairs, 20)
            assert alt.factors == base.factors
            assert alt.series == base.series

    def test_disk_pairs_triangle_boundary(self):
        # (D^3, S^2) on the boundary of a triangle: the wedge is S^8, and
        # Omega S^8 is rewritten into S^7 x Omega S^15
        K = validate_complex([[1, 2], [2, 3], [1, 3]], 3)
        product, _ = decompose_loop(classify_input(K), PairSpec.from_suspension_dims([[3]] * 3), 20)
        assert product.factors == ((sphere(7), 1), (loop_sphere(15), 1))
        assert product.series == geometric(7)

    def test_trace_node_series_are_recorded(self):
        product, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
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
        pairs = moment_angle(6)
        product, trace = decompose_loop(classify_input(K), pairs, 20)
        link, _ = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        assert trace.rule == "cone"
        (child,) = trace.children
        graph, child_pairs = node_problems(trace, FlagSkeleton.of(K), pairs)[_position(trace, child)]
        assert (graph.adj, child_pairs.m) == (FlagSkeleton.of(c5()).adj, 5)
        assert (product.factors, product.series) == (link.factors, link.series)
        assert check_trace(trace, FlagSkeleton.of(K), pairs, 20) == []

    def test_star_costs_one_node(self):
        # C5's star side is the cone on its link, which is the memo's entry
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        k1, _, link = trace.children
        assert k1.rule == "cone" and k1.children == [link]

    def test_not_on_a_non_flag_skeleton(self):
        # the 1-skeleton of v * (triangle + point): v = 1 dominates, but the
        # 2-simplex {2, 3, 4} of the link is not a face, so K is no cone
        edges = [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [3, 4]]
        K = validate_complex(edges, 5)
        pairs = moment_angle(5)
        base, trace = decompose_loop(classify_input(K), pairs, 20)
        assert all(node.rule != "cone" for node in engine.unique_nodes(trace))
        assert check_trace(trace, FlagSkeleton.of(K), pairs, 20) == []
        for v in range(2, 6):
            root = forced_split(K, pairs, v)
            assert all(node.rule != "cone" for node in engine.unique_nodes(root)), v
            assert check_trace(root, FlagSkeleton.of(K), pairs, 20) == [], v
        link = validate_complex([[1, 2], [1, 3], [2, 3], [4]], 4)
        other, _ = decompose_loop(classify_input(link), moment_angle(4), 20)
        assert other.series != base.series

    def test_forced_split_is_a_pushout(self):
        # the engine takes the cone rule at this root; a pushout is valid too
        K = validate_complex([[1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6]], 6)
        root = forced_split(K, moment_angle(6), 1)
        assert check_trace(root, FlagSkeleton.of(K), moment_angle(6), 20) == []


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
        product, trace = decompose_loop(classify_input(K), moment_angle(8), 20)
        assert calls == {"greedy_factorize": 1}
        assert product.factors
        # the proof steps run in the certificate instead
        assert check_trace(trace, FlagSkeleton.of(K), moment_angle(8), 20) == []
        assert calls["divide_products"] and calls["porter_loop_wedge"]

    def test_certificate_factorises_only_pushouts(self, monkeypatch):
        # a contractible, simplex_skeleton or cone node's rebuilt P-form is
        # already that of its recorded series; a pushout's is refactorised
        K = validate_complex([[i, i % 6 + 1] for i in range(1, 7)], 6)
        pairs = moment_angle(6)
        _, trace = decompose_loop(classify_input(K), pairs, 20)
        rules = [node.rule for node in engine.unique_nodes(trace)]
        assert set(rules) == {"contractible", "simplex_skeleton", "cone", "pushout"}
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return greedy_factorize(*args, **kwargs)

        monkeypatch.setattr(engine, "greedy_factorize", counted)
        assert check_trace(trace, FlagSkeleton.of(K), pairs, 20) == []
        assert calls[0] == rules.count("pushout") < len(rules)


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


def sound(trace, graph, pairs, failures):
    """The certificate fails, naming nodes, or each node's series is the
    one the engine's recursion finds for the piece the rules derive for it:
    an edited choice may still be a valid derivation, and then it passes."""
    if failures:
        return failures_name_nodes(failures)
    problems = node_problems(trace, graph, pairs)
    return all(
        engine._decompose(piece, piece_pairs, {}, False).series == node.series
        for node, (piece, piece_pairs) in zip(engine.unique_nodes(trace), problems)
    )


class TestCheckTraceMutations:
    """Each edit of a valid trace, or of the problem it is checked against,
    must make its certificate fail and name a node."""

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.integers(1, 12), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3, Random(0))
    def test_mutations_are_rejected(self, graph, j, rng):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        G, pairs = FlagSkeleton.of(K), varied_pairs(m)
        _, trace = decompose_loop(classify_input(K), pairs, 12)
        assert check_trace(trace, G, pairs, 12) == []
        nodes = engine.unique_nodes(trace)

        def copy_with(index):
            """A deep copy of the trace and its node at the given position."""
            mutated = copy.deepcopy(trace)
            return mutated, engine.unique_nodes(mutated)[index]

        mutated, node = copy_with(rng.randrange(len(nodes)))
        node.series = node.series * add(1, GradedSeries.monomial(j))
        assert failures_name_nodes(check_trace(mutated, G, pairs, 12))

        pushouts = [i for i, n in enumerate(nodes) if n.rule == "pushout"]
        if not pushouts:
            return
        # the star side and the link swapped
        mutated, node = copy_with(rng.choice(pushouts))
        node.children[0], node.children[2] = node.children[2], node.children[0]
        assert sound(mutated, G, pairs, check_trace(mutated, G, pairs, 12))

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.integers(1, 12), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), 3, Random(0))
    def test_problem_mutations_are_rejected(self, graph, j, rng):
        """A valid trace checked against another problem: the graph with an
        edge less, k lowered so that some clique is no face, or the cells of
        one vertex changed."""
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        G, pairs = FlagSkeleton.of(K), varied_pairs(m)
        _, trace = decompose_loop(classify_input(K), pairs, 12)
        if G.edges():
            a, b = rng.choice(G.edges())
            adj = list(G.adj)
            adj[a - 1] &= ~(1 << (b - 1))
            adj[b - 1] &= ~(1 << (a - 1))
            fewer = FlagSkeleton(tuple(adj), G.k)
            assert failures_name_nodes(check_trace(trace, fewer, pairs, 12))
        if G.k:
            lower = FlagSkeleton(G.adj, G.k - 1)
            assert failures_name_nodes(check_trace(trace, lower, pairs, 12))
        # a vertex adjacent to all others may be a cone point, whose cells
        # no series reads
        non_dominating = mask_vertices(engine._non_dominating(G))
        if non_dominating:
            w = rng.choice(non_dominating)
            cells = list(pairs.cells)
            cells[w - 1] = add(cells[w - 1], GradedSeries.monomial(j))
            assert failures_name_nodes(check_trace(trace, G, PairSpec(tuple(cells)), 12))

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k(max_m=8), st.randoms(use_true_random=False))
    @example((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1), Random(0))
    def test_derivation_mutations_are_rejected(self, graph, rng):
        """Each recorded choice is checked against what its rule derives:
        the vertex, the children and each rule's precondition."""
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        G, pairs = FlagSkeleton.of(K), varied_pairs(m)
        _, trace = decompose_loop(classify_input(K), pairs, 12)
        nodes = engine.unique_nodes(trace)
        problems = node_problems(trace, G, pairs)
        pushouts = [i for i, n in enumerate(nodes) if n.rule == "pushout"]
        if not pushouts:
            return
        index = rng.choice(pushouts)
        node = nodes[index]
        graph, node_pairs = problems[index]

        def mutated(edit):
            copied = copy.deepcopy(trace)
            edit(engine.unique_nodes(copied)[index])
            return copied

        # another non-dominating vertex, unless its split has the same pieces
        def pieces(v):
            return [(g, node_pairs.restrict(mask).key()) for g, mask in pushout_split(graph, v)]

        others = [
            w
            for w in mask_vertices(engine._non_dominating(graph))
            if w != node.vertex and pieces(w) != pieces(node.vertex)
        ]
        if others:
            moved = mutated(lambda n: setattr(n, "vertex", rng.choice(others)))
            assert sound(moved, G, pairs, check_trace(moved, G, pairs, 12))

        def fails_at(index, edit, message):
            """The edit of the node at index fails there, with the message."""
            copied = copy.deepcopy(trace)
            edited = engine.unique_nodes(copied)[index]
            edit(edited)
            i = _position(copied, edited)  # a child dropped or added moves the ids
            where = f"node {i} ({edited.rule}, m={problems[index][0].m}): ValueError: "
            assert check_trace(copied, G, pairs, 12) == [where + message]

        # a leaf rule on a node whose graph breaks its precondition: a
        # pushout's graph is neither complete nor edgeless, and has m > 1
        def leaf(rule):
            def edit(n):
                n.rule, n.vertex, n.children = rule, None, []

            return edit

        fails_at(index, leaf("simplex_skeleton"), "the graph is not a skeleton of a simplex")
        fails_at(index, leaf("contractible"), f"a contractible node has {graph.m} vertices")
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
        """A cone's subtree is a trace of the cone's own problem, checked
        here as the root, so the failures land on it."""
        m, edges, _ = graph
        K = validate_complex(clique_faces(m, edges, m), m)  # flag
        G, pairs = FlagSkeleton.of(K), varied_pairs(m)
        _, trace = decompose_loop(classify_input(K), pairs, 12)
        nodes = engine.unique_nodes(trace)
        cones = [i for i, n in enumerate(nodes) if n.rule == "cone"]
        if not cones:
            return
        index = rng.choice(cones)
        cone = nodes[index]
        graph, cone_pairs = node_problems(trace, G, pairs)[index]
        assert check_trace(cone, graph, cone_pairs, 12) == []
        root = f"node {len(engine.unique_nodes(cone)) - 1} (cone, m={graph.m}): ValueError: "
        vertex = validate_complex([[1]], 1)
        _, point = decompose_loop(classify_input(vertex), moment_angle(1), 20)

        def failures(edit=lambda node: None, graph=graph):
            mutated = copy.deepcopy(cone)
            edit(mutated)
            return check_trace(mutated, graph, cone_pairs, 12)

        # w and x join the rest the certificate derives, unless none is left
        dominating = [v for v in range(1, graph.m + 1) if graph.adj[v - 1].bit_count() == graph.m - 1]
        w = rng.choice(dominating)
        x = rng.choice([v for v in range(1, graph.m + 1) if v != w])
        adj = list(graph.adj)
        adj[w - 1] &= ~(1 << (x - 1))
        adj[x - 1] &= ~(1 << (w - 1))
        dropped = FlagSkeleton(tuple(adj), graph.k)
        if mask_vertices(engine._non_dominating(dropped)) == list(range(1, graph.m + 1)):
            assert failures(graph=dropped) == [root + "no vertex dominates"]
        else:
            assert failures_name_nodes(failures(graph=dropped))

        # k below the clique number, so some clique is not a face
        clique_number = max(map(len, clique_faces(graph.m, graph.edges(), graph.m)))
        lower = FlagSkeleton(graph.adj, clique_number - 2)
        assert failures(graph=lower) == [
            root + f"the node is not flag: it has a clique of {clique_number} vertices"
        ]
        # a point for the rest, which has two vertices at least
        rest = engine._non_dominating(graph).bit_count()
        assert failures(lambda node: setattr(node, "children", [point])) == [
            f"node 0 (contractible, m={rest}): ValueError: a contractible node has {rest} vertices"
        ]
        series = cone.series * add(1, GradedSeries.monomial(j))
        assert failures(lambda node: setattr(node, "series", series)) == [
            root + "the rebuilt series is not the recorded one"
        ]

    def test_failure_names_the_node(self):
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        trace.series = trace.series * add(1, T)
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            "node 6 (pushout, m=5): ValueError: the rebuilt series is not the recorded one"
        ]

    def test_root_pairs_must_cover_its_graph(self):
        # the rules read only the first m cells, and no parent restricts the
        # root's pairs: only the vertex count tells the extra pair apart, and
        # it is refused before any node, as decompose_loop refuses it
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        with pytest.raises(ValueError, match="^the pairs cover 6 vertices, the graph 5$"):
            check_trace(trace, FlagSkeleton.of(c5()), moment_angle(6), 20)

    def test_trace_of_another_problem_fails(self):
        # P4's trace against the square, and C5's against disk pairs
        path4 = validate_complex([[1, 2], [2, 3], [3, 4]], 4)
        _, trace = decompose_loop(classify_input(path4), moment_angle(4), 20)
        assert check_trace(trace, FlagSkeleton.of(path4), moment_angle(4), 20) == []
        square_graph = FlagSkeleton.of(square())
        assert failures_name_nodes(check_trace(trace, square_graph, moment_angle(4), 20))
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        disks = PairSpec.from_suspension_dims([[3]] * 5)
        assert failures_name_nodes(check_trace(trace, FlagSkeleton.of(c5()), disks, 20))

    def test_shared_child_fails_at_the_pushout(self):
        # one node for the deletion and the link: it cannot be both pieces
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        trace.children[2] = trace.children[1]
        root = len(engine.unique_nodes(trace)) - 1
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            f"node {root} (pushout, m=5): ValueError: child 2 is also the node of another piece"
        ]

    def test_a_shared_child_fails_at_its_smaller_id_parent(self):
        # the deletion's edge as the root's link too: the root, the larger
        # id, gives it the link's two points, so the deletion fails, and
        # the edge's series is not that of two points
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        trace.children[2] = trace.children[1].children[0]
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            "node 2 (simplex_skeleton, m=2): ValueError: the rebuilt series is not the recorded one",
            "node 5 (pushout, m=4): ValueError: child 0 is also the node of another piece",
        ]

    def test_node_as_its_own_child_fails(self):
        # the root as its own deletion: the same id as its parent, which no
        # other check tells apart from a shared child
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        trace.children[1] = trace
        root = len(engine.unique_nodes(trace)) - 1
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            f"node {root} (pushout, m=5): ValueError: child 1 is the node itself or one above it"
        ]

    def test_node_below_itself_fails(self):
        # the root as a child of its own deletion: the walk stops there
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        deletion = trace.children[1]
        assert deletion.rule == "pushout"
        deletion.children[1] = trace
        i = _position(trace, deletion)
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            f"node {i} (pushout, m=4): ValueError: child 1 is the node itself or one above it"
        ]

    def test_lost_hilton_milnor_factor_fails_where_it_acts(self, monkeypatch):
        # Hilton-Milnor without its lowest factor's series: the first node
        # it acts on, C5's first non-trivial simplex skeleton, fails, and
        # the nodes above it are not checked
        _, trace = decompose_loop(classify_input(c5()), moment_angle(5), 20)
        hilton_milnor = engine.hilton_milnor

        def drop_one(wedge, cutoff):
            product = hilton_milnor(wedge, cutoff)
            if product.is_trivial():
                return product
            return greedy_factorize(product.series / factor_series(product.factors[0][0]), cutoff)

        monkeypatch.setattr(engine, "hilton_milnor", drop_one)
        assert check_trace(trace, FlagSkeleton.of(c5()), moment_angle(5), 20) == [
            "node 0 (simplex_skeleton, m=2): ValueError: the rebuilt series is not the recorded one"
        ]

    def test_lost_porter_residual_fails_where_it_acts(self, monkeypatch):
        # Porter's splitting without the residual wedge's loops, on a
        # triangle with a path 3-4-5: node 3's wedge has one non-trivial
        # summand, so no residual, and the mutant first acts at the root
        K = validate_complex([[1, 2, 3], [3, 4], [4, 5]], 5)
        _, trace = decompose_loop(classify_input(K), moment_angle(5), 20)
        pushouts = [i for i, n in enumerate(engine.unique_nodes(trace)) if n.rule == "pushout"]
        assert pushouts == [3, 5]
        sizes = []

        def no_residual(summands):
            sizes.append(sum(not p.is_trivial() for p in summands))
            product = PProduct(GradedSeries.one(), summands[0].cutoff)
            for p in summands:
                product = pproduct_mul(product, p)
            return product

        monkeypatch.setattr(engine, "porter_loop_wedge", no_residual)
        assert check_trace(trace, FlagSkeleton.of(K), moment_angle(5), 20) == [
            "node 5 (pushout, m=5): ValueError: the rebuilt series is not the recorded one"
        ]
        assert sizes == [1, 2]


class TestLongSparseCertificate:
    """The certificate at 64 vertices, where a node's series has degree
    about m: the path under disk pairs and the cycle under two pair types."""

    @pytest.fixture(scope="class")
    def problems(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pairs") / "two_types.json"
        path.write_text(json.dumps({"suspensions": [[2] if v % 2 else [3, 4] for v in range(64)]}))
        p64 = validate_complex([[i, i + 1] for i in range(1, 64)], 64)
        c64 = validate_complex([[i, i % 64 + 1] for i in range(1, 65)], 64)
        found = []
        for K, spec in ((p64, "disks:3"), (c64, f"custom:{path}")):
            pairs, _ = resolve_pairs(spec, 64)
            _, trace = decompose_loop(classify_input(K), pairs, 20)
            found.append((trace, FlagSkeleton.of(K), pairs))
        return found

    def test_certified(self, problems):
        for trace, graph, pairs in problems:
            assert len(engine.unique_nodes(trace)) > 64
            assert check_trace(trace, graph, pairs, 20) == []

    @pytest.mark.parametrize("which, j", [(0, 1), (0, 7), (1, 2), (1, 12)])
    def test_a_changed_pushout_fails_at_its_node(self, problems, which, j):
        trace, graph, pairs = problems[which]
        pushouts = [i for i, n in enumerate(engine.unique_nodes(trace)) if n.rule == "pushout"]
        sizes = [piece.m for piece, _ in node_problems(trace, graph, pairs)]
        for i in (pushouts[0], pushouts[len(pushouts) // 2], pushouts[-1]):
            mutated = copy.deepcopy(trace)
            node = engine.unique_nodes(mutated)[i]
            node.series = node.series * add(1, GradedSeries.monomial(j))
            assert check_trace(mutated, graph, pairs, 20) == [
                f"node {i} (pushout, m={sizes[i]}): ValueError: the rebuilt series is not the recorded one"
            ]

    def test_no_walk_recurses_on_the_longest_path(self):
        # the path on VERTEX_BOUND vertices has a derivation level per
        # vertex; only the decomposition recurses per level, so the table,
        # the document and the certificate run with 60 frames to spare
        m = VERTEX_BOUND
        K = validate_complex([[i, i + 1] for i in range(1, m)], m)
        pairs, _ = resolve_pairs("disks:3", m)
        _, trace = decompose_loop(classify_input(K), pairs, 20)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            nodes = engine.unique_nodes(trace)
            doc = trace_to_doc(trace, FlagSkeleton.of(K))
            failures = check_trace(trace, FlagSkeleton.of(K), pairs, 20)
        finally:
            sys.setrecursionlimit(limit)
        assert len(doc["nodes"]) == len(nodes) > m
        assert failures == []


class TestNonSimplexLink:
    """Two 4-cliques joined through the degree-2 vertex 9: the root splits
    at 9, whose link {1, 5} is two points, so the certificate divides both
    sides by a nontrivial P-form, the one case in which it does."""

    K = validate_complex([[1, 2, 3, 4], [5, 6, 7, 8], [1, 9], [5, 9]], 9)
    pairs = moment_angle(9)

    def test_verify_passes(self):
        checks = verify_against_oracle(self.K, self.pairs, 20)["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            ("decompose", "PASS"),
            ("trace_identities", "PASS"),
            ("oracle_series", "PASS"),
        ]
        assert checks[1]["detail"] == "all 12 nodes exact"
        assert checks[2]["detail"] == "Hochster prediction"

    def test_divides_by_the_link(self, monkeypatch):
        divisors = []
        divide = engine.divide_products

        def recorded(big, small):
            divisors.append(small)
            return divide(big, small)

        graph = FlagSkeleton.of(self.K)
        link, mask = pushout_split(graph, 9)[2]
        assert (link.adj, mask) == ((0, 0), 0b10001)
        _, trace = decompose_loop(classify_input(self.K), self.pairs, 20)
        monkeypatch.setattr(engine, "divide_products", recorded)
        assert check_trace(trace, graph, self.pairs, 20) == []
        # the root's two divisions, by the link's P-form; every other
        # pushout's link is a simplex, whose P-form is trivial
        assert sum(not p.is_trivial() for p in divisors) == 2

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_a_changed_root_fails_there(self, j):
        _, trace = decompose_loop(classify_input(self.K), self.pairs, 20)
        root = engine.unique_nodes(trace)[-1]
        assert (root.rule, root.vertex) == ("pushout", 9)
        root.series = root.series * add(1, GradedSeries.monomial(j))
        assert check_trace(trace, FlagSkeleton.of(self.K), self.pairs, 20) == [
            "node 11 (pushout, m=9): ValueError: the rebuilt series is not the recorded one"
        ]


class TestTraceTable:
    """trace_to_doc writes each distinct node once, children first."""

    @settings(max_examples=30, deadline=None)
    @given(graph_and_k())
    def test_node_table(self, graph):
        m, edges, k = graph
        K = validate_complex(clique_faces(m, edges, k), m)
        G, pairs = FlagSkeleton.of(K), moment_angle(m)
        _, trace = decompose_loop(classify_input(K), pairs, 12)
        doc = trace_to_doc(trace, G)
        nodes = doc["nodes"]
        assert len(nodes) == len(_unique_nodes(trace))
        assert doc["root"] == len(nodes) - 1
        referenced = [child for node in nodes for child in node.get("children", [])]
        for i, node in enumerate(nodes):
            assert all(child < i for child in node.get("children", []))
        # every node but the root is some node's child; with moment-angle
        # pairs, distinct nodes have distinct graphs, so no node is repeated
        assert set(referenced) | {doc["root"]} == set(range(len(nodes)))
        graphs = [graph for graph, _ in node_problems(trace, G, pairs)]
        assert len(set(graphs)) == len(graphs)
        # only the root has its graph, from which the others are derived
        root_edges = [list(e) for e in sorted(edges)] if k >= 1 else []
        assert nodes[doc["root"]]["graph"] == {"m": m, "k": K.dim(), "edges": root_edges}
        for node in nodes[:-1]:
            assert {"rule", "series"} <= set(node) <= {"rule", "series", "vertex", "children"}
        _, again = decompose_loop(classify_input(K), moment_angle(m), 12)
        assert json.dumps(trace_to_doc(again, G)) == json.dumps(doc)

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
        calls = [0]
        maximal_cliques = FlagSkeleton.maximal_cliques

        def counted_cliques(self):
            calls[0] += 1
            return maximal_cliques(self)

        # the one clique search, which check_trace's cone test also runs
        monkeypatch.setattr(FlagSkeleton, "maximal_cliques", counted_cliques)
        cls = classify_input(K)
        assert calls == [1]
        _, trace = decompose_loop(cls, moment_angle(12), 20)
        # a recursion of many steps; cone nodes keep it at 16
        assert len(_unique_nodes(trace)) >= 16
        assert calls == [1]
        # the engine takes the classification and never sees facets
        assert not {"SimplicialComplex", "classify_input"} & set(vars(engine))


class TestGeneralPair:
    def test_cp_infinity_basepoint(self):
        # (CP^inf, *) on each vertex: m circle factors times the moment-angle answer
        K = validate_complex([[1, 2], [2, 3]], 3)
        loops = [loops_of_cp(None) for _ in range(3)]
        fibers = cp_fiber_pairs([(None, None)] * 3)
        assert fibers.cells == moment_angle(3).cells
        result = decompose_general_pair(K, loops, fibers)
        base, _ = decompose_loop(classify_input(K), moment_angle(3), 20)
        circle = gs([1, 1])
        assert result.series == base.series * circle * circle * circle
        assert multiplicity(result, sphere(1)) == 3

    def test_cp_pair_fiber_cells(self):
        # fiber of (CP^2, CP^0) is S^1 x Omega S^5
        cells = cp_pair_fiber_cells(2, 0)
        assert cells == sub(gs([1, 1]) * geometric(4), 1)
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
        pairs = moment_angle(4)
        base, _ = decompose_loop(classify_input(K), pairs, 20)
        result = decompose_general_pair(K, [PProduct(GradedSeries.one(), 20)] * 4, pairs)
        assert result.series == base.series
        assert result.factors == base.factors

    def test_projective_pair_end_to_end(self):
        # (CP^2, CP^0) on a path: fibers S^1 x Omega S^5 drive the recursion
        K = validate_complex([[1, 2], [2, 3]], 3)
        loops = [loops_of_cp(2) for _ in range(3)]
        fibers = cp_fiber_pairs([(2, 0)] * 3)
        result = decompose_general_pair(K, loops, fibers)
        base, trace = decompose_loop(classify_input(K), fibers, 20)
        assert check_trace(trace, FlagSkeleton.of(K), fibers, 20) == []
        expect = base.series
        for p in loops:
            expect = expect * p.series
        assert result.series == expect
        assert multiplicity(result, sphere(1)) == 3 + multiplicity(base, sphere(1))
