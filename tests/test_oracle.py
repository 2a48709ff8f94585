import itertools
import json
import math
import re
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import geometric, moment_angle, subset_homology_table, tuple_face_homology
from loopdecomp import cli, complexes, oracle
from loopdecomp.complexes import (
    FlagSkeleton,
    SimplicialComplex,
    classify_input,
    full_subcomplex,
    validate_complex,
)
from loopdecomp.engine import NotFlagSkeleton, PairSpec, check_trace, decompose_loop
from loopdecomp.homotopy import NotCanonicalP
from loopdecomp.oracle import (
    NotApplicable,
    TooLarge,
    hochster_table,
    predicted_loop_series,
    simplicial_homology_ranks,
    verify_against_oracle,
)
from loopdecomp.series import GradedSeries
from randomgen import random_chordal_flag_complex, random_flag_skeleton


def gs(num, den=(1,)):
    return GradedSeries(tuple(num), tuple(den))


def square():
    return validate_complex([[1, 2], [2, 3], [3, 4], [1, 4]], 4)


# standard 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6],
]
# the octahedron's boundary: vertices i and i + 3 are opposite
OCTAHEDRON_FACETS = [
    [1 + 3 * a, 2 + 3 * b, 3 + 3 * c] for a, b, c in itertools.product((0, 1), repeat=3)
]
# the boundary of the 8-vertex cross-polytope, a 3-sphere: i and i + 4 are opposite
CROSS_POLYTOPE_8_FACETS = [
    [v + 4 * b for v, b in zip(range(1, 5), bits)] for bits in itertools.product((0, 1), repeat=4)
]


class TestHomology:
    def test_two_points(self):
        K = validate_complex([[1], [2]], 2)
        assert simplicial_homology_ranks(K) == {0: 1}

    def test_triangle_boundary(self):
        K = validate_complex([[1, 2], [2, 3], [1, 3]], 3)
        assert simplicial_homology_ranks(K) == {1: 1}

    def test_square_boundary(self):
        assert simplicial_homology_ranks(square()) == {1: 1}

    def test_filled_simplex(self):
        K = validate_complex([[1, 2, 3]], 3)
        assert simplicial_homology_ranks(K) == {}

    def test_empty_complex(self):
        assert simplicial_homology_ranks(validate_complex([], 0)) == {}

    def test_sphere(self):
        # boundary of the tetrahedron is S^2
        K = validate_complex(
            [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], 4
        )
        assert simplicial_homology_ranks(K) == {2: 1}

    def test_rp2_rational_ranks_vanish(self):
        K = validate_complex(RP2_FACETS, 6)
        assert simplicial_homology_ranks(K) == {}

    def test_reduced_euler_characteristic(self):
        rng = Random(8)
        for _ in range(20):
            K = random_flag_skeleton(rng.randint(1, 6), rng)
            ranks = simplicial_homology_ranks(K)
            homological = sum((-1) ** d * r for d, r in ranks.items())
            combinatorial = sum(
                (-1) ** (f.bit_count() - 1) for f in K.faces()
            ) - 1
            assert homological == combinatorial


class TestHochster:
    def test_square(self):
        assert hochster_table(square()) == {3: 2, 6: 1}

    def test_two_points(self):
        K = validate_complex([[1], [2]], 2)
        assert hochster_table(K) == {3: 1}

    def test_c5(self):
        K = validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)
        assert hochster_table(K) == {3: 5, 4: 5, 7: 1}

    def test_discrete_complex_at_the_bound(self):
        # s points have reduced H_0 of rank s - 1: each subset counts once
        K = validate_complex([[v] for v in range(1, 13)], 12)
        assert hochster_table(K) == {s + 1: math.comb(12, s) * (s - 1) for s in range(2, 13)}

    def test_cross_polytope_3_sphere(self):
        # Z_K is (S^3)^4
        K = validate_complex(CROSS_POLYTOPE_8_FACETS, 8)
        assert hochster_table(K) == {3 * j: math.comb(4, j) for j in range(1, 5)}
        assert simplicial_homology_ranks(K) == {3: 1}

    def test_cross_polytope_at_the_bound(self):
        # the boundary of the 12-vertex cross-polytope, a 5-sphere: Z_K is
        # (S^3)^6, so H^(3j) has rank C(6, j), and the faces reach dimension 5
        facets = [
            [v + 6 * b for v, b in zip(range(1, 7), bits)]
            for bits in itertools.product((0, 1), repeat=6)
        ]
        K = validate_complex(facets, 12)
        assert hochster_table(K) == {3 * j: math.comb(6, j) for j in range(1, 7)}

    def test_too_large(self):
        facets = [[v] for v in range(1, 14)]
        K = validate_complex(facets, 13)
        with pytest.raises(TooLarge):
            hochster_table(K)

    def test_degree_bound(self):
        K = square()
        assert max(hochster_table(K)) <= K.m + K.dim() + 1

    def test_matches_direct_resummation(self):
        K = validate_complex([[1, 2], [2, 3], [3, 4], [1, 4], [4, 5]], 5)
        table = hochster_table(K)
        direct = {}
        for size in range(1, K.m + 1):
            for subset in itertools.combinations(range(1, K.m + 1), size):
                for j, r in simplicial_homology_ranks(
                    full_subcomplex(K, subset)
                ).items():
                    direct[j + size + 1] = direct.get(j + size + 1, 0) + r
        assert table == direct

    def test_relabeling_invariance(self):
        from randomgen import relabel

        rng = Random(10)
        K = validate_complex([[1, 2], [2, 3], [3, 4], [1, 4], [4, 5]], 5)
        base = hochster_table(K)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        moved = relabel(K, {i + 1: perm[i] for i in range(5)})
        assert hochster_table(moved) == base


@st.composite
def facet_lists(draw, max_m=8):
    """Complexes from arbitrary facet lists on m <= 8 vertices, flag or not,
    admissible or not."""
    m = draw(st.integers(1, max_m))
    facets = draw(st.lists(st.sets(st.integers(1, m), min_size=1, max_size=5), max_size=8))
    return validate_complex([sorted(f) for f in facets] + [[v] for v in range(1, m + 1)], m)


class TestHochsterRestriction:
    @settings(max_examples=40, deadline=None)
    @given(facet_lists())
    @example(validate_complex(RP2_FACETS, 6))
    @example(validate_complex(RP2_FACETS + [[7]], 7))
    @example(random_chordal_flag_complex(10, Random(3)))
    @example(validate_complex(RP2_FACETS + [[v] for v in range(7, 11)], 10))
    # the boundary of the 5-simplex, H_4 = Q: pivots of dimension >= 3
    @example(validate_complex(list(itertools.combinations(range(1, 7), 5)), 6))
    # the octahedral 2-sphere with a pendant edge: siblings share pivots
    @example(validate_complex(OCTAHEDRON_FACETS + [[6, 7]], 7))
    # a 3-sphere: 3-face pivots clear 2-faces of their own step
    @example(validate_complex(CROSS_POLYTOPE_8_FACETS, 8))
    def test_matches_subset_by_subset_homology(self, K):
        for size in range(1, K.m + 1):
            for subset in itertools.combinations(range(1, K.m + 1), size):
                restricted = full_subcomplex(K, subset)
                assert simplicial_homology_ranks(restricted) == tuple_face_homology(restricted)
        assert hochster_table(K) == subset_homology_table(K)

    @pytest.mark.parametrize(
        "facets, m, cleared",
        [(OCTAHEDRON_FACETS, 6, False), (CROSS_POLYTOPE_8_FACETS, 8, True)],
        ids=["octahedral-2-sphere", "cross-polytope-3-sphere"],
    )
    def test_cleared_faces_are_not_reduced(self, monkeypatch, facets, m, cleared):
        # a face f with top vertex t is new at the 2^(t - |f| + 1) subsets
        # whose top vertex is t and that hold f
        K = validate_complex(facets, m)
        high = [f for f in K.faces() if f.bit_count() > 2]
        new_faces = sum(2 ** (f.bit_length() - f.bit_count()) for f in high)
        calls = Counter()
        reduce = oracle._reduce

        def counted(face, pivots):
            calls[face.bit_count() - 1] += 1
            return reduce(face, pivots)

        monkeypatch.setattr(oracle, "_reduce", counted)
        assert hochster_table(K) == subset_homology_table(K)
        if cleared:
            assert sum(calls.values()) < new_faces
        else:
            # every pivot of a 2-face has an edge as its lowest row, and
            # edges are never reduced: nothing is left to clear
            assert set(calls) == {2} and sum(calls.values()) == new_faces

    def test_faces_are_built_once_and_never_restricted_by_relabelling(self, monkeypatch):
        K = random_chordal_flag_complex(10, Random(3))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        full = counted("full_subcomplex", complexes.full_subcomplex)
        monkeypatch.setattr(complexes, "full_subcomplex", full)
        # a by-name import in oracle would bypass the module attribute
        monkeypatch.setattr(oracle, "full_subcomplex", full, raising=False)
        monkeypatch.setattr(SimplicialComplex, "faces", counted("faces", SimplicialComplex.faces))
        assert K.m == 10 and hochster_table(K)
        assert calls["full_subcomplex"] == 0
        assert calls["faces"] <= 1


class TestPrediction:
    def test_path3(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        assert predicted_loop_series(K, classify_input(K)) == geometric(2)

    def test_path4(self):
        K = validate_complex([[1, 2], [2, 3], [3, 4]], 4)
        assert predicted_loop_series(K, classify_input(K)) == gs([1], [1, 0, -3, -2])

    def test_square_not_applicable(self):
        with pytest.raises(NotApplicable):
            predicted_loop_series(square(), classify_input(square()))

    def test_full_simplex_is_trivial(self):
        K = validate_complex([[1, 2, 3]], 3)
        assert predicted_loop_series(K, classify_input(K)).is_one()

    def test_engine_agrees_on_chordal_flags(self):
        rng = Random(12)
        for _ in range(10):
            K = random_chordal_flag_complex(rng.randint(2, 6), rng)
            cls = classify_input(K)
            product, _ = decompose_loop(cls, moment_angle(K.m), 20)
            predicted = predicted_loop_series(K, cls)
            assert product.series.expand(20) == predicted.expand(20)


class TestVerify:
    def test_path3_passes(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        report = verify_against_oracle(K, moment_angle(3), 20)
        assert report["status"] == "PASS"
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names["oracle_series"] == "PASS"
        assert names["trace_identities"] == "PASS"

    def test_square_uses_known_answer(self):
        report = verify_against_oracle(square(), moment_angle(4), 20)
        assert report["status"] == "PASS"
        oracle = next(c for c in report["checks"] if c["name"] == "oracle_series")
        assert oracle["status"] == "PASS"
        assert "known answer" in oracle["detail"]

    @pytest.mark.parametrize(
        "K",
        [
            validate_complex([[1, 2], [2, 3], [3, 4]], 4),
            validate_complex([[1, 2, 3], [3, 4], [5]], 5),
            random_chordal_flag_complex(7, Random(2)),
        ],
        ids=["path4", "triangle-edge-point", "chordal-flag-m7"],
    )
    def test_wrong_hochster_rank_fails_at_its_degree(self, monkeypatch, K):
        # r_j is the coefficient of t^(j-1) in 1 - (loop series)^-1, so one
        # more in r_j first changes the loop series in degree j - 1
        table = hochster_table(K)
        assert len(table) > 1
        for j in table:
            monkeypatch.setattr(oracle, "hochster_table", lambda K, j=j: {**table, j: table[j] + 1})
            report = verify_against_oracle(K, moment_angle(K.m), 20)
            check = report["checks"][-1]
            assert report["status"] == "FAIL"
            assert (check["name"], check["status"]) == ("oracle_series", "FAIL")
            assert check["first_divergent_degree"] == j - 1
            assert check["detail"] == f"Hochster prediction: first divergent degree {j - 1}"

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_wrong_four_cycle_answer_fails_at_its_degree(self, monkeypatch, degree):
        den = [1, 0, -2, 0, 1]
        den[degree] -= 1
        monkeypatch.setattr(oracle, "_FOUR_CYCLE_LOOP_SERIES", gs([1], den))
        report = verify_against_oracle(square(), moment_angle(4), 20)
        check = report["checks"][-1]
        assert report["status"] == "FAIL"
        assert (check["name"], check["status"]) == ("oracle_series", "FAIL")
        assert check["first_divergent_degree"] == degree
        assert check["detail"] == f"known answer for the 4-cycle: first divergent degree {degree}"

    def test_c5_has_no_external_oracle(self):
        K = validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)
        report = verify_against_oracle(K, moment_angle(5), 20)
        assert report["status"] == "PASS"
        oracle = next(c for c in report["checks"] if c["name"] == "oracle_series")
        assert oracle["status"] == "NOTE"
        assert "no independent oracle" in oracle["detail"]

    def test_non_moment_angle_pairs_note(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        report = verify_against_oracle(K, PairSpec.from_suspension_dims([[3]] * 3), 20)
        assert report["status"] == "PASS"
        oracle = next(c for c in report["checks"] if c["name"] == "oracle_series")
        assert oracle["status"] == "NOTE"

    def test_trace_root_must_be_the_problem(self, monkeypatch):
        # a valid trace of another complex, or of other pairs, is checked
        # from the square and the pairs asked, and fails where it breaks
        path4 = validate_complex([[1, 2], [2, 3], [3, 4]], 4)
        decompose = oracle.decompose_loop
        disks = PairSpec.from_suspension_dims([[3]] * 4)
        for K, pairs in ((path4, moment_angle(4)), (square(), disks)):
            other = classify_input(K)
            monkeypatch.setattr(
                oracle, "decompose_loop", lambda _cls, _p, c: decompose(other, pairs, c)
            )
            report = verify_against_oracle(square(), moment_angle(4), 20)
            _, trace = decompose(other, pairs, 20)
            assert check_trace(trace, FlagSkeleton.of(K), pairs, 20) == []
            failures = check_trace(trace, FlagSkeleton.of(square()), moment_angle(4), 20)
            assert failures and all(re.match(r"node \d+ \(\w+, m=\d+\): ", f) for f in failures)
            check = next(c for c in report["checks"] if c["name"] == "trace_identities")
            assert (check["status"], check["detail"]) == ("FAIL", "; ".join(failures))

    def test_inadmissible_input_is_refused(self):
        # refused as decompose_loop refuses it, not reported as a failed check
        K = validate_complex([[1, 2, 3], [3, 4], [1, 4]], 4)
        with pytest.raises(NotFlagSkeleton):
            verify_against_oracle(K, moment_angle(4), 20)

    def test_engine_failure_reports_failure(self, monkeypatch):
        def fail(*args):
            raise NotCanonicalP("no canonical factorisation")

        monkeypatch.setattr(oracle, "decompose_loop", fail)
        report = verify_against_oracle(square(), moment_angle(4), 20)
        assert report == {
            "status": "FAIL",
            "checks": [
                {
                    "name": "decompose",
                    "status": "FAIL",
                    "detail": "NotCanonicalP: no canonical factorisation",
                }
            ],
        }

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of classifications (by their one is_chordal) and graph
        builds: with nothing kept on K, a second one would be paid in full."""
        calls = Counter()
        chordal, of = complexes.is_chordal, FlagSkeleton.of.__func__

        def counted_chordal(G):
            calls["is_chordal"] += 1
            return chordal(G)

        def counted_of(cls, K):
            calls["FlagSkeleton.of"] += 1
            return of(cls, K)

        monkeypatch.setattr(complexes, "is_chordal", counted_chordal)
        monkeypatch.setattr(FlagSkeleton, "of", classmethod(counted_of))
        return calls

    def test_classifies_once(self, builds):
        # the oracle's gate, decompose_loop and the certificate share one
        # classification and its graph
        K = random_chordal_flag_complex(8, Random(5))
        builds.clear()
        assert verify_against_oracle(K, moment_angle(K.m), 20)["status"] == "PASS"
        assert builds == {"is_chordal": 1, "FlagSkeleton.of": 1}

    @pytest.mark.parametrize("command", ["check", "decompose --trace", "verify"])
    def test_cli_classifies_once(self, builds, tmp_path, command):
        K = random_chordal_flag_complex(8, Random(5))
        path, out = tmp_path / "k.json", tmp_path / "out.json"
        path.write_text(json.dumps(K.to_doc()))
        builds.clear()
        assert cli.main([*command.split(), "--input", str(path), "--output", str(out)]) == 0
        assert builds == {"is_chordal": 1, "FlagSkeleton.of": 1}

    def test_report_document_shape(self):
        K = validate_complex([[1, 2], [2, 3]], 3)
        doc = verify_against_oracle(K, moment_angle(3), 20)
        assert doc["status"] == "PASS"
        assert all("name" in c and "status" in c for c in doc["checks"])
