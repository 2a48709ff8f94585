import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from loopdecomp import cli, oracle
from loopdecomp.cli import (
    CUTOFF_BOUND,
    EXIT_INADMISSIBLE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    PAIR_DIM_BOUND,
    VERTEX_BOUND,
    main,
    resolve_pairs,
)
from loopdecomp.complexes import CLIQUE_BOUND
from loopdecomp.engine import PairSpec
from loopdecomp.series import GradedSeries

SRC = Path(__file__).resolve().parent.parent / "src"


def write_complex(tmp_path, name, m, facets):
    path = tmp_path / name
    path.write_text(json.dumps({"m": m, "facets": facets}))
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    return write_complex(tmp_path, "square.json", 4, [[1, 2], [2, 3], [3, 4], [1, 4]])


@pytest.fixture
def c5_json(tmp_path):
    return write_complex(
        tmp_path, "c5.json", 5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    )


class TestDecompose:
    def test_square(self, square_json, tmp_path):
        out = tmp_path / "out.json"
        rc = main(
            [
                "decompose",
                "--input",
                square_json,
                "--pairs",
                "moment-angle",
                "--cutoff",
                "20",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["factors"] == [{"kind": "loop_sphere", "dim": 3, "mult": 2}]
        assert doc["series"] == {"num": [1], "den": [1, 0, -2, 0, 1]}
        assert doc["expansion"][:7] == [1, 0, 2, 0, 3, 0, 4]

    def test_point(self, tmp_path):
        path = write_complex(tmp_path, "point.json", 1, [[1]])
        out = tmp_path / "out.json"
        rc = main(["decompose", "--input", path, "--output", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["factors"] == []
        assert doc["series"] == {"num": [1], "den": [1]}

    def test_c5_trace_root_rule(self, c5_json, tmp_path):
        out = tmp_path / "out.json"
        rc = main(
            [
                "decompose",
                "--input",
                c5_json,
                "--pairs",
                "disks:3",
                "--trace",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        root = doc["trace"]["nodes"][doc["trace"]["root"]]
        assert root["rule"] == "pushout"
        assert len(root["children"]) == 3
        assert "vertex" in root

    def test_deterministic_output(self, square_json, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["decompose", "--input", square_json, "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout(self, square_json, capsys):
        assert main(["decompose", "--input", square_json]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "decompose"


class TestCheck:
    def test_square(self, square_json, capsys):
        assert main(["check", "--input", square_json]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["flag"] is True
        assert doc["k_skeleton_of_flag"] == 1
        assert doc["chordal_1_skeleton"] is False
        assert doc["admissible"] is True

    def test_empty_complex(self, tmp_path, capsys):
        path = write_complex(tmp_path, "empty.json", 0, [])
        assert main(["check", "--input", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["flag"] is True and doc["admissible"] is True
        assert doc["k_skeleton_of_flag"] == 0
        assert doc["skeleton_of_simplex"] == [0, 0]
        assert doc["chordal_1_skeleton"] is True

    def test_inadmissible_complex_reported(self, tmp_path, capsys):
        path = write_complex(tmp_path, "bad.json", 4, [[1, 2, 3], [3, 4], [1, 4]])
        assert main(["check", "--input", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is False

    def test_large_clique_is_refused_at_its_first_missing_subset(self, tmp_path, capsys):
        # one 11-vertex facet and every edge on 40 vertices: the 1-skeleton
        # is one clique with C(40, 11) ~ 2.3e9 subsets of 11 vertices, and
        # the second of them is not a face
        facets = [list(range(1, 12))] + [
            [i, j] for i in range(1, 41) for j in range(max(i + 1, 12), 41)
        ]
        path = write_complex(tmp_path, "clique.json", 40, facets)
        assert main(["check", "--input", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["admissible"] is False
        assert main(["decompose", "--input", path]) == EXIT_INADMISSIBLE


class TestVerify:
    def test_path3(self, tmp_path, capsys):
        path = write_complex(tmp_path, "p3.json", 3, [[1, 2], [2, 3]])
        assert main(["verify", "--input", path, "--pairs", "moment-angle"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"

    def test_square_known_answer(self, square_json, capsys):
        assert main(["verify", "--input", square_json]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"

    @pytest.mark.parametrize("pairs", ["moment-angle", "disks:3"])
    def test_empty_complex(self, tmp_path, capsys, pairs):
        # Z_K is a point: the Hochster prediction is the series 1
        path = write_complex(tmp_path, "empty.json", 0, [])
        assert main(["verify", "--input", path, "--pairs", pairs]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert {c["name"]: c["status"] for c in doc["checks"]}["oracle_series"] == "PASS"
        assert doc["checks"][0]["expansion"] == [1] + [0] * 20

    @pytest.mark.parametrize(
        "m, facets, pairs, oracle_status",
        [
            (5, [[1, 2, 3], [2, 3, 4], [4, 5]], "moment-angle", "PASS"),
            (4, [[1, 2], [2, 3], [3, 4], [1, 4]], "moment-angle", "PASS"),
            (5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], "moment-angle", "NOTE"),
            (4, [[1, 2], [2, 3], [3, 4], [1, 4]], "disks:3", "NOTE"),
            (4, [[1, 2], [2, 3], [3, 4]], "moment-angle", "FAIL"),
        ],
        ids=["chordal-pass", "square-anchor", "c5-note", "disks-note", "hochster-fail"],
    )
    def test_report_is_the_written_document(
        self, tmp_path, capsys, monkeypatch, m, facets, pairs, oracle_status
    ):
        # the oracle's return is what verify writes below its header, key
        # for key and in order, and exit 3 means its status is FAIL
        if oracle_status == "FAIL":
            table = oracle.hochster_table
            monkeypatch.setattr(oracle, "hochster_table", lambda K: (r := table(K)) | {3: r[3] + 1})
        path = write_complex(tmp_path, "k.json", m, facets)
        code = main(["verify", "--input", path, "--pairs", pairs])
        doc = json.loads(capsys.readouterr().out)
        report = oracle.verify_against_oracle(cli.load_complex(path), resolve_pairs(pairs, m)[0])
        assert list(doc) == ["command", "input", "pairs", "cutoff", "status", "checks"]
        written = {"status": doc["status"], "checks": doc["checks"]}
        assert json.dumps(written) == json.dumps(report)
        assert report["checks"][-1]["name"] == "oracle_series"
        assert report["checks"][-1]["status"] == oracle_status
        assert report["status"] == ("FAIL" if oracle_status == "FAIL" else "PASS")
        assert code == (EXIT_INTERNAL if oracle_status == "FAIL" else EXIT_OK)


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", "--input", str(bad)]) == EXIT_INPUT

    def test_missing_file(self, capsys):
        assert main(["decompose", "--input", "/nonexistent.json"]) == EXIT_INPUT

    def test_ghost_vertex(self, tmp_path, capsys):
        path = write_complex(tmp_path, "ghost.json", 3, [[1, 2]])
        assert main(["decompose", "--input", path]) == EXIT_INPUT

    def test_ghost_vertices_of_a_large_m(self, tmp_path, capsys):
        path = write_complex(tmp_path, "ghost.json", 10**6, [[1]])
        assert main(["decompose", "--input", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err[:300]

    @pytest.mark.parametrize("command", ["check", "decompose", "verify"])
    def test_vertex_bound(self, tmp_path, capsys, command):
        # a long path overflows the recursion limit in the decomposition,
        # the only code that recurses per derivation level (check_trace and
        # unique_nodes walk the node table); past the bound it is refused
        # once read
        m = VERTEX_BOUND + 1
        path = write_complex(tmp_path, "path.json", m, [[v, v + 1] for v in range(1, m)])
        assert main([command, "--input", path]) == EXIT_INADMISSIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[TooLarge]: m = {m} exceeds the bound {VERTEX_BOUND}\n"

    def test_clique_bound(self, tmp_path, capsys):
        # the 1-skeleton of the 40-vertex cross-polytope boundary (vertex
        # 2i - 1 opposite 2i), as its 760 edges with k = 1, has 2^20 maximal
        # cliques, 16 times the bound
        edges = [[i, j] for i in range(1, 41) for j in range(i + 1, 41) if (i - 1) ^ 1 != j - 1]
        path = write_complex(tmp_path, "cross.json", 40, edges)
        for args in (
            ["check"],
            ["decompose"],
            ["verify", "--pairs", "moment-angle"],
            ["verify", "--pairs", "disks:3"],
        ):
            start = time.perf_counter()
            assert main([*args, "--input", path]) == EXIT_INADMISSIBLE
            assert time.perf_counter() - start < 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error[TooLarge]: more than {CLIQUE_BOUND} maximal cliques\n"

    def test_simplex_at_the_vertex_bound_decomposes(self, tmp_path, capsys):
        m = VERTEX_BOUND
        path = write_complex(tmp_path, "simplex.json", m, [list(range(1, m + 1))])
        assert main(["decompose", "--input", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["factors"] == []

    def test_verify_gates_the_hochster_table_before_decomposing(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("decompose_loop ran before the vertex bound")

        monkeypatch.setattr(oracle, "decompose_loop", refuse)
        path = write_complex(tmp_path, "p13.json", 13, [[v, v + 1] for v in range(1, 13)])
        assert main(["verify", "--input", path]) == EXIT_INADMISSIBLE
        assert capsys.readouterr().err == "error[TooLarge]: m = 13 exceeds the bound 12\n"

    @pytest.mark.parametrize(
        "pairs, facets",
        [
            ("disks:3", [[v, v + 1] for v in range(1, 13)]),
            ("moment-angle", [[v, v % 13 + 1] for v in range(1, 14)]),
        ],
        ids=["path-with-disks", "non-chordal-cycle"],
    )
    def test_verify_without_a_hochster_prediction_is_not_gated(
        self, tmp_path, capsys, pairs, facets
    ):
        path = write_complex(tmp_path, "k13.json", 13, facets)
        assert main(["verify", "--input", path, "--pairs", pairs]) == EXIT_OK
        oracle_check = json.loads(capsys.readouterr().out)["checks"][-1]
        assert oracle_check["name"] == "oracle_series" and oracle_check["status"] == "NOTE"

    def test_not_flag_skeleton(self, tmp_path, capsys):
        path = write_complex(tmp_path, "bad.json", 4, [[1, 2, 3], [3, 4], [1, 4]])
        assert main(["decompose", "--input", path]) == EXIT_INADMISSIBLE

    def test_verify_refuses_a_non_flag_skeleton(self, tmp_path, capsys):
        # as decompose does: exit 2 and one error line, no report
        path = write_complex(tmp_path, "bad.json", 4, [[1, 2, 3], [3, 4], [1, 4]])
        assert main(["verify", "--input", path]) == EXIT_INADMISSIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error[NotFlagSkeleton]: K is not the k-skeleton of a flag complex\n"

    def test_bad_pairs(self, square_json, capsys):
        assert main(["decompose", "--input", square_json, "--pairs", "disks:1"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error[ValueError]: each vertex needs a nonempty list of dims >= 2\n"
        )
        assert main(["decompose", "--input", square_json, "--pairs", "what"]) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["check", "decompose", "verify"])
    def test_missing_input_flag(self, capsys, command):
        assert main([command]) == EXIT_INPUT
        assert capsys.readouterr().err == "error[ValueError]: --input is required\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decompose", "--cutoff", "abc"], "argument --cutoff: invalid int value: 'abc'"),
            (["frob"], "argument command: invalid choice: 'frob'"),
            (["decompose", "--input", "k.json", "--frob"], "unrecognized arguments: --frob"),
            (["verify", "--linalg"], "unrecognized arguments: --linalg"),
            # check reads neither, so it refuses them rather than ignore them
            (["check", "--pairs", "garbage"], "unrecognized arguments: --pairs garbage"),
            (["check", "--cutoff", "5000"], "unrecognized arguments: --cutoff 5000"),
        ],
        ids=[
            "bad-int",
            "unknown-command",
            "unknown-flag",
            "no-linalg-flag",
            "check-no-pairs",
            "check-no-cutoff",
        ],
    )
    def test_malformed_command_line(self, capsys, argv, message):
        # an input error like any other: exit 1 and one line, not usage and exit 2
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error[ValueError]: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": "4", "facets": [[1, 2], [3, 4]]},
            {"m": 4, "facets": 5},
            [[1, 2], [3, 4]],
            {"m": 2, "facets": [1, 2]},
            {"m": True, "facets": [[1]]},
        ],
        ids=["string-m", "int-facets", "top-level-list", "flat-facets", "bool-m"],
    )
    def test_malformed_complex_document(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error[BadDocument]") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, key", [({"m": 4}, "facets"), ({"facets": [[1]]}, "m")], ids=["no-facets", "no-m"]
    )
    def test_complex_document_without_a_key(self, tmp_path, capsys, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", "--input", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error[BadDocument]: a complex needs the key '{key}'\n"

    @pytest.mark.parametrize(
        "pairs, doc",
        [("disks:200000", None), ("custom:pairs.json", {"suspensions": [[200000], [2]]})],
        ids=["disks", "custom"],
    )
    def test_pair_dimension_gate(self, tmp_path, capsys, monkeypatch, pairs, doc):
        def refuse(*args):
            raise AssertionError("a series was built past the pair dimension gate")

        monkeypatch.setattr(GradedSeries, "__init__", refuse)
        monkeypatch.chdir(tmp_path)
        if doc:
            (tmp_path / "pairs.json").write_text(json.dumps(doc))
        path = write_complex(tmp_path, "two.json", 2, [[1], [2]])
        assert main(["decompose", "--input", path, "--pairs", pairs]) == EXIT_INADMISSIBLE
        assert capsys.readouterr().err == (
            f"error[TooLarge]: pair dimension 200000 exceeds the bound {PAIR_DIM_BOUND}\n"
        )

    def test_non_integer_disk_dimension(self, square_json, capsys):
        assert main(["decompose", "--input", square_json, "--pairs", "disks:x"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error[ValueError]: pair spec 'disks:x' needs an integer disk dimension\n"

    @pytest.mark.parametrize(
        "doc",
        [[[2], [3]], {"suspensions": 3}, {"suspensions": [["a"], [2]]}, {"dims": [[2]] * 4}],
        ids=["top-level-list", "int-suspensions", "string-dim", "no-suspensions"],
    )
    def test_malformed_pairs_document(self, square_json, tmp_path, capsys, doc):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        rc = main(["decompose", "--input", square_json, "--pairs", f"custom:{path}"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error[BadDocument]")

    @pytest.mark.parametrize("cutoff", ["0", "-3"])
    def test_bad_cutoff(self, square_json, capsys, cutoff):
        rc = main(["decompose", "--input", square_json, "--cutoff", cutoff])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error[ValueError]: cutoff must be >= 1\n"

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_cutoff_gate(self, square_json, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("decompose_loop ran past the cutoff gate")

        monkeypatch.setattr(cli, "decompose_loop", refuse)
        monkeypatch.setattr(oracle, "decompose_loop", refuse)
        cutoff = str(CUTOFF_BOUND + 1)
        assert main([command, "--input", square_json, "--cutoff", cutoff]) == EXIT_INADMISSIBLE
        assert capsys.readouterr().err == (
            f"error[TooLarge]: cutoff {cutoff} exceeds the bound {CUTOFF_BOUND}\n"
        )

    @pytest.mark.parametrize("document", ["input", "pairs"])
    def test_nested_document(self, tmp_path, capsys, document):
        # far deeper than the JSON parser's recursion limit
        nested = "[" * 200_000 + "]" * 200_000
        path, pairs = tmp_path / "one.json", tmp_path / "pairs.json"
        if document == "input":
            path.write_text(f'{{"m": 1, "facets": {nested}}}')
            argv = ["check", "--input", str(path)]
        else:
            write_complex(tmp_path, "one.json", 1, [[1]])
            pairs.write_text(f'{{"suspensions": {nested}}}')
            argv = ["decompose", "--input", str(path), "--pairs", f"custom:{pairs}"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error[BadDocument]") and err.count("\n") == 1, err[:300]

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"m": 1, "facets": [[list(range(100_000))]]}, "BadIndex"),
            ({"m": 1, "facets": [[json.loads("[" * 900 + "]" * 900)]]}, "BadIndex"),
            ({"m": 1, "facets": [[10**4000]]}, "BadIndex"),
            ({"m": 10**4000, "facets": [[0]]}, "BadIndex"),
            ({"m": 10**4000, "facets": [[1]]}, "GhostVertex"),
            ({"m": list(range(100_000)), "facets": [[1]]}, "BadDocument"),
        ],
        ids=["long-vertex", "deep-vertex", "big-vertex", "big-m", "big-ghost-count", "long-m"],
    )
    def test_bad_value_message_is_short(self, tmp_path, capsys, doc, error):
        # the one line names a bad value in a bounded form, not its full repr
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error}]") and err.count("\n") == 1, err[:300]
        assert len(err.encode()) <= 200, err[:300]

    @pytest.mark.parametrize("complex_json", ["p4", "square"])
    def test_oracle_disagreement_exits_internal(
        self, tmp_path, capsys, monkeypatch, square_json, complex_json
    ):
        # a wrong prediction, from the Hochster table or the pinned 4-cycle
        # series, makes verify fail with the internal-check code
        table = oracle.hochster_table
        monkeypatch.setattr(oracle, "hochster_table", lambda K: (r := table(K)) | {3: r[3] + 1})
        monkeypatch.setattr(
            oracle, "_FOUR_CYCLE_LOOP_SERIES", GradedSeries((1,), (1, 0, -3, 0, 1))
        )
        path = square_json
        if complex_json == "p4":
            path = write_complex(tmp_path, "p4.json", 4, [[1, 2], [2, 3], [3, 4]])
        assert main(["verify", "--input", path]) == EXIT_INTERNAL
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "FAIL"
        assert doc["checks"][-1]["first_divergent_degree"] == 2


_junk = st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)


@st.composite
def complex_docs(draw):
    """JSON documents read as complexes on m <= 8 vertices, so that nothing
    exponential starts: mostly well formed, else with a key missing, a value
    of another type, a vertex out of range, or no object at all."""
    m = draw(st.integers(0, 8))
    vertices = st.integers(1, max(m, 1))
    facets = draw(st.lists(st.lists(vertices, min_size=1, max_size=4), max_size=6 if m else 0))
    if draw(st.integers(0, 3)):
        facets += [[v] for v in range(1, m + 1)]
    doc = {"m": m, "facets": facets}
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "retype", "vertex", "other"]))
    if edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "retype":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_junk | st.lists(_junk, max_size=3))
    elif edit == "vertex" and facets:
        vertex = st.integers(-2, 0) | st.integers(m + 1, 12) | _junk | st.lists(st.integers(1, 8))
        draw(st.sampled_from(facets)).append(draw(vertex))
    elif edit == "other":
        return draw(_junk | st.integers() | st.lists(st.lists(st.integers(1, 8)), max_size=3))
    return doc


class TestDocumentFuzz:
    """Any JSON document as a complex: a documented exit code, and at most one
    stderr line, an `error[...]` one, which an input error always writes."""

    @settings(max_examples=150, deadline=None)
    @given(complex_docs(), st.sampled_from(["check", "decompose", "verify"]))
    @example({"m": 4}, "check")
    @example({"facets": [[1]]}, "decompose")
    # verify refuses a non-flag skeleton as decompose does: exit 2, one line
    @example({"m": 4, "facets": [[1, 2, 3], [3, 4], [1, 4]]}, "verify")
    def test_exit_code_and_one_line(self, doc, command):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "k.json")
            with open(path, "w") as handle:
                json.dump(doc, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, "--input", path])
        message = err.getvalue()
        assert rc in (0, 1, 2, 3)
        assert message.count("\n") <= 1 and message[-1:] in ("", "\n"), message
        if message or rc in (1, 2):
            assert rc and message.startswith("error["), message
        assert "Traceback" not in message and "KeyError" not in message, message


class TestModuleEntryPoint:
    """`python -m loopdecomp.cli` exits with main's code."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "loopdecomp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_malformed_command_line(self):
        done = self.run("decompose", "--cutoff", "abc")
        assert done.returncode == EXIT_INPUT
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error["), done.stderr

    def test_help(self):
        done = self.run("--help")
        assert done.returncode == EXIT_OK and "decompose" in done.stdout


class TestPairsResolution:
    def test_moment_angle(self):
        pairs, echo = resolve_pairs("moment-angle", 3)
        assert pairs.is_moment_angle() and echo == "moment-angle"
        # built from the dims [2], with the preset's cells and memo key
        assert pairs.key() == PairSpec.moment_angle(3).key()

    def test_disks(self):
        pairs, echo = resolve_pairs("disks:4", 2)
        assert pairs.cells[0].order() == 3 and echo == "disks:4"

    @pytest.mark.parametrize(
        "spec, canonical",
        [
            ("disks:+3", "disks:3"),
            ("disks:03", "disks:3"),
            ("disks: 3", "disks:3"),
            ("disks:\u0663", "disks:3"),
            ("disks:1_0", "disks:10"),
        ],
    )
    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_one_disk_dimension_gives_one_output(self, tmp_path, capsys, spec, canonical, command):
        # int() reads each spelling as the canonical N, so the output is
        # that of disks:N, its "pairs" echo included
        path = write_complex(tmp_path, "square.json", 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        outputs = []
        for pairs in (canonical, spec):
            assert main([command, "--input", path, "--pairs", pairs]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_custom_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"suspensions": [[2], [3, 4]]}))
        pairs, echo = resolve_pairs(f"custom:{path}", 2)
        assert pairs.cells[1].expand(3) == (0, 0, 1, 1)
        assert echo == {"suspensions": [[2], [3, 4]]}

    def test_custom_wrong_length(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"suspensions": [[2]]}))
        with pytest.raises(ValueError):
            resolve_pairs(f"custom:{path}", 2)

    @pytest.mark.parametrize(
        "spec, code, error",
        [("disks:1", EXIT_INPUT, "ValueError"), ("disks:2000", EXIT_INADMISSIBLE, "TooLarge")],
    )
    def test_disk_dimension_checked_on_the_empty_complex(
        self, tmp_path, capsys, monkeypatch, spec, code, error
    ):
        # no vertex carries the pair, and N is still checked before any
        # series is built
        def refuse(*args):
            raise AssertionError("a series was built before the disk dimension was checked")

        monkeypatch.setattr(GradedSeries, "__init__", refuse)
        path = write_complex(tmp_path, "empty.json", 0, [])
        assert main(["decompose", "--input", path, "--pairs", spec]) == code
        assert capsys.readouterr().err.startswith(f"error[{error}]")

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_every_kind_of_the_moment_angle_pair_gives_one_answer(
        self, tmp_path, capsys, command
    ):
        # (D^2, S^1) as moment-angle, disks:2 and custom [2] per vertex: the
        # same output but for the pairs echo
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"suspensions": [[2]] * 6}))
        # a 5-cycle with a vertex joined to all of it: a cone, then pushouts
        facets = [[v, v % 5 + 1, 6] for v in range(1, 6)]
        path = write_complex(tmp_path, "wheel.json", 6, facets)
        docs = []
        for spec in ("moment-angle", "disks:2", f"custom:{pairs}"):
            argv = [command, "--input", path, "--pairs", spec]
            assert main(argv + (["--trace"] if command == "decompose" else [])) == EXIT_OK
            docs.append(json.loads(capsys.readouterr().out))
        echoes = [doc.pop("pairs") for doc in docs]
        assert echoes == ["moment-angle", "disks:2", {"suspensions": [[2]] * 6}]
        assert docs[0] == docs[1] == docs[2]
        if command == "decompose":
            assert {"factors", "series", "expansion", "trace"} <= set(docs[0])

    def test_many_spheres_on_one_vertex(self, tmp_path, capsys):
        # no gate bounds the number of spheres: their dims are counted in
        # one pass, not added up one series per sphere
        dims = [2 + i % (PAIR_DIM_BOUND - 1) for i in range(100_000)]
        (tmp_path / "pairs.json").write_text(json.dumps({"suspensions": [dims, [2]]}))
        path = write_complex(tmp_path, "two.json", 2, [[1], [2]])
        argv = ["decompose", "--input", path, "--pairs", f"custom:{tmp_path / 'pairs.json'}"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # the two points' wedge t * a_1 * a_2 has one S^3 per S^2 of Sigma A_1,
        # and each S^3 gives Omega a class in degree 2
        assert doc["expansion"][:3] == [1, 0, dims.count(2)]

    def test_custom_output_does_not_depend_on_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "sub").mkdir()
        (tmp_path / "pairs.json").write_text(json.dumps({"suspensions": [[2, 3], [4]] * 2}))
        square = write_complex(tmp_path, "square.json", 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        outputs = []
        for workdir, relative in ((tmp_path, "pairs.json"), (tmp_path / "sub", "../pairs.json")):
            monkeypatch.chdir(workdir)
            out = tmp_path / f"out{len(outputs)}.json"
            argv = ["decompose", "--input", square, "--pairs", f"custom:{relative}", "--trace"]
            assert main(argv + ["--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["pairs"] == {"suspensions": [[2, 3], [4]] * 2}


def test_parser_is_built_once(square_json, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["check", "--input", square_json]) == EXIT_OK
    first = len(built)
    assert first and main(["decompose", "--input", square_json]) == EXIT_OK
    assert len(built) == first


# strings with control characters, non-ASCII and astral characters, quotes
# and backslashes, beside the text hypothesis draws
_json_text = st.text(max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\n\t\r\b\f", '"\\/', "é∂Ω", "  ", "😀\U0010ffff"]
)
_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), -(10**40))
    | st.floats()
    | _json_text
)
_json_doc = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text | st.integers() | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=25,
)


def _emitted(doc) -> tuple[str, bytes, bytes]:
    """What _emit writes to stdout, to a new --output file and over an
    existing, longer one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    with tempfile.TemporaryDirectory() as directory:
        fresh, existing = os.path.join(directory, "new.json"), os.path.join(directory, "old.json")
        with open(existing, "wb") as handle:
            handle.write(b"{" * (len(out.getvalue()) + 100))
        cli._emit(doc, fresh)
        cli._emit(doc, existing)
        with open(fresh, "rb") as new, open(existing, "rb") as old:
            return out.getvalue(), new.read(), old.read()


class TestWriter:
    """cli._emit writes exactly json.dumps(doc, indent=2) and a newline."""

    @settings(max_examples=300, deadline=None)
    @given(_json_doc)
    @example({"flag": True, "k": None, "m": [True, 1, False, 0, -(10**50)]})
    @example({"empty": [[], {}, ()], "nested": [[[1]], {"a": {"b": ()}}], "t": (1, (2, 3))})
    @example({"é\x00": "\x1f😀", 1: "one", None: [None], False: 0})
    def test_bytes_of_json_dumps(self, doc):
        text = json.dumps(doc, indent=2) + "\n"
        stdout, written, overwritten = _emitted(doc)
        assert stdout == text
        assert written == overwritten == text.encode()

    @pytest.mark.parametrize(
        "doc", [{"a": [1, {2, 3}]}, [object()], {"k": {(1, 2): 0}}, {"s": b"bytes"}]
    )
    def test_refuses_what_json_dumps_refuses(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as raised:
            cli._emit(doc, None)
        assert str(raised.value) == str(expected.value)


class TestOutputFile:
    """--output writes over the file in place and cuts it to length."""

    def test_short_after_long_leaves_no_tail(self, tmp_path, square_json, capsys):
        out = str(tmp_path / "out.json")
        assert main(["decompose", "--trace", "--input", square_json, "--output", out]) == EXIT_OK
        long_size = os.path.getsize(out)
        assert main(["check", "--input", square_json]) == EXIT_OK
        short = capsys.readouterr().out.encode()
        assert main(["check", "--input", square_json, "--output", out]) == EXIT_OK
        assert len(short) < long_size and Path(out).read_bytes() == short

    def test_existing_file_keeps_its_mode(self, tmp_path, square_json):
        out = tmp_path / "out.json"
        out.write_text("x" * 10_000)
        out.chmod(0o600)
        assert main(["check", "--input", square_json, "--output", str(out)]) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o600
        assert json.loads(out.read_text())["command"] == "check"

    def test_symlink_is_written_through(self, tmp_path, square_json):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 10_000)
        link.symlink_to(target)
        assert main(["check", "--input", square_json, "--output", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(target.read_text())["command"] == "check"

    def test_dev_null(self, square_json):
        assert main(["decompose", "--input", square_json, "--output", os.devnull]) == EXIT_OK

    def test_dev_stdout_into_a_pipe(self, square_json):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "loopdecomp.cli", "decompose", "--input", square_json, *extra],
                capture_output=True, env=env, timeout=60,
            )
            for extra in ([], ["--output", "/dev/stdout"])
        ]
        assert [done.returncode for done in runs] == [EXIT_OK, EXIT_OK]
        assert runs[1].stdout == runs[0].stdout and runs[0].stdout.startswith(b"{")

    def test_directory_is_an_input_error(self, tmp_path, square_json, capsys):
        assert main(["check", "--input", square_json, "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[IsADirectoryError]"), err


def test_calls_leave_no_cyclic_garbage(c5_json, tmp_path):
    """Each call's trace, series and P-forms are freed by reference
    counting: no closure that calls itself keeps them in a cycle."""
    out = str(tmp_path / "out.json")
    calls = [
        ["check", "--input", c5_json, "--output", out],
        ["decompose", "--trace", "--input", c5_json, "--output", out],
        ["verify", "--input", c5_json, "--output", out],
    ]
    for argv in calls:  # the parser and the imports are built once
        assert main(argv) == EXIT_OK
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            assert main(argv) == EXIT_OK
            assert gc.collect() == 0, argv[0]
    finally:
        gc.enable()


def test_no_tuple_is_built_from_a_generator():
    """tuple(generator) makes a resized tuple, which stays in the
    interpreter's free lists once freed (see the series module docstring)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "loopdecomp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert not found
