import json

import pytest

from loopdecomp import oracle
from loopdecomp.cli import (
    EXIT_INADMISSIBLE,
    EXIT_INPUT,
    EXIT_OK,
    JobSpec,
    main,
    resolve_pairs,
)


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

    def test_inadmissible_complex_reported(self, tmp_path, capsys):
        path = write_complex(tmp_path, "bad.json", 4, [[1, 2, 3], [3, 4], [1, 4]])
        assert main(["check", "--input", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is False


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

    def test_linalg(self, capsys):
        rc = main(["verify", "--linalg", "--random", "80", "--seed", "7"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["seed"] == 7

    def test_linalg_matrices_file(self, tmp_path, capsys):
        path = tmp_path / "mats.json"
        path.write_text(
            json.dumps({"matrices": [[[1, 1], [0, 0]], [[1, 0], [0, 1]]]})
        )
        assert main(["verify", "--linalg", "--input", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS" and doc["matrices"] == 2

    def test_linalg_matrices_file_rejects_non_idempotent(self, tmp_path, capsys):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps({"matrices": [[[2, 0], [0, 0]]]}))
        rc = main(["verify", "--linalg", "--input", str(path)])
        assert rc != EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "FAIL"


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

    def test_bad_pairs(self, square_json, capsys):
        assert main(["decompose", "--input", square_json, "--pairs", "disks:1"]) == EXIT_INPUT
        assert main(["decompose", "--input", square_json, "--pairs", "what"]) == EXIT_INPUT

    def test_missing_input_flag(self, capsys):
        assert main(["decompose"]) == EXIT_INPUT

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
        "doc",
        [[[2], [3]], {"suspensions": 3}, {"suspensions": [["a"], [2]]}],
        ids=["top-level-list", "int-suspensions", "string-dim"],
    )
    def test_malformed_pairs_document(self, square_json, tmp_path, capsys, doc):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        rc = main(["decompose", "--input", square_json, "--pairs", f"custom:{path}"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error[BadDocument]")

    @pytest.mark.parametrize(
        "doc",
        [[[[1]]], {"matrices": "abc"}, {"matrices": [[["a"]]]}, 5, {"matrices": [[[True]]]}],
        ids=["top-level-list", "string-matrices", "string-entry", "bare-number", "bool-entry"],
    )
    def test_malformed_matrices_document(self, tmp_path, capsys, doc):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--linalg", "--input", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error[BadDocument]") and err.count("\n") == 1

    @pytest.mark.parametrize("cutoff", ["0", "-3"])
    def test_bad_cutoff(self, square_json, capsys, cutoff):
        rc = main(["decompose", "--input", square_json, "--cutoff", cutoff])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error[ValueError]: cutoff must be >= 1\n"


class TestPairsResolution:
    def test_moment_angle(self):
        assert resolve_pairs("moment-angle", 3).is_moment_angle()

    def test_disks(self):
        pairs = resolve_pairs("disks:4", 2)
        assert pairs.cells[0].order() == 3

    def test_custom_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"suspensions": [[2], [3, 4]]}))
        pairs = resolve_pairs(f"custom:{path}", 2)
        assert pairs.cells[1].expand(3) == (0, 0, 1, 1)

    def test_custom_wrong_length(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"suspensions": [[2]]}))
        with pytest.raises(ValueError):
            resolve_pairs(f"custom:{path}", 2)


def test_jobspec_validates_cutoff():
    with pytest.raises(ValueError):
        JobSpec(command="decompose", cutoff=0)
