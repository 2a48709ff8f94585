"""Byte-identity guard: the CLI output for a fixed set of runs must not change.

Each case runs `decompose --trace` on an admissible complex and compares the
SHA-256 of the output file with a digest recorded in golden_digests.json.
The trace is compared in the tree form the digests were recorded from:
`helpers.expand_trace` writes the node table back out as that tree, each
node's complex and rule inputs derived from the root's graph and the pairs,
and the document is re-encoded as the CLI encodes it.
The complexes are those of the catalog in scripts/decompose_catalog.py, and
a few larger ones (m = 12..16) where the recursion has many nodes.  The
`verify` cases run `verify --pairs moment-angle --cutoff 20` on the same
catalog and on seeded chordal flag complexes with m = 9..11, where the
Hochster oracle sums over every vertex subset.  A refactor that is meant to
keep behaviour must keep every digest.  To re-record after a deliberate
change of output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random

import networkx as nx
import pytest

from loopdecomp import classify_input, oracle, validate_complex
from loopdecomp.cli import main, resolve_pairs
from loopdecomp.series import GradedSeries

from helpers import add, expand_trace

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
PAIRS = ("moment-angle", "disks:3", "custom:pairs.json")
CUTOFFS = (20, 60)


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _catalog():
    return [
        (name, m, facets)
        for name, m, facets in _script("decompose_catalog").CATALOG
        if classify_input(validate_complex(facets, m)).k_skeleton_of_flag is not None
    ]


def _random_graph(m, seed):
    rng = Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(1, m + 1))
    graph.add_edges_from(
        e for e in itertools.combinations(range(1, m + 1), 2) if rng.random() < 0.5
    )
    return graph


def _larger():
    """Complexes on 12..16 vertices, moment-angle pairs at the default cutoff."""
    cycles = [
        (f"C{n}", n, [[i, i % n + 1] for i in range(1, n + 1)]) for n in (12, 16)
    ]
    # boundary of the cross-polytope: one vertex of each pair {i, i+6} per facet
    cross = [
        [i + 6 * side for i, side in zip(range(1, 7), sides)]
        for sides in itertools.product((0, 1), repeat=6)
    ]
    flag = _random_graph(14, 14)
    graph = _random_graph(12, 12)
    assert any(len(c) >= 3 for c in nx.find_cliques(graph))  # not flag as a graph
    return cycles + [
        ("cross-polytope boundary m=12", 12, cross),
        ("random flag m=14 seed 14", 14, [sorted(c) for c in nx.find_cliques(flag)]),
        ("1-skeleton of random flag m=12 seed 12", 12, [sorted(e) for e in graph.edges]),
    ]


def _chordal_flag(m, seed):
    """Clique complex of a chordal graph grown by simplicial vertices: each
    new vertex joins a random subset of a random maximal clique."""
    rng = Random(seed)
    graph = nx.Graph()
    graph.add_node(1)
    for v in range(2, m + 1):
        clique = rng.choice(sorted(sorted(c) for c in nx.find_cliques(graph)))
        graph.add_node(v)
        graph.add_edges_from((u, v) for u in clique if rng.random() < 0.7)
    assert nx.is_chordal(graph)
    return sorted(sorted(c) for c in nx.find_cliques(graph))


CASES = [
    (name, m, facets, pairs, cutoff)
    for name, m, facets in _catalog()
    for pairs in PAIRS
    for cutoff in CUTOFFS
] + [(name, m, facets, "moment-angle", 20) for name, m, facets in _larger()]


VERIFY_CASES = [(name, m, facets) for name, m, facets in _catalog()] + [
    (f"chordal flag m={m} seed {seed}", m, _chordal_flag(m, seed))
    for m in (9, 10, 11)
    for seed in range(3)
]


def _key(name, pairs, cutoff):
    return f"{name}|{pairs}|{cutoff}"


def _verify_key(name):
    return f"verify|{name}|moment-angle|20"


def _spec(workdir: Path, pairs: str) -> str:
    """The --pairs argument for a case: a custom file is named by its path
    in workdir, and the output echoes its dims, not that path."""
    return pairs.replace("custom:", f"custom:{workdir}{os.sep}")


def _run(workdir: Path, m, facets, args) -> bytes:
    """The output of one CLI run on the complex, with its files in workdir."""
    (workdir / "complex.json").write_text(json.dumps({"m": m, "facets": facets}))
    (workdir / "pairs.json").write_text(json.dumps({"suspensions": [[2, 3]] * m}))
    files = ["--input", str(workdir / "complex.json"), "--output", str(workdir / "out.json")]
    assert main([*args, *files]) == 0
    return (workdir / "out.json").read_bytes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(workdir: Path, m, facets, pairs, cutoff) -> str:
    args = ["decompose", "--pairs", _spec(workdir, pairs), "--cutoff", str(cutoff), "--trace"]
    raw = _run(workdir, m, facets, args).decode()
    doc = json.loads(raw)
    assert raw == json.dumps(doc, indent=2) + "\n"  # so re-encoding keeps bytes
    doc["trace"] = expand_trace(doc["trace"], resolve_pairs(_spec(workdir, pairs), m)[0])
    return _sha256((json.dumps(doc, indent=2) + "\n").encode())


def _verify_digest(workdir: Path, m, facets) -> str:
    args = ["verify", "--pairs", "moment-angle", "--cutoff", "20"]
    return _sha256(_run(workdir, m, facets, args))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_cases_match_the_case_list(recorded):
    assert sorted(recorded) == sorted(
        [_key(n, p, c) for n, _, _, p, c in CASES]
        + [_verify_key(n) for n, _, _ in VERIFY_CASES]
    )


@pytest.mark.parametrize(
    "name, m, facets, pairs, cutoff",
    CASES,
    ids=[_key(n, p, c) for n, _, _, p, c in CASES],
)
def test_decompose_output_is_byte_identical(
    tmp_path, recorded, name, m, facets, pairs, cutoff
):
    assert _digest(tmp_path, m, facets, pairs, cutoff) == recorded[_key(name, pairs, cutoff)]


@pytest.mark.parametrize(
    "name, m, facets", VERIFY_CASES, ids=[_verify_key(n) for n, _, _ in VERIFY_CASES]
)
def test_verify_output_is_byte_identical(tmp_path, recorded, name, m, facets):
    assert _verify_digest(tmp_path, m, facets) == recorded[_verify_key(name)]


@pytest.mark.parametrize(
    "script, args",
    [("decompose_catalog.py", []), ("randomized_checks.py", ["--seed", "0"])],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_catalog_script_fails_on_a_wrong_prediction(monkeypatch, capsys):
    # the point's series is 1: a prediction of 1 + t^5 differs first at degree 5
    script = _script("decompose_catalog")
    predicted = oracle.predicted_loop_series
    monkeypatch.setattr(
        oracle, "predicted_loop_series", lambda K: predicted(K) * add(GradedSeries.monomial(5), 1)
    )
    monkeypatch.setattr(sys, "argv", ["decompose_catalog.py"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "oracle_series fails: Hochster prediction: first divergent degree 5" in out
    assert "matches Hochster prediction" not in out


@pytest.mark.parametrize("seed", range(3))
def test_random_sweep_fails_on_a_wrong_table(monkeypatch, seed):
    # one more class in degree 3 changes every prediction's t^2 coefficient
    script = _script("randomized_checks")
    table = oracle.hochster_table
    monkeypatch.setattr(oracle, "hochster_table", lambda K: (r := table(K)) | {3: r.get(3, 0) + 1})
    with pytest.raises(AssertionError, match="first divergent degree 2"):
        script.sweep_chordal(3, Random(seed), 20)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            _key(name, pairs, cutoff): _digest(Path(tmp), m, facets, pairs, cutoff)
            for name, m, facets, pairs, cutoff in CASES
        } | {
            _verify_key(name): _verify_digest(Path(tmp), m, facets)
            for name, m, facets in VERIFY_CASES
        }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
