"""Byte-identity guard: the CLI output for a fixed set of runs must not change.

Each case runs `decompose --trace` on an admissible complex of the catalog in
scripts/decompose_catalog.py and compares the SHA-256 of the output file with
a digest recorded in golden_digests.json.  A refactor that is meant to keep
behaviour must keep every digest.  To re-record after a deliberate change of
output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from loopdecomp import classify_input, validate_complex
from loopdecomp.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
PAIRS = ("moment-angle", "disks:3", "custom:pairs.json")
CUTOFFS = (20, 60)


def _catalog():
    path = ROOT / "scripts" / "decompose_catalog.py"
    spec = importlib.util.spec_from_file_location("decompose_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (name, m, facets)
        for name, m, facets in module.CATALOG
        if classify_input(validate_complex(facets, m)).k_skeleton_of_flag is not None
    ]


CASES = [
    (name, m, facets, pairs, cutoff)
    for name, m, facets in _catalog()
    for pairs in PAIRS
    for cutoff in CUTOFFS
]


def _key(name, pairs, cutoff):
    return f"{name}|{pairs}|{cutoff}"


def _digest(workdir: Path, m, facets, pairs, cutoff) -> str:
    """SHA-256 of the decompose output, run with workdir as the current
    directory so the relative custom-pairs path in the output is fixed."""
    (workdir / "complex.json").write_text(json.dumps({"m": m, "facets": facets}))
    (workdir / "pairs.json").write_text(json.dumps({"suspensions": [[2, 3]] * m}))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc = main(
            [
                "decompose",
                "--input",
                "complex.json",
                "--pairs",
                pairs,
                "--cutoff",
                str(cutoff),
                "--trace",
                "--output",
                "out.json",
            ]
        )
    finally:
        os.chdir(cwd)
    assert rc == 0
    return hashlib.sha256((workdir / "out.json").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_cases_match_the_case_list(recorded):
    assert sorted(recorded) == sorted(_key(n, p, c) for n, _, _, p, c in CASES)


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            _key(name, pairs, cutoff): _digest(Path(tmp), m, facets, pairs, cutoff)
            for name, m, facets, pairs, cutoff in CASES
        }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
