"""Hand mutants of the package, each of which a named test selector must catch.

Usage: python scripts/mutation_check.py

Each row of MUTANTS is (name, file, old text, new text, pytest selector).
For each row the script copies `src/`, `tests/` and `conftest.py` into a
temporary directory, replaces the old text, which must occur exactly once
in the file, by the new, and runs the selector there with pytest; the
mutant is caught when that run fails.  Before any mutant, the selectors
must all pass on an unmutated copy, so a selector that names no test or
fails anyway cannot pass for a catch.  It prints one line per row and exits
1 if an anchor does not match exactly once or a mutant survives, listing
the survivors.  Stdlib only; it needs pytest and the `test` extra, as the
tests do.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

MUTANTS = [
    (
        "cell check ignores the cutoff",
        "src/loopdecomp/homotopy.py",
        "reduced.checkable_coeffs(degree)",
        "reduced.checkable_coeffs(20)",
        "tests/test_engine.py::TestPairSpec::test_fraction_cells_checked_through_the_cutoff",
    ),
    (
        "skeleton wedge binomial C(j, k + 1)",
        "src/loopdecomp/engine.py",
        "comb(j - 1, k + 1)",
        "comb(j, k + 1)",
        "tests/test_engine.py::TestSkeletonWedge",
    ),
    (
        "Hopf dims lose 7",
        "src/loopdecomp/homotopy.py",
        "_HOPF_DIMS = (1, 3, 7)",
        "_HOPF_DIMS = (1, 3)",
        "tests/test_homotopy.py",
    ),
    (
        "no fraction denominators in 1 + a'",
        "src/loopdecomp/engine.py",
        "        if c.den != (1,):\n            den = poly_mul(den, c.den)\n",
        "",
        "tests/test_engine.py::TestClosedForms",
    ),
    (
        "one-neighbour chordality test",
        "src/loopdecomp/complexes.py",
        "_indices(earlier)",
        "list(_indices(earlier))[:1]",
        "tests/test_complexes.py::TestChordality",
    ),
    (
        "no same-piece check for a shared child",
        "src/loopdecomp/engine.py",
        "elif problems[c][0] != piece or problems[c][1].key() != sub.key():",
        "elif False:",
        "tests/test_engine.py::TestCheckTraceMutations"
        "::test_a_shared_child_fails_at_its_smaller_id_parent",
    ),
    (
        "cone without the flag check",
        "src/loopdecomp/engine.py",
        "if largest > graph.k + 1:",
        "if False:",
        "tests/test_engine.py::TestCheckTraceMutations::test_cone_mutations_are_rejected",
    ),
    (
        "contractible node with two vertices",
        "src/loopdecomp/engine.py",
        "if m > 1:",
        "if m > 2:",
        "tests/test_engine.py::TestCheckTraceMutations::test_cone_mutations_are_rejected",
    ),
    (
        "pushout at a dominating vertex",
        "src/loopdecomp/complexes.py",
        "if link.bit_count() == K.m - 1:",
        "if False:",
        "tests/test_complexes.py::TestPushout::test_dominating_vertex_rejected",
    ),
    (
        "VERTEX_BOUND off by one",
        "src/loopdecomp/cli.py",
        "if K.m > VERTEX_BOUND:",
        "if K.m >= VERTEX_BOUND:",
        "tests/test_cli.py::TestExitCodes::test_simplex_at_the_vertex_bound_decomposes",
    ),
    (
        "a node as its own child",
        "src/loopdecomp/engine.py",
        "if c >= i:",
        "if c > i:",
        "tests/test_engine.py::TestCheckTraceMutations::test_node_as_its_own_child_fails",
    ),
]


def _pytest(tree: Path, selectors: list[str]) -> int:
    """The exit code of pytest on the selectors, run in tree on its src; a
    run over TIMEOUT_S seconds, as a mutant that loops would make, fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors]
    try:
        run = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return run.returncode


def _copy(to: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, to / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "conftest.py", to / "conftest.py")


def main() -> int:
    bad = []
    for name, file, old, _, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append(f"{name}: the anchor occurs {count} times in {file}, not once")
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        _copy(tree)
        code = _pytest(tree, sorted({row[4] for row in MUTANTS}))
        if code != 0:
            print(f"the selectors fail on the unmutated tree (pytest exit {code})")
            return 1
        survivors = []
        for name, file, old, new, selector in MUTANTS:
            shutil.rmtree(tree)
            _copy(tree)
            target = tree / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), "utf-8")
            start = time.monotonic()
            caught = _pytest(tree, [selector]) != 0
            verdict = "caught" if caught else "SURVIVED"
            print(f"{verdict:8}  {name}  ({selector}, {time.monotonic() - start:.1f} s)")
            if not caught:
                survivors.append(name)
    if survivors:
        print("survivors: " + "; ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
