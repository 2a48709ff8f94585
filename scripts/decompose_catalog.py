"""Decompose a catalog of small complexes and print the factor tables.

Each complex goes through `verify_against_oracle`: where it has an
independent oracle, the expansion is compared with it through the cutoff.
A failed check is printed on the complex's row, a mismatch naming the
first divergent degree, and the script exits 1.

Usage: python scripts/decompose_catalog.py [--cutoff N]
"""

import argparse
import sys

from loopdecomp import PairSpec, classify_input, validate_complex
from loopdecomp.oracle import verify_against_oracle

CATALOG = [
    ("point", 1, [[1]]),
    ("two points", 2, [[1], [2]]),
    ("edge", 2, [[1, 2]]),
    ("path P3", 3, [[1, 2], [2, 3]]),
    ("path P4", 4, [[1, 2], [2, 3], [3, 4]]),
    ("triangle boundary", 3, [[1, 2], [2, 3], [1, 3]]),
    ("square boundary", 4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
    ("pentagon C5", 5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]),
    ("hexagon C6", 6, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]),
    ("star K_{1,3}", 4, [[1, 2], [1, 3], [1, 4]]),
    ("two triangles sharing an edge", 4, [[1, 2, 3], [2, 3, 4]]),
    ("octahedron boundary", 6, [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 5],
        [2, 3, 6], [3, 4, 6], [4, 5, 6], [2, 5, 6],
    ]),
]


def label(entry):
    """S^n or OmegaS^n, raised to its multiplicity, from a `to_doc` factor."""
    name = ("S^" if entry["kind"] == "sphere" else "OmegaS^") + str(entry["dim"])
    return f"({name})^{entry['mult']}" if entry["mult"] > 1 else name


def describe(factors):
    """The first six factors' labels, joined by x."""
    shown = [label(entry) for entry in factors[:6]] + ["..."] * (len(factors) > 6)
    return " x ".join(shown) or "trivial"


def note(check):
    """What a report's check adds to its row: a failure, or the oracle it matches."""
    if check["status"] == "FAIL":
        return f"  ({check['name']} fails: {check['detail']})"
    if check["name"] == "oracle_series" and check["status"] == "PASS":
        return f"  (matches {check['detail']})"
    return ""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cutoff", type=int, default=12)
    args = parser.parse_args()
    failures = 0

    print(f"{'complex':34}{'admissible':12}{'loop space factors (bottom <= ' + str(args.cutoff) + ')'}")
    print("-" * 100)
    for name, m, facets in CATALOG:
        K = validate_complex(facets, m)
        cls = classify_input(K)
        if cls.k_skeleton_of_flag is None:
            print(f"{name:34}{'no':12}-")
            continue
        report = verify_against_oracle(K, PairSpec.moment_angle(m), args.cutoff)
        failures += report["status"] == "FAIL"
        decomposed = report["checks"][0]
        notes = "".join(map(note, report["checks"]))
        if decomposed["status"] == "FAIL":
            print(f"{name:34}{'yes':12}{notes.strip()}")
            continue
        print(f"{name:34}{'yes':12}{describe(decomposed['factors'])}")
        series = decomposed["series"]
        print(f"{'':46}series {series['num']} / {series['den']}{notes}")
    print()
    print("disk pairs (D^3, S^2) on the pentagon:")
    K = validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)
    report = verify_against_oracle(K, PairSpec.from_suspension_dims([[3]] * 5), args.cutoff)
    failures += report["status"] == "FAIL"
    decomposed = report["checks"][0]
    notes = "".join(map(note, report["checks"]))
    if decomposed["status"] != "FAIL":
        notes = describe(decomposed["factors"]) + notes
    print("  ", notes.strip())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
