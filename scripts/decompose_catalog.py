"""Decompose a catalog of small complexes and print the factor tables.

Usage: python scripts/decompose_catalog.py [--cutoff N]
"""

import argparse

from loopdecomp import (
    PairSpec,
    classify_input,
    decompose_loop,
    predicted_loop_series,
    validate_complex,
)
from loopdecomp.oracle import NotApplicable

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


def describe(product):
    """The first six factors' labels, joined by x."""
    shown = [label(entry) for entry in product.to_doc()["factors"][:6]]
    if len(product.factors) > 6:
        shown.append("...")
    if not shown:
        shown = ["trivial"]
    return " x ".join(shown)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cutoff", type=int, default=12)
    args = parser.parse_args()

    print(f"{'complex':34}{'admissible':12}{'loop space factors (bottom <= ' + str(args.cutoff) + ')'}")
    print("-" * 100)
    for name, m, facets in CATALOG:
        K = validate_complex(facets, m)
        cls = classify_input(K)
        if cls.k_skeleton_of_flag is None:
            print(f"{name:34}{'no':12}-")
            continue
        product, _ = decompose_loop(K, PairSpec.moment_angle(m), args.cutoff)
        print(f"{name:34}{'yes':12}{describe(product)}")
        num, den = product.series.to_pair()
        note = ""
        try:
            predicted_loop_series(K)
            note = "  (matches homology prediction)"
        except NotApplicable:
            pass
        print(f"{'':34}{'':12}series {num} / {den}{note}")
    print()
    print("disk pairs (D^3, S^2) on the pentagon:")
    K = validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)
    product, _ = decompose_loop(K, PairSpec.disks(3, 5), args.cutoff)
    print("  ", describe(product))


if __name__ == "__main__":
    main()
