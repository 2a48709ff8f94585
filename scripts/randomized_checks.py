"""Randomized verification sweeps, seed-reproducible.

Usage: python scripts/randomized_checks.py [--seed N] [--complexes N] [--cutoff D]
"""

import argparse
import sys
import time
from pathlib import Path
from random import Random

from loopdecomp import PairSpec, classify_input
from loopdecomp.oracle import hochster_table, verify_against_oracle

# the seeded generators live with the tests that share them
tests = Path(__file__).resolve().parent.parent / "tests"
if str(tests) not in sys.path:
    sys.path.insert(0, str(tests))

from helpers import CP_PAIRS, cp_fiber_pairs, subset_homology_table  # noqa: E402
from randomgen import (  # noqa: E402
    random_chordal_flag_complex,
    random_flag_skeleton,
    random_hollow_complex,
)


PAIR_KINDS = ("moment-angle", "disks:3", "varied dims", "CP fibres")


def sweep_engine(count, rng, cutoff):
    """Verify random flag skeleta, the pairs rotating through moment-angle,
    disks:3, seeded suspension dims that differ by vertex, where the
    certificate's derived cells differ by vertex too, and seeded
    projective-pair fibres, whose fraction cells give the pushouts
    fraction denominators.  Returns the count per pair kind and the
    oracle hits."""
    kinds = dict.fromkeys(PAIR_KINDS, 0)
    oracle_hits = 0
    for i in range(count):
        K = random_flag_skeleton(rng.randint(2, 7), rng)
        kind = PAIR_KINDS[i % 4]
        if kind == "moment-angle":
            pairs = PairSpec.from_suspension_dims([[2]] * K.m)
        elif kind == "disks:3":
            pairs = PairSpec.from_suspension_dims([[3]] * K.m)
        elif kind == "varied dims":
            pairs = PairSpec.from_suspension_dims([[rng.randint(2, 4)] for _ in range(K.m)])
        else:
            pairs = cp_fiber_pairs([rng.choice(CP_PAIRS) for _ in range(K.m)])
        report = verify_against_oracle(K, pairs, cutoff)
        assert report["status"] == "PASS", report
        kinds[kind] += 1
        oracle_hits += report["checks"][-1]["status"] == "PASS"
    return kinds, oracle_hits


def sweep_chordal(count, rng, cutoff):
    """Verify random chordal flag complexes, where the Hochster prediction
    always applies."""
    for _ in range(count):
        K = random_chordal_flag_complex(rng.randint(2, 7), rng)
        report = verify_against_oracle(K, PairSpec.from_suspension_dims([[2]] * K.m), cutoff)
        assert report["status"] == "PASS", report
        assert report["checks"][-1]["detail"] == "Hochster prediction"
    return count


def sweep_hochster(count, rng):
    """Hochster tables of random non-flag complexes on m <= 8 vertices
    against the sum of each full subcomplex's homology from its own
    boundary matrices over Q.  Their hollow facets give homology above
    degree 1, which the chordal sweep never meets, so the walk clears
    faces here."""
    checked = 0
    while checked < count:
        K = random_hollow_complex(rng.randint(3, 8), rng)
        if classify_input(K).flag:
            continue
        assert hochster_table(K) == subset_homology_table(K)
        checked += 1
    return checked


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--complexes", type=int, default=40)
    parser.add_argument("--cutoff", type=int, default=20)
    args = parser.parse_args()

    rng = Random(args.seed)
    start = time.monotonic()
    kinds, oracle_hits = sweep_engine(args.complexes, rng, args.cutoff)
    per_kind = ", ".join(f"{kind} {n}" for kind, n in kinds.items())
    print(
        f"engine sweep: {sum(kinds.values())} random flag skeleta decomposed ({per_kind}), "
        f"traces exact, {oracle_hits} with independent homology confirmation"
    )
    chordal = sweep_chordal(args.complexes // 2, rng, args.cutoff)
    print(f"chordal sweep: {chordal} chordal flag complexes match the prediction")
    hochster = sweep_hochster(args.complexes // 4, rng)
    print(f"Hochster sweep: {hochster} non-flag complexes match the subset-by-subset table")
    print(f"total {time.monotonic() - start:.1f}s, seed {args.seed}")


if __name__ == "__main__":
    main()
