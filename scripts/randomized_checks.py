"""Randomized verification sweeps, seed-reproducible.

Usage: python scripts/randomized_checks.py [--seed N] [--complexes N] [--cutoff D]
"""

import argparse
import sys
import time
from pathlib import Path
from random import Random

from loopdecomp import FlagSkeleton, PairSpec, check_trace, decompose_loop, greedy_factorize
from loopdecomp.oracle import NotApplicable, predicted_loop_series

# the seeded generators live with the tests that share them
tests = Path(__file__).resolve().parent.parent / "tests"
if str(tests) not in sys.path:
    sys.path.insert(0, str(tests))

from randomgen import random_chordal_flag_complex, random_flag_skeleton  # noqa: E402


def sweep_engine(count, rng, cutoff):
    """Decompose and certify random flag skeleta, the pairs rotating through
    moment-angle, disks:3 and seeded suspension dims that differ by vertex,
    where the certificate's derived cells differ by vertex too."""
    checked = oracle_hits = 0
    for i in range(count):
        K = random_flag_skeleton(rng.randint(2, 7), rng)
        if i % 3 == 0:
            pairs = PairSpec.moment_angle(K.m)
        elif i % 3 == 1:
            pairs = PairSpec.from_suspension_dims([[3]] * K.m)
        else:
            pairs = PairSpec.from_suspension_dims([[rng.randint(2, 4)] for _ in range(K.m)])
        product, trace = decompose_loop(K, pairs, cutoff)
        assert check_trace(trace, FlagSkeleton.of(K), pairs, cutoff) == []
        assert greedy_factorize(product.series, cutoff).factors == product.factors
        checked += 1
        if not pairs.is_moment_angle():
            continue
        try:
            predicted = predicted_loop_series(K)
        except NotApplicable:
            continue
        assert product.series.expand(cutoff) == predicted.expand(cutoff)
        oracle_hits += 1
    return checked, oracle_hits


def sweep_chordal(count, rng, cutoff):
    for _ in range(count):
        K = random_chordal_flag_complex(rng.randint(2, 7), rng)
        product, _ = decompose_loop(K, PairSpec.moment_angle(K.m), cutoff)
        predicted = predicted_loop_series(K)
        assert product.series.expand(cutoff) == predicted.expand(cutoff)
    return count


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--complexes", type=int, default=40)
    parser.add_argument("--cutoff", type=int, default=20)
    args = parser.parse_args()

    rng = Random(args.seed)
    start = time.monotonic()
    checked, oracle_hits = sweep_engine(args.complexes, rng, args.cutoff)
    print(
        f"engine sweep: {checked} random flag skeleta decomposed under three kinds "
        f"of pairs, traces exact, "
        f"{oracle_hits} with independent homology confirmation"
    )
    chordal = sweep_chordal(args.complexes // 2, rng, args.cutoff)
    print(f"chordal sweep: {chordal} chordal flag complexes match the prediction")
    print(f"total {time.monotonic() - start:.1f}s, seed {args.seed}")


if __name__ == "__main__":
    main()
