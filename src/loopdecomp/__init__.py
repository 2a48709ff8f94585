"""Symbolic loop-space decompositions of polyhedral products.

For K the k-skeleton of a flag complex and pairs (CA_i, A_i) with each
Sigma A_i a wedge of spheres, Omega (CA,A)^K is a finite-type product of
spheres and loops on spheres.  This package computes that product
explicitly, with exact Poincare-series bookkeeping, derivation traces, and
an independent homology oracle.  The package exports the entry points
below; everything else is imported from its module.
"""

from .complexes import FlagSkeleton, classify_input, validate_complex
from .engine import PairSpec, check_trace, decompose_loop
from .homotopy import greedy_factorize
from .oracle import predicted_loop_series

__version__ = "0.1.0"
