"""Symbolic loop-space decompositions of polyhedral products.

For K the k-skeleton of a flag complex and pairs (CA_i, A_i) with each
Sigma A_i a wedge of spheres, Omega (CA,A)^K is a finite-type product of
spheres and loops on spheres.  This package computes that product
explicitly, with exact Poincare-series bookkeeping, derivation traces, and
an independent homology oracle.
"""

from .complexes import (
    BadDocument,
    BadIndex,
    Classification,
    DominatingVertex,
    FlagSkeleton,
    GhostVertex,
    SimplicialComplex,
    classify_input,
    full_subcomplex,
    pushout_split,
    validate_complex,
)
from .engine import (
    NotFlagSkeleton,
    PairSpec,
    TraceNode,
    check_trace,
    decompose_loop,
    skeleton_simplex_wedge,
    trace_to_doc,
)
from .homotopy import (
    CellSeries,
    NoSolution,
    NotADivisor,
    NotCanonicalP,
    NotSimplyConnectedOutput,
    PProduct,
    SphereWedge,
    divide_products,
    greedy_factorize,
    hilton_milnor,
    join_cells,
    loop_half_smash,
    lyndon_counts,
    porter_loop_wedge,
    pproduct_mul,
    reduced_cells,
)
from .oracle import (
    NotApplicable,
    TooLarge,
    hochster_table,
    predicted_loop_series,
    simplicial_homology_ranks,
    verify_against_oracle,
)
from .series import DEFAULT_DEGREE, DivisionUndefined, GradedSeries

__version__ = "0.1.0"
