"""Independent verification oracles.

Reduced simplicial homology ranks over the rationals by exact ranks of
boundary matrices, the Hochster-style rank table for the moment-angle
complex Z_K (reduced cohomology of full subcomplexes, shifted by |S|+1,
empty subset excluded), and the predicted loop-space series
1/(1 - sum r_j t^(j-1)) in the cases where Z_K is known to be a wedge of
spheres, namely flag or 1-dimensional K with chordal 1-skeleton.

Faces are vertex bitmasks (bit v - 1 for vertex v), so the Hochster table
restricts K's faces to a vertex set S by a mask test, without relabelling.
`verify_against_oracle` applies the table's vertex bound before it
decomposes, so an oversized input exits before any exponential work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import FlagSkeleton, SimplicialComplex, classify_input
from .engine import PairSpec, check_trace, decompose_loop, unique_nodes
from .intlinalg import smith_invariant_factors
from .series import DEFAULT_DEGREE, GradedSeries


class TooLarge(ValueError):
    """Hochster tables are gated to desk-scale vertex counts."""


class NotApplicable(ValueError):
    """No wedge prediction: the chordality gate failed."""


HOCHSTER_VERTEX_BOUND = 12


def _rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    if not matrix or not matrix[0]:
        return 0
    a = [row[:] for row in matrix]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, rows):
            if a[i][col]:
                p, q = a[rank][col], a[i][col]
                a[i] = [p * x - q * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _face_layers(K: SimplicialComplex) -> list[list[int]]:
    """K's nonempty faces as vertex bitmasks (bit v - 1 for vertex v), by
    dimension."""
    layers: list[list[int]] = [[] for _ in range(K.dim() + 1)]
    for f in K.nonempty_faces():
        layers[len(f) - 1].append(sum(1 << (v - 1) for v in f))
    return [sorted(layer) for layer in layers]


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Boundary of the upper faces in the lower ones: dropping the k-th
    vertex, ascending, of a face has sign (-1)^k."""
    index = {f: i for i, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        sign, rest = 1, face
        while rest:
            low = rest & -rest
            matrix[index[face ^ low]][j] = sign
            sign, rest = -sign, rest ^ low
    return matrix


def _homology(layers: list[list[int]], with_torsion: bool = False):
    """Reduced homology ranks over Q of the complex with these nonempty face
    layers (none empty), and the degrees j with torsion in H_j(K; Z) when
    with_torsion is set."""
    boundaries = [_boundary_matrix(layers[d - 1], layers[d]) for d in range(1, len(layers))]
    boundary_ranks = [1, *map(_rank, boundaries), 0]  # augmentation C_0 -> Z has rank 1
    ranks = {}
    for d, faces in enumerate(layers):
        r = len(faces) - boundary_ranks[d] - boundary_ranks[d + 1]
        if r:
            ranks[d] = r
    torsion = {
        d
        for d, matrix in enumerate(boundaries)
        if with_torsion and any(f > 1 for f in smith_invariant_factors(matrix))
    }
    return ranks, torsion


def simplicial_homology_ranks(K: SimplicialComplex) -> dict[int, int]:
    """Reduced homology ranks over Q; empty map for the empty complex."""
    if K.m == 0:
        return {}
    return _homology(_face_layers(K))[0]


@dataclass(frozen=True)
class HochsterTable:
    """Reduced-cohomology ranks of Z_K by degree, optional torsion flags."""

    ranks: dict[int, int]
    torsion: dict[int, bool] | None = None


def _check_vertex_bound(m: int) -> None:
    if m > HOCHSTER_VERTEX_BOUND:
        raise TooLarge(f"m = {m} exceeds the bound {HOCHSTER_VERTEX_BOUND}")


def hochster_table(K: SimplicialComplex, with_torsion: bool = False) -> HochsterTable:
    """Sum reduced subcomplex homology over all nonempty vertex subsets.

    K's faces are enumerated once, as bitmasks; the full subcomplex on a
    vertex set S is the faces f with f & ~S == 0.  Homology ignores labels,
    so nothing is relabelled.
    """
    _check_vertex_bound(K.m)
    layers = _face_layers(K)
    ranks: dict[int, int] = {}
    torsion: dict[int, bool] = {}
    for subset in range(1, 1 << K.m):
        outside = ~subset
        restricted = []
        for layer in layers:
            faces = [f for f in layer if not f & outside]
            if not faces:
                break
            restricted.append(faces)
        shift = subset.bit_count() + 1
        sub_ranks, sub_torsion = _homology(restricted, with_torsion)
        for j, r in sub_ranks.items():
            ranks[j + shift] = ranks.get(j + shift, 0) + r
        for j in sub_torsion:
            # UCT: torsion of H_j lands in H^(j+1)
            torsion[j + 1 + shift] = True
    return HochsterTable(
        dict(sorted(ranks.items())), dict(sorted(torsion.items())) if with_torsion else None
    )


def _wedge_obstruction(K: SimplicialComplex) -> str | None:
    """Why Z_K is not known to be a wedge of spheres, or None when it is:
    K flag, or a graph, with chordal 1-skeleton.  The empty complex gives
    a point, the empty wedge."""
    cls = classify_input(K)
    if not (cls.flag or K.dim() <= 1):
        return "K is neither flag nor 1-dimensional"
    if not cls.chordal_1_skeleton:
        return "1-skeleton is not chordal, Z_K is not a wedge"
    return None


def _wedge_loop_series(ranks: dict[int, int]) -> GradedSeries:
    den = [1] + [0] * (max((j - 1 for j in ranks), default=0))
    for j, r in ranks.items():
        den[j - 1] -= r
    return GradedSeries((1,), tuple(den))


def predicted_loop_series(K: SimplicialComplex) -> GradedSeries:
    """Loop series of Z_K when Z_K is a wedge: 1/(1 - sum r_j t^(j-1)).

    Applicable when K is flag, or a graph, with chordal 1-skeleton; these
    are exactly the cases where the wedge decomposition of Z_K is known.
    """
    obstruction = _wedge_obstruction(K)
    if obstruction is not None:
        raise NotApplicable(obstruction)
    return _wedge_loop_series(hochster_table(K).ranks)


def _is_four_cycle(K: SimplicialComplex) -> bool:
    # a graph on 4 vertices, each of degree 2, is the 4-cycle
    if K.m != 4 or K.dim() != 1:
        return False
    return all(row.bit_count() == 2 for row in FlagSkeleton.of(K).adj)


# the boundary of a square is the one pinned external anchor: Z_K = S^3 x S^3
_FOUR_CYCLE_LOOP_SERIES = GradedSeries((1,), (1, 0, -2, 0, 1))


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | NOTE
    detail: str = ""
    data: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "status": "PASS" if self.passed else "FAIL",
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail, **c.data}
                for c in self.checks
            ],
        }


def _first_divergence(a, b) -> int | None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None


def verify_against_oracle(
    K: SimplicialComplex, pairs: PairSpec, cutoff: int = DEFAULT_DEGREE
) -> VerificationReport:
    """Run the engine and re-check it: the trace certificate, which also
    checks the listed factors, against a root that must be K with the
    pairs, and (when applicable) the independent homology prediction."""
    checks: list[CheckResult] = []
    wedge = pairs.is_moment_angle() and _wedge_obstruction(K) is None
    if wedge:
        # the Hochster table is 2^m work: refuse before decomposing
        _check_vertex_bound(K.m)
    try:
        product, trace = decompose_loop(K, pairs, cutoff)
    except Exception as exc:  # reported, not raised: failures are entries
        checks.append(CheckResult("decompose", "FAIL", f"{type(exc).__name__}: {exc}"))
        return VerificationReport(checks)
    expansion = list(product.series.expand(cutoff))
    checks.append(
        CheckResult(
            "decompose",
            "PASS",
            "engine produced a canonical product",
            {
                "factors": product.to_doc()["factors"],
                "series": product.to_doc()["series"],
                "expansion": expansion,
            },
        )
    )

    # the certificate derives every node from the root: it must be K and the pairs
    nodes, failures = len(unique_nodes(trace)), check_trace(trace, cutoff)
    if trace.graph != FlagSkeleton.of(K) or trace.pairs.key() != pairs.key():
        root = f"node {nodes - 1} ({trace.rule}, m={trace.m})"
        failures.append(f"{root}: the root is not the complex and pairs asked")
    checks.append(
        CheckResult(
            "trace_identities",
            "PASS" if not failures else "FAIL",
            "; ".join(failures) if failures else f"all {nodes} nodes exact",
        )
    )

    if not pairs.is_moment_angle():
        checks.append(CheckResult("oracle_series", "NOTE", "no moment-angle oracle for these pairs"))
        return VerificationReport(checks)

    if wedge:
        predicted = _wedge_loop_series(hochster_table(K).ranks)
        source = "Hochster prediction"
    elif _is_four_cycle(K):
        predicted, source = _FOUR_CYCLE_LOOP_SERIES, "known answer for the 4-cycle"
    else:
        checks.append(CheckResult("oracle_series", "NOTE", "no independent oracle"))
        return VerificationReport(checks)
    want = list(predicted.expand(cutoff))
    diverge = _first_divergence(expansion, want)
    checks.append(
        CheckResult(
            "oracle_series",
            "PASS" if diverge is None else "FAIL",
            source if diverge is None else f"{source}: first divergent degree {diverge}",
            {"expected_expansion": want}
            | ({} if diverge is None else {"first_divergent_degree": diverge}),
        )
    )
    return VerificationReport(checks)
