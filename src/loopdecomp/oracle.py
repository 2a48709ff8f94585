"""Independent verification oracles.

Reduced simplicial homology ranks over the rationals by boundary-matrix
ranks, the Hochster-style rank table for the moment-angle complex Z_K
(reduced cohomology of full subcomplexes, shifted by |S|+1, empty subset
excluded), and the predicted loop-space series 1/(1 - sum r_j t^(j-1)) in
the cases where Z_K is known to be a wedge of spheres, namely flag or
1-dimensional K with chordal 1-skeleton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import SimplicialComplex, classify_input, full_subcomplex
from .engine import PairSpec, check_trace, decompose_loop
from .homotopy import greedy_factorize
from .intlinalg import smith_invariant_factors
from .series import GradedSeries


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


def _faces_by_dim(K: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in K.nonempty_faces():
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    return [sorted(by_dim.get(d, [])) for d in range(max(by_dim, default=-1) + 1)]


def _boundary_matrix(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]):
    index = {f: i for i, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            matrix[index[sub]][j] = (-1) ** k
    return matrix


def simplicial_homology_ranks(K: SimplicialComplex) -> dict[int, int]:
    """Reduced homology ranks over Q; empty map for the empty complex."""
    if K.m == 0:
        return {}
    layers = _faces_by_dim(K)
    boundary_ranks = [1]  # augmentation C_0 -> Z has rank 1
    for d in range(1, len(layers)):
        boundary_ranks.append(_rank(_boundary_matrix(layers[d - 1], layers[d])))
    boundary_ranks.append(0)
    out = {}
    for d, faces in enumerate(layers):
        r = len(faces) - boundary_ranks[d] - boundary_ranks[d + 1]
        if r:
            out[d] = r
    return out


def _torsion_degrees(K: SimplicialComplex) -> set[int]:
    """Degrees j with torsion in H_j(K; Z), from Smith forms of boundaries."""
    layers = _faces_by_dim(K)
    torsion = set()
    for d in range(1, len(layers)):
        invariants = smith_invariant_factors(_boundary_matrix(layers[d - 1], layers[d]))
        if any(f > 1 for f in invariants):
            torsion.add(d - 1)
    return torsion


@dataclass(frozen=True)
class HochsterTable:
    """Reduced-cohomology ranks of Z_K by degree, optional torsion flags."""

    ranks: dict[int, int]
    torsion: dict[int, bool] | None = None


def hochster_table(
    K: SimplicialComplex,
    with_torsion: bool = False,
    max_vertices: int = HOCHSTER_VERTEX_BOUND,
) -> HochsterTable:
    """Sum reduced subcomplex homology over all nonempty vertex subsets."""
    if K.m > max_vertices:
        raise TooLarge(f"m = {K.m} exceeds the bound {max_vertices}")
    ranks: dict[int, int] = {}
    torsion: dict[int, bool] = {}
    for size in range(1, K.m + 1):
        for subset in itertools.combinations(K.vertices(), size):
            ks = full_subcomplex(K, subset)
            for j, r in simplicial_homology_ranks(ks).items():
                degree = j + size + 1
                ranks[degree] = ranks.get(degree, 0) + r
            if with_torsion:
                for j in _torsion_degrees(ks):
                    # UCT: torsion of H_j lands in H^(j+1)
                    torsion[(j + 1) + size + 1] = True
    return HochsterTable(dict(sorted(ranks.items())), torsion if with_torsion else None)


def predicted_loop_series(K: SimplicialComplex) -> GradedSeries:
    """Loop series of Z_K when Z_K is a wedge: 1/(1 - sum r_j t^(j-1)).

    Applicable when K is flag, or a graph, with chordal 1-skeleton; these
    are exactly the cases where the wedge decomposition of Z_K is known.
    """
    cls = classify_input(K)
    if not (cls.flag or K.dim() <= 1):
        raise NotApplicable("K is neither flag nor 1-dimensional")
    if not cls.chordal_1_skeleton:
        raise NotApplicable("1-skeleton is not chordal, Z_K is not a wedge")
    ranks = hochster_table(K).ranks
    den = [1] + [0] * (max((j - 1 for j in ranks), default=0))
    for j, r in ranks.items():
        den[j - 1] -= r
    return GradedSeries((1,), tuple(den))


def _is_four_cycle(K: SimplicialComplex) -> bool:
    if K.m != 4 or K.dim() != 1 or len(K.edges()) != 4:
        return False
    adj = K.adjacency()
    return all(len(adj[v]) == 2 for v in K.vertices())


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
    K: SimplicialComplex, pairs: PairSpec, cutoff: int = 20
) -> VerificationReport:
    """Run the engine and re-check it: trace identities, greedy round trip,
    and (when applicable) the independent homology prediction."""
    checks: list[CheckResult] = []
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

    failures = check_trace(trace, cutoff)
    checks.append(
        CheckResult(
            "trace_identities",
            "PASS" if not failures else "FAIL",
            "; ".join(failures) if failures else f"all {_count_nodes(trace)} nodes exact",
        )
    )

    try:
        refactored = greedy_factorize(product.series, cutoff)
        ok = refactored.factors == product.factors
        checks.append(
            CheckResult(
                "greedy_round_trip",
                "PASS" if ok else "FAIL",
                "" if ok else "refactorization disagrees with listed factors",
            )
        )
    except Exception as exc:
        checks.append(CheckResult("greedy_round_trip", "FAIL", f"{type(exc).__name__}: {exc}"))

    if not pairs.is_moment_angle():
        checks.append(CheckResult("oracle_series", "NOTE", "no moment-angle oracle for these pairs"))
        return VerificationReport(checks)

    try:
        predicted = predicted_loop_series(K)
    except NotApplicable:
        predicted = _FOUR_CYCLE_LOOP_SERIES if _is_four_cycle(K) else None
        source = "known answer for the 4-cycle" if predicted is not None else None
    else:
        source = "Hochster prediction"
    if predicted is None:
        checks.append(CheckResult("oracle_series", "NOTE", "no independent oracle"))
    else:
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


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(c) for c in node.children)
