"""Independent verification oracles.

Reduced simplicial homology ranks over the rationals by exact ranks of
boundary matrices, the Hochster-style rank table for the moment-angle
complex Z_K (reduced cohomology of full subcomplexes, shifted by |S|+1,
empty subset excluded), and the predicted loop-space series
1/(1 - sum r_j t^(j-1)) in the cases where Z_K is known to be a wedge of
spheres, namely flag or 1-dimensional K with chordal 1-skeleton.

Faces are vertex bitmasks (bit v - 1 for vertex v).  The Hochster table is
one depth-first walk over the vertex subsets: each subset adds to its
parent's faces those of its top vertex that it contains, and merges its
parent's components by that vertex's edges, so rank d_1 is read off the
components and no face is relabelled.
`verify_against_oracle` applies the table's vertex bound before it
decomposes, so an oversized input exits before any exponential work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import FlagSkeleton, SimplicialComplex, classify_input
from .engine import NotFlagSkeleton, PairSpec, check_trace, decompose_loop, unique_nodes
from .series import DEFAULT_DEGREE, GradedSeries


class TooLarge(ValueError):
    """An input past a desk-scale gate: the Hochster table's vertex count,
    the cell degree of a pair, or the cutoff."""


class NotApplicable(ValueError):
    """No wedge prediction: the chordality gate failed."""


HOCHSTER_VERTEX_BOUND = 12


def _rank(a: list[list[int]]) -> int:
    """Rank of a nonempty integer matrix by fraction-free elimination, in
    place."""
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


def _faces_by_top(K: SimplicialComplex) -> list[tuple[list[list[int]], int]]:
    """K's nonempty faces as vertex bitmasks (bit v - 1 for vertex v), grouped
    by their top vertex and then by dimension, each group with the mask of
    its top vertex's lower neighbours.  A group's dimensions stop at its
    largest face."""
    groups: list[list[list[int]]] = [[] for _ in range(K.m)]
    for face in sorted(sum(1 << (v - 1) for v in f) for f in K.nonempty_faces()):
        faces, d = groups[face.bit_length() - 1], face.bit_count() - 1
        faces.extend([] for _ in range(d + 1 - len(faces)))
        faces[d].append(face)
    return [
        (faces, sum(e ^ (1 << i) for e in faces[1]) if len(faces) > 1 else 0)
        for i, faces in enumerate(groups)
    ]


def _join(components: list[int], vertex: int, neighbours: int) -> list[int]:
    """Components, as vertex masks, once a vertex joins them by edges to
    its neighbours."""
    joined, rest = vertex, []
    for component in components:
        if component & neighbours:
            joined |= component
        else:
            rest.append(component)
    return [*rest, joined]


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


def _homology(layers: list[list[int]], components: list[int]) -> dict[int, int]:
    """Reduced homology ranks over Q of the nonempty complex with these face
    layers (any empty ones last) and components.

    rank d_1 is the vertex count less the component count, so d_1 is never
    built.
    """
    layers = list(itertools.takewhile(bool, layers))
    boundary_ranks = [1, len(layers[0]) - len(components)]  # augmentation C_0 -> Z has rank 1
    for d in range(2, len(layers)):
        boundary_ranks.append(_rank(_boundary_matrix(layers[d - 1], layers[d])))
    boundary_ranks.append(0)
    ranks = {}
    for d, faces in enumerate(layers):
        r = len(faces) - boundary_ranks[d] - boundary_ranks[d + 1]
        if r:
            ranks[d] = r
    return ranks


def simplicial_homology_ranks(K: SimplicialComplex) -> dict[int, int]:
    """Reduced homology ranks over Q; empty map for the empty complex."""
    if K.m == 0:
        return {}
    layers: list[list[int]] = [[] for _ in range(K.dim() + 1)]
    components: list[int] = []
    for i, (faces, neighbours) in enumerate(_faces_by_top(K)):
        for layer, new in zip(layers, faces):
            layer += new
        components = _join(components, 1 << i, neighbours)
    return _homology(layers, components)


def _check_vertex_bound(m: int) -> None:
    if m > HOCHSTER_VERTEX_BOUND:
        raise TooLarge(f"m = {m} exceeds the bound {HOCHSTER_VERTEX_BOUND}")


def hochster_table(K: SimplicialComplex) -> dict[int, int]:
    """Reduced-cohomology ranks of Z_K by degree, in degree order: reduced
    subcomplex homology summed over all nonempty vertex subsets.

    One depth-first walk visits each subset S once, grown from S less its
    top vertex v.  The full subcomplex on S is its parent's faces plus the
    faces with top vertex v that lie in S (f & ~S == 0), appended to one
    set of face layers and cut back after S's own subtree.  Its components
    are its parent's, merged by v's edges.  Homology ignores labels, so
    nothing is relabelled.
    """
    _check_vertex_bound(K.m)
    groups = _faces_by_top(K)
    layers: list[list[int]] = [[] for _ in range(K.dim() + 1)]
    ranks: dict[int, int] = {}

    def walk(subset: int, components: list[int], top: int) -> None:
        for i in range(top + 1, K.m):
            grown = subset | 1 << i
            outside = ~grown
            faces, neighbours = groups[i]
            sizes = []
            for layer, new in zip(layers, faces):
                sizes.append(len(layer))
                layer += [f for f in new if not f & outside]
            joined = _join(components, 1 << i, neighbours)
            shift = grown.bit_count() + 1
            for j, r in _homology(layers, joined).items():
                ranks[j + shift] = ranks.get(j + shift, 0) + r
            walk(grown, joined, i)
            for layer, size in zip(layers, sizes):
                del layer[size:]

    walk(0, [], -1)
    return dict(sorted(ranks.items()))


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


def predicted_loop_series(K: SimplicialComplex) -> GradedSeries:
    """Loop series of Z_K when Z_K is a wedge: 1/(1 - sum r_j t^(j-1)).

    Applicable when K is flag, or a graph, with chordal 1-skeleton; these
    are exactly the cases where the wedge decomposition of Z_K is known.
    """
    obstruction = _wedge_obstruction(K)
    if obstruction is not None:
        raise NotApplicable(obstruction)
    ranks = hochster_table(K)
    den = [1] + [0] * (max((j - 1 for j in ranks), default=0))
    for j, r in ranks.items():
        den[j - 1] -= r
    return GradedSeries((1,), tuple(den))


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
    except NotFlagSkeleton:
        raise  # an inadmissible input is refused, as decompose refuses it
    except Exception as exc:  # reported, not raised: failures are entries
        checks.append(CheckResult("decompose", "FAIL", f"{type(exc).__name__}: {exc}"))
        return VerificationReport(checks)
    expansion = list(product.series.expand(cutoff))
    doc = product.to_doc()
    checks.append(
        CheckResult(
            "decompose",
            "PASS",
            "engine produced a canonical product",
            {"factors": doc["factors"], "series": doc["series"], "expansion": expansion},
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
        predicted = predicted_loop_series(K)
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
