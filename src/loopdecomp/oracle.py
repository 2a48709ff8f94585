"""Independent verification oracles.

Reduced simplicial homology ranks over the rationals, the Hochster-style
rank table for the moment-angle complex Z_K (reduced cohomology of full
subcomplexes, shifted by |S|+1, empty subset excluded), and the predicted
loop-space series 1/(1 - sum r_j t^(j-1)) in the cases where Z_K is known
to be a wedge of spheres, namely flag or 1-dimensional K with chordal
1-skeleton.

Faces are vertex bitmasks (bit v - 1 for vertex v).  A full subcomplex
grows one top vertex v at a time.  Every face it adds contains v, so its
mask exceeds every inherited face's: the boundary matrices gain columns
and rows that no inherited column touches.  So each step reduces only
the new faces' columns, exactly over Z, against the inherited pivot
columns (persistent homology's column reduction), and reads rank d_1 off
the components, merged by v's edges.  The new columns go by descending
dimension.  A reduced column has zero boundary, so a new face that is its
lowest row has a column that the others of its dimension span: coming
later, it is cleared (Chen and Kerber's twist), counted as a cycle,
never reduced, and, as it adds no pivot, never undone.  A subset's ranks
travel as (H_0, H_1, higher), `higher` a tuple without trailing zeros
that a step with no new face of dimension >= 2 hands on as it is.  The
Hochster table takes this step along one depth-first walk over the
vertex subsets, cutting the pivots back after each subtree; K's own
ranks take it along {1}, {1,2}, ..., [m].
`verify_against_oracle` classifies K once for all its checks and picks its
oracle before it decomposes, so the oracle's gates, the table's vertex
bound among them, refuse an input before any exponential work.  The
prediction speaks only of moment-angle pairs, whose vertex cell t this
module holds (`_CIRCLE`); the cutoff is the caller's, as for the engine.
"""

from __future__ import annotations

from math import gcd

from .complexes import Classification, FlagSkeleton, SimplicialComplex, TooLarge, classify_input
from .engine import NotFlagSkeleton, PairSpec, check_trace, decompose_loop, unique_nodes
from .series import GradedSeries


class NotApplicable(ValueError):
    """No wedge prediction: the chordality gate failed."""


HOCHSTER_VERTEX_BOUND = 12
# a moment-angle pair's vertex cells: A_i = S^1
_CIRCLE = GradedSeries.monomial(1)


def _faces_by_top(K: SimplicialComplex) -> list[tuple[list[int], int, int]]:
    """K's faces as vertex bitmasks (bit v - 1 for vertex v), grouped by
    their top vertex: each group holds its faces of dimension >= 2 by
    descending dimension, its top vertex's lower neighbours and bit."""
    high: list[list[int]] = [[] for _ in range(K.m)]
    below = [0] * K.m
    for face in sorted(K.faces(), key=lambda f: (-f.bit_count(), f)):
        top = face.bit_length() - 1
        if face.bit_count() == 2:
            below[top] |= face ^ 1 << top
        elif face.bit_count() > 2:
            high[top].append(face)
    return [(faces, below[i], 1 << i) for i, faces in enumerate(high)]


def _reduce(face: int, pivots: dict[int, dict[int, int]]) -> int | None:
    """Reduce a face's boundary column (row mask -> entry, (-1)^k for
    dropping its k-th vertex) exactly over Z against the pivot columns,
    keyed by their lowest (largest-mask) row: c <- p c - q pivot cancels
    c's lowest entry, then c is divided by its content.  A nonzero result
    becomes the pivot of its lowest row, which is returned."""
    column = {}
    rest, sign = face, 1
    while rest:
        bit = rest & -rest
        column[face ^ bit] = sign
        rest, sign = rest ^ bit, -sign
    low = face & (face - 1)  # the largest row drops the lowest vertex
    while (pivot := pivots.get(low)) is not None:
        g = gcd(pivot[low], column[low])
        p, q = pivot[low] // g, column[low] // g
        if p != 1:
            column = {r: p * x for r, x in column.items()}
        for r, x in pivot.items():
            if y := column.get(r, 0) - q * x:
                column[r] = y
            else:
                del column[r]
        if not column:
            return None
        g = gcd(*column.values())
        if g > 1:
            column = {r: x // g for r, x in column.items()}
        low = max(column)
    pivots[low] = column
    return low


def _step(pivots: dict, grown: int, group: tuple, components: list[int], ranks: tuple):
    """Components, ranks (H_0, H_1, higher) and added pivot rows of the
    full subcomplex on the mask `grown`, from those of its parent without
    its top vertex, whose faces, lower neighbours and bit are `group`: an
    edge that merges no components adds a 1-cycle, a new face's zero column
    a cycle, and any other bounds one of the dimension below.  A new face
    that is already a pivot row is cleared, as the module docstring says."""
    high, neighbours, joined = group
    rest = []
    for component in components:
        if component & neighbours:
            joined |= component
        else:
            rest.append(component)
    rest.append(joined)
    _, r1, higher = ranks
    r1 += (neighbours & grown).bit_count() + len(rest) - len(components) - 1
    lows = []
    new = [f for f in high if not f & ~grown] if high else ()
    if new:
        rs = [r1, *higher, *[0] * (new[0].bit_count() - 2 - len(higher))]
        for f in new:
            d = f.bit_count() - 2  # f's dimension less one: its place in rs
            low = None if f in pivots else _reduce(f, pivots)
            if low is None:
                rs[d] += 1
            else:
                rs[d - 1] -= 1
                lows.append(low)
        while len(rs) > 1 and not rs[-1]:
            rs.pop()
        r1, higher = rs[0], tuple(rs[1:])
    return rest, (len(rest) - 1, r1, higher), lows


def simplicial_homology_ranks(K: SimplicialComplex) -> dict[int, int]:
    """Reduced homology ranks over Q, grown along the chain {1}, {1,2},
    ..., [m]; empty map for the empty complex."""
    pivots: dict[int, dict[int, int]] = {}
    components: list[int] = []
    ranks = (0, 0, ())
    for i, group in enumerate(_faces_by_top(K)):
        components, ranks, _ = _step(pivots, (2 << i) - 1, group, components, ranks)
    return {d: r for d, r in enumerate((*ranks[:2], *ranks[2])) if r}


def hochster_table(K: SimplicialComplex) -> dict[int, int]:
    """Reduced-cohomology ranks of Z_K by degree, in degree order: reduced
    subcomplex homology summed over all nonempty vertex subsets.

    One depth-first walk visits each subset S once, grown from S less its
    top vertex v by `_step`: S's new faces are v's faces with f & ~S == 0,
    and only their boundary columns are reduced, by descending dimension,
    against the pivots that S inherits.  A new face that is the lowest row
    of a column reduced at S is cleared, a cycle with no reduction; it
    adds no pivot, so only the pivots S made by reducing are removed after
    S's subtree.  A subset whose top vertex is the last has no subtree and
    no recursive call.  S's ranks are (H_0, H_1, higher), so a step that
    adds no face of dimension >= 2 copies nothing, and only H_0 and H_1
    enter the table when `higher` is empty.  Homology ignores labels, so
    nothing is relabelled.
    """
    if K.m > HOCHSTER_VERTEX_BOUND:
        raise TooLarge(f"m = {K.m} exceeds the bound {HOCHSTER_VERTEX_BOUND}")
    table = [0] * (K.m + K.dim() + 3)  # degree |S| + 1 + j, j <= dim + 1
    _hochster_walk(0, [], (0, 0, ()), _faces_by_top(K), {}, table)
    return {degree: r for degree, r in enumerate(table) if r}


def _hochster_walk(
    subset: int,
    components: list[int],
    ranks: tuple,
    groups: list[tuple[list[int], int, int]],
    pivots: dict[int, dict[int, int]],
    table: list[int],
) -> None:
    """Add the ranks of every subset grown from `subset` by higher vertices
    to table; a module function, not a closure, so a call leaves no cycle."""
    last = len(groups) - 1
    for i in range(subset.bit_length(), last + 1):
        grown = subset | 1 << i
        joined, grown_ranks, lows = _step(pivots, grown, groups[i], components, ranks)
        r0, r1, higher = grown_ranks
        shift = grown.bit_count() + 1
        table[shift] += r0
        table[shift + 1] += r1
        for j, r in enumerate(higher, shift + 2):
            table[j] += r
        if i < last:
            _hochster_walk(grown, joined, grown_ranks, groups, pivots, table)
        for low in lows:
            del pivots[low]


def predicted_loop_series(K: SimplicialComplex, cls: Classification) -> GradedSeries:
    """Loop series of Z_K when Z_K is a wedge: 1/(1 - sum r_j t^(j-1)).

    Applicable when K is flag, or a graph, with chordal 1-skeleton, as its
    classification cls says: exactly the cases where Z_K is known to be a
    wedge.  The empty complex gives a point, the empty wedge.  Elsewhere it
    raises NotApplicable, and past the table's vertex bound TooLarge.
    """
    if not (cls.flag or K.dim() <= 1):
        raise NotApplicable("K is neither flag nor 1-dimensional")
    if not cls.chordal_1_skeleton:
        raise NotApplicable("1-skeleton is not chordal, Z_K is not a wedge")
    ranks = hochster_table(K)
    den = [1] + [0] * (max((j - 1 for j in ranks), default=0))
    for j, r in ranks.items():
        den[j - 1] -= r
    return GradedSeries((1,), tuple(den))


def _is_four_cycle(G: FlagSkeleton) -> bool:
    # a graph on 4 vertices, each of degree 2, is the 4-cycle
    return G.m == 4 and G.k == 1 and all(row.bit_count() == 2 for row in G.adj)


# the boundary of a square is the one pinned external anchor: Z_K = S^3 x S^3
_FOUR_CYCLE_LOOP_SERIES = GradedSeries((1,), (1, 0, -2, 0, 1))


def _check(name: str, status: str, detail: str, **data) -> dict:
    """One entry of a report's checks; status is PASS, FAIL or NOTE."""
    return {"name": name, "status": status, "detail": detail, **data}


def _report(checks: list[dict]) -> dict:
    failed = any(c["status"] == "FAIL" for c in checks)
    return {"status": "FAIL" if failed else "PASS", "checks": checks}


def verify_against_oracle(K: SimplicialComplex, pairs: PairSpec, cutoff: int) -> dict:
    """Run the engine and re-check it: the trace certificate, which
    derives every node from K and the pairs and also checks the listed
    factors, and (when applicable) the independent homology prediction.
    Returns the document `verify` writes below its header:
    {"status": "PASS" | "FAIL", "checks": [{"name", "status", "detail",
    ...data}, ...]}, FAIL when some check failed."""
    # the oracle comes first: its gates refuse an input before the engine runs
    cls, predicted = classify_input(K), None
    if any(s != _CIRCLE for s in pairs.cells):
        source = "no moment-angle oracle for these pairs"
    else:
        try:
            predicted, source = predicted_loop_series(K, cls), "Hochster prediction"
        except NotApplicable:
            if _is_four_cycle(cls.graph):
                predicted, source = _FOUR_CYCLE_LOOP_SERIES, "known answer for the 4-cycle"
            else:
                source = "no independent oracle"
    try:
        product, trace = decompose_loop(cls, pairs, cutoff)
    except (NotFlagSkeleton, TooLarge):
        raise  # refused as decompose refuses it: inadmissible or over a bound
    except Exception as exc:  # reported, not raised: failures are entries
        return _report([_check("decompose", "FAIL", f"{type(exc).__name__}: {exc}")])
    doc = product.to_doc()
    checks = [_check("decompose", "PASS", "engine produced a canonical product", **doc)]

    nodes = len(unique_nodes(trace))
    failures = check_trace(trace, cls.graph, pairs, cutoff)
    checks.append(
        _check(
            "trace_identities",
            "PASS" if not failures else "FAIL",
            "; ".join(failures) if failures else f"all {nodes} nodes exact",
        )
    )

    if predicted is None:
        checks.append(_check("oracle_series", "NOTE", source))
        return _report(checks)
    want = list(predicted.expand(cutoff))
    data = {"expected_expansion": want}
    diverge = next((i for i, (x, y) in enumerate(zip(doc["expansion"], want)) if x != y), None)
    if diverge is not None:
        source += f": first divergent degree {diverge}"
        data["first_divergent_degree"] = diverge
    checks.append(_check("oracle_series", "PASS" if diverge is None else "FAIL", source, **data))
    return _report(checks)
