"""The value types and the CLI's start-up.

Seven value types are read-only: a field can be neither assigned nor
deleted, since memo keys are built from them, and no function writes one
after construction.  They survive copy, deepcopy and pickle, and
SimplicialComplex, Classification and PProduct keep the equality (and
the first two the hash) that the code relies on.  A GradedSeries
defaults to denominator 1, and a TraceNode to no vertex and a children
list of its own.  Importing the CLI loads neither dataclasses nor
inspect.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from loopdecomp.cli import resolve_pairs
from loopdecomp.complexes import Classification, SimplicialComplex, classify_input, validate_complex
from loopdecomp.engine import PairSpec, TraceNode, decompose_loop
from loopdecomp.homotopy import CellSeries, PProduct, SphereWedge
from loopdecomp.series import GradedSeries

from helpers import CP_PAIRS, cp_fiber_pairs

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    GradedSeries: ("num", "den"),
    CellSeries: ("reduced",),
    SphereWedge: ("cells",),
    PProduct: ("series", "factors", "cutoff"),
    SimplicialComplex: ("m", "facets"),
    Classification: Classification._fields,
    PairSpec: ("cells",),
}


def plain(value):
    """A value as nested tuples of its fields, a series as (num, den)."""
    if isinstance(value, GradedSeries):
        return value.num, value.den
    if type(value) in FIELDS:
        return type(value).__name__, *(plain(getattr(value, f)) for f in FIELDS[type(value)])
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def _cases():
    c5 = validate_complex([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], 5)
    cp = cp_fiber_pairs(CP_PAIRS[:5])
    fraction = next(c for c in cp.cells if c.den != (1,))
    product, _ = decompose_loop(classify_input(c5), cp, 12)
    return [
        GradedSeries((0, 1, 2)),
        fraction,
        CellSeries(fraction, 13),
        SphereWedge(CellSeries(GradedSeries((0, 0, 2, 1)), 13)),
        product,
        decompose_loop(classify_input(c5), resolve_pairs("disks:3", 5)[0], 20)[0],
        c5,
        classify_input(c5),
        cp,
    ]


CASES = _cases()


@pytest.fixture(params=CASES, ids=lambda v: type(v).__name__)
def value(request):
    return request.param


def test_every_read_only_type_has_a_case():
    assert {type(v) for v in CASES} == set(FIELDS)


def test_fields_are_read_only(value):
    before = plain(value)
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert plain(value) == before


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_fields(value, clone):
    other = clone(value)
    assert type(other) is type(value)
    assert plain(other) == plain(value)
    with pytest.raises(AttributeError):
        setattr(other, FIELDS[type(value)][0], None)
    if isinstance(value, (SimplicialComplex, Classification)):
        assert other == value and hash(other) == hash(value)
    if isinstance(value, PProduct):
        assert other == value


def test_a_copied_series_keeps_its_expansion():
    series = GradedSeries((1,), (1, -1, -1))
    series.expand(6)
    other = copy.deepcopy(series)
    assert other.expand(10) == series.expand(10) and other == series


def _object_setattr_scopes(node, names=()):
    """The dotted names of the defs around each object.__setattr__ call."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = (*names, node.name)
    func = getattr(node, "func", None)
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    ):
        yield ".".join(names)
    for child in ast.iter_child_nodes(node):
        yield from _object_setattr_scopes(child, names)


def test_no_value_is_written_after_construction():
    # a slot is set by its own __init__, or restored by __setstate__; no
    # other function writes one, and nothing is cached on a value later
    writers = {
        f"{path.stem}.{scope}"
        for path in (SRC / "loopdecomp").glob("*.py")
        for scope in _object_setattr_scopes(ast.parse(path.read_text(encoding="utf-8")))
        if scope.rsplit(".", 1)[-1] not in ("__init__", "__setstate__")
    }
    assert writers == set()
    assert SimplicialComplex.__slots__ == FIELDS[SimplicialComplex]


def test_complex_equality_and_hash_are_by_facets():
    a = validate_complex([[1, 2], [2, 3]], 3)
    b = validate_complex([[3, 2], [1, 2]], 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != validate_complex([[1, 2, 3]], 3)
    assert a != (3, a.facets)


def test_product_equality_is_by_series_and_cutoff():
    p = PProduct(GradedSeries.one(), 8)
    assert p == PProduct(GradedSeries((1, 1), (1, 1)), 8)
    assert p != PProduct(GradedSeries.one(), 9)
    assert p != PProduct(GradedSeries((1, 1)), 8)
    with pytest.raises(TypeError):
        hash(p)


def test_constructor_defaults():
    assert GradedSeries((0, 1)).den == (1,)
    one = GradedSeries.one()
    first, second = TraceNode("contractible", one), TraceNode("contractible", one)
    assert first.vertex is None and first.children == [] and first.children is not second.children
    assert TraceNode("cone", one, None, [first]).children == [first]


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import loopdecomp.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "loopdecomp.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
