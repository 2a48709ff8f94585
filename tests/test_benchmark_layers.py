"""Every per-layer timing that BENCHMARK.json lists names a public function.

The benchmark's tracer times `<module>.<function>` and
`<module>.<Class>.<method>` by wrapping the public functions and methods
each loopdecomp module defines; a renamed or removed one would leave its
`.s`/`.calls` metric silently at zero.  This test only reads the file.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def timed_names():
    """The `<module>.<function>[.<method>]` of each `.s`/`.calls` entry."""
    names = set()
    for entry in json.loads(SPEC.read_text())["per_layer"]:
        name, _, metric = entry["name"].rpartition(".")
        if metric in ("s", "calls"):
            names.add(name)
    return sorted(names)


def resolve(name):
    """The public function the tracer would wrap under the name, or None."""
    module_name, *path = name.split(".")
    module = importlib.import_module(f"loopdecomp.{module_name}")
    owner = module
    for attr in path:
        if attr.startswith("_") or attr not in vars(owner):
            return None
        value = vars(owner)[attr]
        if inspect.isclass(value):
            if value.__module__ != module.__name__:
                return None
            owner = value
        elif inspect.isfunction(value) and value.__module__ == module.__name__:
            return value if attr == path[-1] else None
        else:
            return None
    return None


def test_every_timed_name_is_a_public_function():
    names = timed_names()
    assert len(names) >= 15
    assert [name for name in names if resolve(name) is None] == []


def test_a_missing_name_is_caught():
    assert resolve("homotopy.PFactor.label") is None
    assert resolve("homotopy._bottom_counts") is None
    assert resolve("series.GradedSeries.expand") is not None
