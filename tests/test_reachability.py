"""`src/loopdecomp` holds only what an entry point reaches.

An AST name graph over the package's modules, stdlib `ast` only:

- The roots are `cli.main`, the names `__init__.py` imports, and each
  module-level statement that is not a def, class or import, since it
  runs at import.
- A reached function reaches every definition named by a `Name` or an
  `Attribute` in its body and decorators, matched by name across the
  package, whatever its module or class.
- A reached class reaches its bases, its dunder methods, the names in its
  other class-body statements, and each method that overrides a method of
  a base outside the package, which that base's code calls (argparse
  calls `error`).

The definitions are the module-level functions and classes and the
classes' methods.  The one exemption is the names BENCHMARK.json times,
whose per-layer metrics would read zero if they went.
"""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

from test_benchmark_layers import timed_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopdecomp"


def _names(nodes) -> set[str]:
    """The identifiers that a Name or an Attribute under the nodes names."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _overrides_external(package: str, module: str, cls: str, method: str) -> bool:
    """Whether a base of the class from outside the package defines the
    method; the class is imported to read its bases."""
    owner = getattr(importlib.import_module(f"{package}.{module}"), cls)
    return any(
        method in vars(base)
        for base in owner.__mro__[1:]
        if base.__module__.split(".")[0] != package
    )


def unreached(directory: Path, package: str) -> list[str]:
    """Every `module.name` and `module.Class.method` defined in the package
    at directory, importable as package, that the roots do not reach."""
    defs = {}  # qualified name -> (module, def node)
    by_name = defaultdict(set)  # short name -> qualified names
    todo = ["cli.main"]
    root_statements = []
    for path in sorted(directory.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{stmt.name}"] = (module, stmt)
                by_name[stmt.name].add(f"{module}.{stmt.name}")
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, ast.FunctionDef):
                            qualified = f"{module}.{stmt.name}.{item.name}"
                            defs[qualified] = (module, item)
                            by_name[item.name].add(qualified)
            elif isinstance(stmt, ast.ImportFrom) and module == "__init__":
                todo.extend(f"{stmt.module}.{alias.name}" for alias in stmt.names)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                root_statements.append(stmt)
    for name in _names(root_statements):
        todo.extend(by_name[name])
    reached = set()
    while todo:
        qualified = todo.pop()
        if qualified in reached or qualified not in defs:
            continue
        reached.add(qualified)
        module, node = defs[qualified]
        if isinstance(node, ast.FunctionDef):
            named = _names([*node.body, *node.decorator_list])
        else:
            named = _names(node.bases)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    named |= _names([item])
                elif (
                    item.name.startswith("__") and item.name.endswith("__")
                ) or _overrides_external(package, module, node.name, item.name):
                    todo.append(f"{qualified}.{item.name}")
        for name in named:
            todo.extend(by_name[name])
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    exempt = set(timed_names())
    assert [name for name in unreached(PACKAGE, "loopdecomp") if name not in exempt] == []


SYNTHETIC = {
    "__init__.py": "from .core import Shape\n",
    "cli.py": (
        "import argparse\n"
        "from .core import area\n\n\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise ValueError(message)\n\n\n"
        "def main():\n"
        "    return area(_Parser().parse_args([]))\n"
    ),
    "core.py": (
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.side = SIDE\n\n\n"
        "class Shape(Base):\n"
        "    def scaled(self):\n"
        "        return _double(self.side)\n\n\n"
        "def _double(x):\n"
        "    return 2 * x\n\n\n"
        "def _unit():\n"
        "    return 1\n\n\n"
        "SIDE = _unit()\n\n\n"
        "def area(args):\n"
        "    return Shape().scaled() ** 2\n\n\n"
        "def perimeter(shape):\n"
        "    return 4 * shape.side\n"
    ),
}


def test_a_callerless_function_is_listed(tmp_path, monkeypatch):
    package = tmp_path / "reachdemo"
    package.mkdir()
    for name, text in SYNTHETIC.items():
        (package / name).write_text(text, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert unreached(package, "reachdemo") == ["core.perimeter"]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "reachdemo"]:
            del sys.modules[name]
