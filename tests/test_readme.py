"""The README's Example block runs as written and prints what it says, and
its section from the paper to the code covers every trace rule and every
P-calculus step of the certificate."""

import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

from loopdecomp import engine, homotopy

README = Path(__file__).resolve().parent.parent / "README.md"


def test_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("\n## Example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print's comment starts with the printed value; ": " ends it
    claimed = [
        line.split("#", 1)[1].strip().split(": ", 1)[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(claimed) == 2
    assert out.getvalue().splitlines() == claimed


def _paper_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## From the paper to the code\n", 1)[1].split("\n## ", 1)[0]


def test_every_trace_rule_has_a_paragraph():
    # the rules _derive accepts are the constants it compares rule with
    tree = ast.parse(inspect.getsource(engine._derive))
    rules = {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "rule"
        and isinstance(node.comparators[0], ast.Constant)
    }
    assert "pushout" in rules
    starts = {paragraph.split(":", 1)[0] for paragraph in _paper_section().split("\n\n")}
    assert {f"`{rule}`" for rule in rules} <= starts


def test_every_calculus_step_is_named():
    # each homotopy function _rebuild calls, as `name` or `homotopy.name`
    tree = ast.parse(inspect.getsource(engine._rebuild))
    steps = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and inspect.isfunction(getattr(homotopy, node.func.id, None))
    }
    assert "divide_products" in steps
    section = _paper_section()
    assert [s for s in steps if f"`{s}`" not in section and f"`homotopy.{s}`" not in section] == []
