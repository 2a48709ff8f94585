"""The README's Example block runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

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
