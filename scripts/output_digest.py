"""One digest over the CLI's outputs on the benchmark's seed-1 and seed-2 inputs.

Usage: PYTHONPATH=src python scripts/output_digest.py

It writes the items of every loopbench workload, for seeds 1 and 2, into a
temporary directory with `loopbench/inputs.py` and runs each through
`cli.main` in-process; each `decompose` item runs a second time as `verify`,
the same argv without `--trace`.  It prints the number of calls and one
sha256 over every call's exit code, stdout and stderr, so a refactor that
keeps the program's bytes prints the same line before and after it.  No
output names a path, so the line does not depend on the directory.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from loopdecomp import cli

# the seeded inputs live with the benchmark that shares them
loopbench = Path(__file__).resolve().parent.parent / "loopbench"
if str(loopbench) not in sys.path:
    sys.path.insert(0, str(loopbench))

import inputs  # noqa: E402

SEEDS = (1, 2)


def calls(directory: str):
    """Every argv, in order: per seed and workload, the items in run order,
    each decompose followed by its verify."""
    for seed in SEEDS:
        for workload in inputs.WORKLOADS:
            for item in inputs.generate(workload, seed, f"{directory}/{workload}-{seed}"):
                argv = item["argv"]
                yield argv
                if argv[0] == "decompose":
                    yield ["verify", *[arg for arg in argv[1:] if arg != "--trace"]]


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as directory:
        for argv in calls(directory):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            digest.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
            count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
