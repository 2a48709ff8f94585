"""One workload run in a fresh interpreter: a single closed-loop caller.

run.py starts this file with the checkout's `src` on PYTHONPATH.  It calls
`loopdecomp.cli.main(argv)` in-process for one item at a time, with no
threads, and writes what it saw to a JSON file for run.py to check:

    worker.py ITEMS.json RESULT.json --seconds S [--trace]

The timed phase runs whole passes over the item list, stopping at the pass
end nearest to S seconds, after at least two passes (one with --trace).
Each call gets ITEM_BUDGET_S seconds; a call over budget is interrupted by
SIGALRM and recorded as failed.  Reading and hashing a call's output file
and timing the speed loop (speed.py) between calls are the harness's own
work: their time is left out of the timed phase.  With --trace, every item
is called once untraced and once traced (alternating which goes first) so
the tracing overhead is measured on the same work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
from time import perf_counter

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import speed  # noqa: E402  (this file's directory is first on sys.path)

# stop starting items after this long, so that a much slower program still
# finishes within three minutes; the run then covers a partial pass
HARD_CAP_S = 110
ITEM_BUDGET_S = 10.0


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise OverBudget


def call(main, argv) -> str:
    """One CLI call: 'ok', 'exit N', 'over budget' or 'exception ...'."""
    try:
        signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
        try:
            code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        return "over budget"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return f"exception {type(exc).__name__}: {exc}"
    return "ok" if code == 0 else f"exit {code}"


def digest(path: str) -> tuple[str | None, int]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None, 0
    return hashlib.sha256(data).hexdigest(), len(data)


def timed_phase(items, seconds, step, min_passes):
    """Run `step` over whole passes of the items; return (passes, elapsed).

    `step` returns the seconds it spent on harness work, which are not
    part of the elapsed time."""
    start = perf_counter()
    harness = 0.0
    passes = 0
    while True:
        for item in items:
            if perf_counter() - start > HARD_CAP_S:
                return passes, perf_counter() - start - harness
            harness += step(item)
        passes += 1
        elapsed = perf_counter() - start - harness
        if passes >= min_passes and elapsed + elapsed / passes / 2 >= seconds:
            return passes, elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("items")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from loopdecomp import cli

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"loopdecomp imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    with open(args.items) as handle:
        items = json.load(handle)
    for item in items:
        item["argv"] = item["argv"] + ["--output", item["output"]]
    signal.signal(signal.SIGALRM, _alarm)

    records = []
    result = {"records": records}
    if not args.trace:
        call(cli.main, items[0]["argv"])  # warm-up, untimed
        meter = speed.Meter()
        result["speed_samples"] = meter.samples

        def step(item):
            t = perf_counter()
            status = call(cli.main, item["argv"])
            seconds = perf_counter() - t
            records.append([item["id"], seconds, status, digest(item["output"])[0]])
            meter.after(seconds)
            return perf_counter() - t - seconds

    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        call(cli.main, items[0]["argv"])  # warm-up, untimed
        tracer.uninstall()
        tracer = Tracer()
        sums = {"untraced_s": 0.0, "traced_s": 0.0, "output_bytes": 0}

        def step(item):
            harness = 0.0
            for traced in (True, False) if item["id"] % 2 else (False, True):
                if traced:
                    tracer.install()
                t = perf_counter()
                status = call(cli.main, item["argv"])
                seconds = perf_counter() - t
                if traced:
                    tracer.uninstall()
                    sha, size = digest(item["output"])
                    sums["traced_s"] += seconds
                    sums["output_bytes"] += size
                    records.append([item["id"], seconds, status, sha])
                    harness += perf_counter() - t - seconds
                else:
                    sums["untraced_s"] += seconds
            return harness

    # two passes give each latency sample a second call of every item; the
    # traced run reports per-pass values, for which one pass is enough
    passes, elapsed = timed_phase(items, args.seconds, step, 1 if args.trace else 2)
    result.update(passes=passes, elapsed_s=elapsed)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        result["trace"] = {
            **sums,
            "calls": tracer.calls,
            "outer_s": tracer.outer_s,
            "module_self_s": tracer.module_self_s(),
            "counts": tracer.counts,
            "wrapped": tracer.wrapped,
            "max_coeff_bits": tracer.max_coeff_bits,
            "counter_s": tracer.counter_s,
        }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
