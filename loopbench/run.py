"""loopdecomp benchmark: one workload run, checked against an independent reference.

    python3 loopbench/run.py --workload flag_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The steps:

1. inputs.py writes the workload's complexes and pair files for the seed;
2. with --trace 0, setup_s is measured: the median wall time of fresh
   interpreters that import loopdecomp.cli;
3. worker.py, in a fresh interpreter, calls loopdecomp.cli.main on the items
   for about --seconds (whole passes over the item list), one call at a time;
4. outside the timed phase, every output is checked (reference.py, and for
   skeleta that are not flag, a relabelled rerun must agree);
5. the metrics listed in BENCHMARK.json are printed: end-to-end with
   --trace 0, per-layer (from a traced worker run) with --trace 1.  The
   end-to-end times are scaled to a reference machine speed, read from a
   fixed loop timed between the measured calls (speed.py); the summary
   also prints them as wall times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
summary with sample counts.  See loopbench/README.md for the workloads and
what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from random import Random

sys.dont_write_bytecode = True  # keep the benchmark directory clean
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 15


def load_spec() -> dict:
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing loopdecomp.cli."""
    cmd = [sys.executable, "-c", "import loopdecomp.cli"]
    env = worker_env()
    subprocess.run(cmd, env=env, check=True)  # writes bytecode, untimed
    samples = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which quantises the measurement
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_worker(items_path: str, result_path: str, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), items_path, result_path,
        "--seconds", str(seconds),
    ]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, env=worker_env(), check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path) as handle:
        return json.load(handle)


# -- correctness -------------------------------------------------------------


def _decomposition(doc: dict) -> dict:
    """The decompose-shaped part of a decompose or verify output."""
    if doc["command"] == "verify":
        return next(c for c in doc["checks"] if c["name"] == "decompose")
    return doc


def check_item(item: dict, doc: dict) -> list[str]:
    problems = []
    if doc["command"] == "verify":
        if doc["status"] != "PASS":
            problems.append(f"verify status {doc['status']}")
        oracle = next((c for c in doc["checks"] if c["name"] == "oracle_series"), None)
        if oracle is None or oracle["status"] != "PASS":
            problems.append("oracle_series did not pass")
    return problems + reference.check_product(_decomposition(doc), item)


def check_relabelled(item: dict, doc: dict, directory: str, seed: int) -> list[str]:
    """Rerun the item with its vertices permuted; the answer must not change."""
    from loopdecomp import cli

    m = item["m"]
    rng = Random(f"relabel:{seed}:{item['id']}")
    perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
    dims = [None] * m
    for v in range(1, m + 1):
        dims[perm[v] - 1] = item["dims"][v - 1]
    twin = dict(item, facets=inputs.relabel(item["facets"], perm), dims=dims)
    prefix = os.path.join(directory, f"relabelled{item['id']:04d}")
    argv = list(item["argv"])
    argv[argv.index("--input") + 1] = prefix + "-complex.json"
    with open(prefix + "-complex.json", "w") as handle:
        json.dump({"m": m, "facets": twin["facets"]}, handle)
    pairs_at = argv.index("--pairs") + 1
    if argv[pairs_at].startswith("custom:"):
        argv[pairs_at] = "custom:" + prefix + "-pairs.json"
        with open(prefix + "-pairs.json", "w") as handle:
            json.dump({"suspensions": dims}, handle)
    code = cli.main(argv + ["--output", prefix + "-out.json"])
    if code != 0:
        return [f"relabelled rerun exited {code}"]
    with open(prefix + "-out.json") as handle:
        other = _decomposition(json.load(handle))
    mine = _decomposition(doc)
    problems = reference.check_product(other, twin)
    if other["factors"] != mine["factors"] or other["expansion"] != mine["expansion"]:
        problems.append("relabelling changed the decomposition")
    return problems


def check_outputs(items, records, directory, seed) -> tuple[dict[int, list[str]], int]:
    """Problems per item id, and how many items were checked.

    An item whose calls all failed has no output to check."""
    digests: dict[int, set] = {}
    for item_id, _, status, sha in records:
        if status == "ok":
            digests.setdefault(item_id, set()).add(sha)
    sys.path.insert(0, os.path.abspath("src"))
    problems = {}
    checked = 0
    for item in items:
        seen = digests.get(item["id"])
        if not seen:
            continue
        checked += 1
        found = []
        if len(seen) > 1:
            found.append("outputs differ between calls")
        try:
            with open(item["output"]) as handle:
                doc = json.load(handle)
            found += check_item(item, doc)
            if not item["flag"]:
                found += check_relabelled(item, doc, directory, seed)
        except (KeyError, TypeError, ValueError, StopIteration) as exc:
            found.append(f"malformed output: {type(exc).__name__}: {exc}")
        if found:
            problems[item["id"]] = found
    return problems, checked


# -- metrics -------------------------------------------------------------------


def end_to_end(result: dict, failed_calls: int, setup: float, scale: float) -> dict:
    """The metrics, with every time multiplied by `scale`; a scale of 1
    gives wall times."""
    times = [seconds * scale for _, seconds, _, _ in result["records"]]
    return {
        "items_per_s": (len(times) - failed_calls) / (result["elapsed_s"] * scale),
        "item_s_p50": statistics.median(times),
        "item_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": setup * scale,
    }


def per_layer(result: dict, n_items: int) -> dict:
    """Per-pass values from the traced run (the item list is one pass)."""
    trace = result["trace"]
    passes = len(result["records"]) / n_items
    values = {
        "trace.untraced_s": trace["untraced_s"] / passes,
        "trace.traced_s": trace["traced_s"] / passes,
        "trace.overhead_ratio": trace["traced_s"] / trace["untraced_s"] - 1,
        "trace.counter_s": trace["counter_s"] / passes,
        "cli.output_bytes": trace["output_bytes"] / passes,
        "series.max_coeff_bits": trace["max_coeff_bits"],
    }
    for module in LAYERS:
        values[f"{module}.self_s"] = trace["module_self_s"].get(module, 0.0) / passes
    for name in trace["wrapped"]:
        values[f"{name}.s"] = trace["outer_s"].get(name, 0.0) / passes
        values[f"{name}.calls"] = trace["calls"].get(name, 0) / passes
    for name, count in trace["counts"].items():
        values[name] = count / passes
    return values


def report(metrics: dict, listed: list, lines: list) -> dict:
    out = {}
    for entry in listed:
        value = metrics[entry["name"]]
        if isinstance(value, float) and value.is_integer() and entry["unit"] != "s":
            value = int(value)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"  {entry['name']:40s} {value:>16.6g} {entry['unit']}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "loopdecomp", "cli.py")):
        print("error: run from a loopdecomp checkout (src/loopdecomp is missing)", file=sys.stderr)
        return 2
    spec = load_spec()

    work = os.path.join(os.path.relpath(HERE), ".work")
    directory = os.path.join(work, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        items = inputs.generate(args.workload, args.seed, directory)
        for item in items:
            item["output"] = os.path.join(directory, f"out{item['id']:04d}.json")
        items_path = os.path.join(directory, "items.json")
        with open(items_path, "w") as handle:
            json.dump(items, handle)

        setup = setup_seconds() if not args.trace else None
        result = run_worker(items_path, os.path.join(directory, "result.json"), args.seconds, args.trace)
        problems, checked = check_outputs(items, result["records"], directory, args.seed)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass  # another run is using it

    records = result["records"]
    failed = [r for r in records if r[2] != "ok" or r[0] in problems]
    lines = [
        f"loopdecomp benchmark: workload {args.workload}, seed {args.seed}, "
        f"{'traced' if args.trace else 'untraced'}",
        f"  {len(items)} items per pass, {result['passes']} passes, "
        f"{len(records)} calls in {result['elapsed_s']:.2f} s (the latency sample count)",
        f"  error_rate {len(failed) / max(len(records), 1):.4f} "
        f"({len(failed)} of {len(records)} calls failed)",
    ]
    for item_id, found in sorted(problems.items()):
        lines.append(f"  WRONG item {item_id}: {'; '.join(found)}")
    for status in sorted({r[2] for r in records} - {"ok"}):
        lines.append(f"  FAILED call: {status}")
    # a call over budget is a failure but not a wrong answer
    correct = checked > 0 and not problems and all(
        r[2] in ("ok", "over budget") for r in records
    )
    lines.append(f"  correct: {correct}")

    if args.trace:
        metrics = per_layer(result, len(items))
        trace = result["trace"]
        lines.append(
            f"  module self times sum to {sum(trace['module_self_s'].values()):.4f} s, "
            f"counters took {trace['counter_s']:.4f} s, "
            f"of {trace['traced_s']:.4f} s traced item time"
        )
        out = report(metrics, spec["per_layer"], lines)
    else:
        scale = speed.factor(result["speed_samples"])
        metrics = end_to_end(result, len(failed), setup, scale)
        wall = end_to_end(result, len(failed), setup, 1.0)
        beyond = [r[0] for r in records if r[1] > wall["item_s_p90"]]
        lines += [
            f"  {len(beyond)} calls by {len(set(beyond))} distinct items lie beyond item_s_p90",
            f"  speed scale {scale:.4f} from {len(result['speed_samples'])} loop samples; "
            "wall values: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
        ]
        out = report(metrics, spec["end_to_end"], lines)
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": out}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
