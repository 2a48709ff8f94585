"""Per-layer spans for loopdecomp, installed from outside the package.

The layers are loopdecomp's modules.  `Tracer.install` replaces every
public function of each module, the public methods of the classes each
module defines, and the arithmetic operators of GradedSeries, with a
wrapper that records a span.  Modules import each other's functions by
name (`from .complexes import full_subcomplex`), so the wrapper is bound
under every name, in every module, that refers to the original.
`uninstall` puts the originals back.

Spans are aggregated as they close rather than stored: per function the
call count, the time of outermost calls (recursive re-entries are not
counted twice) and the self time, which is a span's duration minus the
time covered by its child spans.  Self times of all spans add up to the
duration of the root spans, so the per-module sums partition the traced
item time.  Counters are computed from call arguments and results after
the span has closed.  Their time is kept apart as `counter_s` and counted
as covered in the caller's span, so the module self times are the
program's own time and, with `counter_s`, partition the traced item time.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "engine", "complexes", "homotopy", "series", "oracle", "intlinalg", "randomgen")
COUNTERS = (
    "complexes.minimal_non_faces.subsets",
    "oracle.hochster_table.subsets",
    "series.convolve_trunc.mults",
    "engine.trace_nodes",
    "engine.trace_nodes_unique",
)
SERIES_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__eq__",
)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


# counters run after a span closes, with the call's arguments and result


def _subsets(key, skipped):
    def count(tracer, args, result):
        tracer.counts[key] += 2 ** args[0].m - skipped

    return count


def _convolve(tracer, args, result):
    a, b, degree = args
    tracer.counts["series.convolve_trunc.mults"] += sum(
        min(len(b), degree - i + 1) for i, x in enumerate(a[: degree + 1]) if x
    )
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, _bits(result))


def _expand(tracer, args, result):
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, _bits(result))


def _trace_nodes(tracer, args, result):
    if tracer._depth["engine.trace_to_doc"]:
        return  # a recursive call inside the outermost one
    total, unique, stack = 0, set(), [args[0]]
    while stack:
        node = stack.pop()
        total += 1
        unique.add(id(node))
        stack.extend(node.children)
    tracer.counts["engine.trace_nodes"] += total
    tracer.counts["engine.trace_nodes_unique"] += len(unique)


AFTER = {
    "complexes.minimal_non_faces": _subsets("complexes.minimal_non_faces.subsets", 0),
    # the oracle scans the nonempty subsets
    "oracle.hochster_table": _subsets("oracle.hochster_table.subsets", 1),
    "series.convolve_trunc": _convolve,
    "series.GradedSeries.expand": _expand,
    "engine.trace_to_doc": _trace_nodes,
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.outer_s = Counter()
        self.self_s = Counter()
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.max_coeff_bits = 0
        self.counter_s = 0.0
        self.wrapped = []
        self._stack = []  # child time covered so far, one entry per open span
        self._depth = Counter()
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, depth = self._stack, self._depth
        calls, outer_s, self_s = self.calls, self.outer_s, self.self_s
        after = AFTER.get(name)

        def span(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += duration - covered[0]
                if not depth[name]:
                    outer_s[name] += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                start = perf_counter()
                after(self, args, result)
                duration = perf_counter() - start
                self.counter_s += duration
                if stack:
                    stack[-1][0] += duration
            return result

        span.__wrapped__ = fn
        return span

    # -- installation ----------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute) for everything the tracer wraps."""
        for layer in LAYERS:
            module = sys.modules.get("loopdecomp." + layer)
            if module is None:
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield f"{layer}.{attr}", module, attr
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, fn in vars(value).items():
                        wanted = not method.startswith("_") or (
                            attr == "GradedSeries" and method in SERIES_OPERATORS
                        )
                        if wanted and inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{method}", value, method

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.wrapped.clear()
        wrappers = {}
        for name, owner, attr in list(self._targets()):
            original = vars(owner)[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self._wrap(name, original))
                self.wrapped.append(name)
            self._patch(owner, attr, wrappers[id(original)][1])
        # rebind the names other modules imported
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("loopdecomp"):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def module_self_s(self) -> Counter:
        out = Counter()
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
