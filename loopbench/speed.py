"""The machine's speed, read from a fixed loop that does not use loopdecomp.

On a shared virtual machine the speed of plain Python code drifts by a
quarter and more over minutes, and a 30 s run can fall wholly in a slow
spell.  The benchmark therefore times this loop between the calls it
measures and scales every time by REFERENCE_S over the loop's median time
in the same run.  A reported time is the time the work would take on a
machine where the loop takes REFERENCE_S.

The loop does integer arithmetic, list indexing and dict lookups on a few
small objects.  It allocates no container, so it never starts the garbage
collector and does not depend on what the program under test left in
memory.  A change to the program cannot change the loop's time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# median time of one loop on the 2-vCPU machine the bounds were set on
REFERENCE_S = 0.0057
# measured work between two loop samples
SAMPLE_EVERY_S = 0.25

_TABLE = list(range(64))
_MAP = {i: 3 * i for i in range(64)}


def loop_seconds() -> float:
    start = perf_counter()
    s = 0
    for i in range(40000):
        s = (s + _TABLE[i & 63] * _MAP[(i * 7) & 63]) % 1000003
    return perf_counter() - start


class Meter:
    """Samples the loop once per SAMPLE_EVERY_S of measured work."""

    def __init__(self):
        self.samples = [loop_seconds()]
        self._pending = 0.0

    def after(self, seconds: float) -> None:
        """Count `seconds` of measured work; sample the loop when one is due."""
        self._pending += seconds
        if self._pending >= SAMPLE_EVERY_S:
            self._pending = 0.0
            self.samples.append(loop_seconds())


def factor(samples) -> float:
    """REFERENCE_S over the median loop time: below 1 on a slower machine."""
    return REFERENCE_S / statistics.median(samples)
