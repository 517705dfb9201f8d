"""Host-speed reference: scale measured times to a steady host.

The benchmark runs on a shared host whose speed drifts by up to a factor
of two, in stretches that last from seconds to minutes.  Minima and
medians within one run cannot remove a drift that lasts longer than the
run.  So a fixed reference routine runs before and after every timed
segment, and the segment's time is multiplied by REFERENCE_S over the
mean of the two routine times.  The result reads as the time the segment
would take on the same host at full speed.

The routine is pure Python and touches a large list of box tuples in a
scattered order, as the library's traversal does; so a slow-down of the
host slows both alike.  It never calls the library, so a change to the
library cannot move it.  Its inputs are fixed and do not depend on the
seed.
"""

from __future__ import annotations

import random
import time

# The routine's time on an unloaded vCPU of the reference host (Intel Xeon,
# 2.0 GHz nominal, Python 3.11).
REFERENCE_S = 0.0160
BOXES = 100_000
STEPS = 40_000


class HostClock:
    """Times segments between runs of the reference routine."""

    def __init__(self):
        rng = random.Random(0)
        self._boxes = [tuple(rng.random() for _ in range(6)) for _ in range(BOXES)]
        self._order = [rng.randrange(BOXES) for _ in range(STEPS)]
        self.scales: list[float] = []
        self._last: float | None = None

    def time(self, fn, *args):
        """Run fn(*args); returns (its result, seconds, seconds scaled to full speed).

        The routine's run after one segment also serves as the run before
        the next.
        """
        before = self._last if self._last is not None else self.scale()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self._last = self.scale()
        return out, dt, dt * (before + self._last) / 2

    def _routine(self) -> int:
        hits = 0
        boxes = self._boxes
        for j in self._order:
            b = boxes[j]
            if b[0] <= 0.5 <= b[3] and b[1] <= 0.5 <= b[4] and b[2] <= 0.5 <= b[5]:
                hits += 1
        return hits

    def scale(self) -> float:
        """Run the routine once; REFERENCE_S over its time."""
        t0 = time.perf_counter()
        self._routine()
        s = REFERENCE_S / (time.perf_counter() - t0)
        self.scales.append(s)
        return s
