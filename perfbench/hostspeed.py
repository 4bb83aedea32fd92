"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a shared host whose speed moves by up to a factor
of two for seconds or minutes at a time, whatever the program does:
chunks of ten Theorem 2 queries took 57 ms in one spell and up to 129 ms
in the next, within one process.  Timing every window of operations and
taking medians does not help when a whole run falls into a slow spell.

So the workload process runs this kernel between its operations -- it
calls nothing of the program -- and a closed-loop operation's time is
scaled by how much slower than :data:`NOMINAL_S` the kernel ran just
before and just after it.  A slower host slows both; a slower program
slows only the operation, and the scaled figure moves with it.  The
kernel mixes the kinds of work the query engine does: a pure-Python
heap loop, random row gathers from the corpus with vectorised
distances, and a small BLAS product.
"""

from __future__ import annotations

import heapq
import time
from array import array

import numpy as np

# The kernel's time on a calm host (2-vCPU x86-64, Python 3.11), so a
# scaled time reads as seconds on that host at full speed.
NOMINAL_S = 0.0013
ROUNDS = 3
GATHER = 1000  # corpus rows gathered per round
ROW_SETS = 64  # gathers cycle through this many row sets, about 16 MB
HEAP_STEPS = 300


class HostSpeed:
    """Runs the reference kernel on demand and keeps every time it took."""

    def __init__(self, corpus: np.ndarray) -> None:
        rng = np.random.default_rng(20_181)
        self._corpus = corpus
        self._rows = rng.integers(0, len(corpus), size=(ROW_SETS, GATHER))
        self._points = corpus[rng.integers(0, len(corpus), size=ROW_SETS)]
        self._round = 0
        self._weights = rng.standard_normal((corpus.shape[1], 16))
        self._costs = rng.random(HEAP_STEPS).tolist()
        self.seconds = array("d")
        self._kernel()  # warm

    def sample(self, repeat: int = 1) -> int:
        """Run the kernel ``repeat`` times and keep the median time; returns
        the index of that time in :attr:`seconds`."""
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.seconds.append(float(np.median(times)))
        return len(self.seconds) - 1

    def _kernel(self) -> None:
        for _ in range(ROUNDS):
            r = self._round = (self._round + 1) % ROW_SETS
            rows = self._corpus[self._rows[r]]
            dists = ((rows - self._points[r]) ** 2).sum(axis=1)
            order = np.argpartition(dists, 100)[:100]
            projected = rows[order] @ self._weights
            heap = [(0.0, 0)]
            seen = set()
            for step, cost in enumerate(self._costs):
                total, node = heapq.heappop(heap)
                seen.add(node)
                heapq.heappush(heap, (total + cost, step))
                heapq.heappush(heap, (total + cost * 2.0, step + HEAP_STEPS))
            projected.sum()

    def array(self) -> np.ndarray:
        return np.frombuffer(self.seconds, dtype=np.float64).copy()


def scaled(seconds: np.ndarray, before: np.ndarray, kernel_s: np.ndarray) -> np.ndarray:
    """Operation times at nominal host speed.

    ``before[i]`` is the index of the kernel run just before operation
    ``i``; the next kernel run follows it.  The host's slowdown over the
    operation is the mean of those two kernel times over ``NOMINAL_S``.
    """
    slowdown = (kernel_s[before] + kernel_s[before + 1]) / (2 * NOMINAL_S)
    return seconds / slowdown
