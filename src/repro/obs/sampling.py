"""Per-query trace sampling: keep the last K interesting query records.

Aggregates (histograms) answer "how slow is the p99"; they cannot
answer "*why* was that query slow".  The sampler keeps the raw material
for the second question without the cost of tracing everything: a
seeded deterministic every-``n``-th selector and a fixed-capacity ring
buffer of :class:`SampledTrace` records — each one a query's span tree,
its :class:`~repro.search.engine.ExecutionContext` stats, the probed
bucket sizes, and (when an offline harness attaches one) a full
:class:`~repro.eval.trace.ProbeTrace` dict, under the same schema
``ProbeTrace.to_dict`` produces, so online samples and offline traces
are interchangeable to tooling.

The selector is deterministic: with ``every_n = N`` and a fixed seed,
exactly the queries whose sequence number is congruent to a
seed-derived phase (mod N) are sampled — replaying a workload replays
the samples, which is what makes "query 4161 was slow yesterday"
reproducible.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass

__all__ = ["SampledTrace", "TraceSampler"]

#: Schema tag shared by sampled traces; the ``probe_trace`` field, when
#: present, follows ``repro.eval.trace.ProbeTrace.to_dict``'s schema.
_SCHEMA = "repro.sampled_trace/v1"


@dataclass(frozen=True)
class SampledTrace:
    """One captured query: span tree + stats + optional probe detail."""

    seq: int
    spans: dict | None
    stats: dict | None
    bucket_sizes: list[int] | None = None
    probe_trace: dict | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready record; ``probe_trace`` uses the ProbeTrace schema."""
        return {
            "schema": _SCHEMA,
            "seq": self.seq,
            "spans": self.spans,
            "stats": self.stats,
            "bucket_sizes": self.bucket_sizes,
            "probe_trace": self.probe_trace,
        }


class TraceSampler:
    """Deterministic every-``n``-th query sampler with a ring buffer.

    Parameters
    ----------
    every_n:
        Sampling period: one query in every ``every_n`` is captured.
    capacity:
        Ring-buffer size — only the most recent ``capacity`` samples are
        retained (post-hoc debugging wants *recent* slow queries).
    seed:
        Seeds the phase (which residue class mod ``every_n`` is
        sampled); the same seed always samples the same queries.
    """

    def __init__(
        self, every_n: int = 64, capacity: int = 32, seed: int = 0
    ) -> None:
        if every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {every_n}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.every_n = every_n
        self.capacity = capacity
        self._phase = random.Random(seed).randrange(every_n)
        self._seen = 0
        self._ring: deque[SampledTrace] = deque(maxlen=capacity)
        # Samplers are shared across AsyncFrontDoor(max_workers>1)
        # worker threads; counter and ring mutations must be atomic or
        # concurrent queries lose counts and tear the ring.
        self._lock = threading.Lock()

    @property
    def seen(self) -> int:
        """Queries that have passed through :meth:`should_sample`."""
        return self._seen

    def should_sample(self) -> bool:
        """Advance the query counter; True when this query is selected."""
        with self._lock:
            decision = self._seen % self.every_n == self._phase
            self._seen += 1
        return decision

    def record(
        self,
        spans: dict | None,
        stats: dict | None,
        bucket_sizes: list[int] | None = None,
        probe_trace: dict | None = None,
    ) -> SampledTrace:
        """Store a sample for the most recent selected query."""
        with self._lock:
            trace = SampledTrace(
                seq=self._seen - 1,
                spans=spans,
                stats=stats,
                bucket_sizes=bucket_sizes,
                probe_trace=probe_trace,
            )
            self._ring.append(trace)
        return trace

    def traces(self) -> list[SampledTrace]:
        """Retained samples, oldest first."""
        with self._lock:
            return list(self._ring)

    def last(self) -> SampledTrace | None:
        """The most recent sample, if any."""
        with self._lock:
            return self._ring[-1] if self._ring else None

    def clear(self) -> None:
        """Drop retained samples and restart the query counter."""
        with self._lock:
            self._ring.clear()
            self._seen = 0
