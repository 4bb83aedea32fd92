"""Query-result caching for the serving layer.

Serving workloads are heavily skewed: a small set of popular queries
accounts for most of the traffic ("A Revisit of Hashing Algorithms for
ANN Search" identifies exploiting this redundancy as the dominant
practical lever once per-query probing is fixed).  This module is the
exploit: an LRU + TTL cache of complete :class:`SearchResult` objects,
keyed on

* a **quantized query fingerprint** — the float64 query rounded to
  ``decimals`` places and hashed, so bit-for-bit re-issues (and near
  re-issues below the rounding granularity) hit;
* the plan's **full serialized stage list**
  (``QueryPlan.stage_list()``) — every stage the plan executes with
  every parameter that shapes its output, so two plans differing in
  *any* stage (a rerank mode, a fusion weight) can never collide —
  plus the fusion partner's identity tuple when one participates;
* the **index identity and generation** — a process-unique token per
  engine plus a monotonically increasing generation number that mutable
  indexes bump on every ``add``/``remove``/append, so a stale hit is
  impossible by construction: entries from an older generation can
  never be looked up again and age out of the LRU.

Time-budgeted plans are never cached (:meth:`QueryResultCache.cacheable`)
— their results depend on wall-clock load, not only on the query.

Hits, misses and evictions are exported through :mod:`repro.obs`
(``repro_cache_hits_total`` / ``..._misses_total`` /
``..._evictions_total``), along with an occupancy gauge and a
hit-latency histogram, when a telemetry session is active.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import QueryPlan
    from repro.search.results import SearchResult

__all__ = ["CacheKey", "QueryResultCache", "cache_token", "query_fingerprint"]

#: Cache-key tuple: ``(engine token, generation, serialized stage
#: list, fusion-partner identity, query fingerprint)``.
CacheKey = tuple[
    str,
    int,
    "tuple[tuple[object, ...], ...]",
    "tuple[object, ...]",
    bytes,
]

_TOKENS = itertools.count()


def cache_token(prefix: str) -> str:
    """Process-unique identity token for one cache-keyed entity.

    Two engines built over different data must never share cache
    entries even if they share a ``name``; the monotonically increasing
    suffix guarantees that.
    """
    return f"{prefix}#{next(_TOKENS)}"


def query_fingerprint(query: np.ndarray, decimals: int = 12) -> bytes:
    """Stable 16-byte digest of a query, quantized to ``decimals`` places.

    Rounding collapses sub-precision noise (e.g. a query re-serialised
    through JSON) onto one fingerprint; adding ``0.0`` normalises
    ``-0.0`` to ``+0.0`` so the two zero encodings cannot split an
    entry.  The shape participates so a ``(d,)`` query and a ``(1, d)``
    array never collide.
    """
    arr = np.round(
        np.ascontiguousarray(query, dtype=np.float64), decimals
    )
    arr += 0.0
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.digest()


class QueryResultCache:
    """LRU + TTL cache of :class:`SearchResult` objects.

    Thread-safe: ``AsyncFrontDoor(max_workers>1)`` worker threads and
    the caller's thread may look up and store concurrently.  The cached
    object itself is returned on a hit — ids and distances are the
    bit-identical arrays the uncached execution produced.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted beyond it.
    ttl_seconds:
        Optional time-to-live; an entry older than this at lookup time
        counts as an eviction and a miss.  ``None`` disables expiry.
    name:
        Label for this cache's metric series
        (``repro_cache_hits_total{cache="hash"}``, …).
    decimals:
        Quantization granularity of :func:`query_fingerprint`.
    clock:
        Monotonic time source for TTL bookkeeping; defaults to
        :func:`repro.obs.now`.  Injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        name: str = "query",
        decimals: int = 12,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive, got {ttl_seconds}"
            )
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.name = name
        self.decimals = decimals
        self._clock: Callable[[], float] = (
            clock if clock is not None else obs.now
        )
        self._entries: OrderedDict[CacheKey, tuple[float, SearchResult]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def cacheable(plan: QueryPlan) -> bool:
        """Whether a plan's results are a pure function of its inputs.

        Time-budgeted plans stop retrieval on wall-clock load, so two
        runs of the same query may legitimately differ; caching them
        would pin one arbitrary outcome.
        """
        return plan.time_budget is None

    def key_for(
        self,
        token: str,
        generation: int,
        plan: QueryPlan,
        query: np.ndarray,
        partner_identity: tuple[object, ...] = (),
    ) -> CacheKey:
        """The full cache key for one ``(engine, generation, plan, query)``.

        The plan contributes its complete serialized stage list, so
        every stage parameter — including rerank and fusion configs —
        participates in the key.  ``partner_identity`` folds in the
        fusion partner's engine token and generation for fusion plans;
        a partner mutation then makes prior fused entries unreachable.
        """
        return (
            token,
            generation,
            plan.stage_list(),
            tuple(partner_identity),
            query_fingerprint(query, self.decimals),
        )

    def lookup(self, key: CacheKey) -> SearchResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        start = obs.now()
        expired = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.ttl_seconds is not None:
                if self._clock() - entry[0] >= self.ttl_seconds:
                    del self._entries[key]
                    self._evictions += 1
                    expired = True
                    entry = None
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            occupancy = len(self._entries)
        if expired:
            obs.observe_cache_evictions(self.name, 1)
            obs.observe_cache_occupancy(self.name, occupancy)
        if entry is None:
            obs.observe_cache(self.name, hit=False)
            return None
        obs.observe_cache(self.name, hit=True, seconds=obs.now() - start)
        return entry[1]

    def store(self, key: CacheKey, result: SearchResult) -> None:
        """Insert ``result`` under ``key``, evicting LRU entries if full."""
        evicted = 0
        with self._lock:
            self._entries[key] = (self._clock(), result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
            occupancy = len(self._entries)
        if evicted:
            obs.observe_cache_evictions(self.name, evicted)
        obs.observe_cache_occupancy(self.name, occupancy)

    def invalidate(self) -> int:
        """Drop every entry; returns how many were evicted."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._evictions += dropped
        if dropped:
            obs.observe_cache_evictions(self.name, dropped)
        obs.observe_cache_occupancy(self.name, 0)
        return dropped

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime hit/miss/eviction counts and current occupancy."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "occupancy": len(self._entries),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"QueryResultCache(name={self.name!r}, "
            f"capacity={self.capacity}, occupancy={stats['occupancy']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )
