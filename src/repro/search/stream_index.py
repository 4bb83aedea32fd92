"""Generic search wrapper over any candidate-stream index.

QALSH and C2LSH (related-work LSH baselines) produce candidate-id
streams rather than bucket signatures; this wrapper attaches the shared
evaluation step (exact re-rank under a metric) so they plug into the
same harness as every other method.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from typing import Protocol

import numpy as np

from repro.search.cache import QueryResultCache
from repro.search.engine import (
    ExactEvaluator,
    QueryEngine,
    QueryPlan,
    validate_query,
)
from repro.search.results import SearchResult
from repro.search.stages import RerankSpec

__all__ = ["CandidateStreamSource", "StreamSearchIndex"]


class CandidateStreamSource(Protocol):
    """What :class:`StreamSearchIndex` needs from the wrapped index."""

    @property
    def num_items(self) -> int: ...

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]: ...


class StreamSearchIndex:
    """Exact re-ranking over a ``candidate_stream(query)`` provider.

    Parameters
    ----------
    stream_index:
        Object with ``candidate_stream(query) -> Iterator[np.ndarray]``
        and ``num_items`` (e.g. :class:`~repro.index.qalsh.QALSH` or
        :class:`~repro.index.c2lsh.C2LSH`).
    data:
        The ``(n, d)`` raw vectors for evaluation.
    cache:
        Optional :class:`~repro.search.cache.QueryResultCache`.  The
        wrapped index has no mutation hooks to intercept, so each
        ``search`` compares ``num_items`` against the last-seen value
        and bumps the engine generation when the stream grew — an
        append invalidates every cached result before it can be served.
    """

    def __init__(
        self,
        stream_index: CandidateStreamSource,
        data: np.ndarray,
        metric: str = "euclidean",
        cache: QueryResultCache | None = None,
    ) -> None:
        self._inner = stream_index
        self._data = np.asarray(data, dtype=np.float64)
        self._metric = metric
        self._dim = self._data.shape[1] if self._data.ndim == 2 else None
        self._engine = QueryEngine(
            ExactEvaluator(self._data, metric), name="stream", cache=cache
        )
        self._engine.rerankers["exact"] = self._engine.evaluator
        self._known_items = stream_index.num_items
        # A front door with several workers runs this index's search on
        # more than one thread; the check-and-bump in _sync_generation
        # must be atomic or two threads can tear _known_items and
        # double-bump the generation.
        self._sync_lock = threading.Lock()

    @property
    def num_items(self) -> int:
        return self._inner.num_items

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        yield from self._inner.candidate_stream(query)

    def _sync_generation(self) -> None:
        with self._sync_lock:
            current = self._inner.num_items
            if current != self._known_items:
                self._known_items = current
                self._engine.bump_generation()

    def search(
        self,
        query: np.ndarray,
        k: int,
        n_candidates: int,
        rerank: RerankSpec | None = None,
    ) -> SearchResult:
        query = validate_query(query, self._dim)
        self._sync_generation()
        plan = QueryPlan(
            k=k, n_candidates=n_candidates, metric=self._metric, rerank=rerank
        )
        return self._engine.execute(query, plan, self.candidate_stream(query))
