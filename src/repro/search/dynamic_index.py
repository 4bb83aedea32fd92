"""Dynamic ANN index: ingest and expire items without rebuilding.

Wraps a fitted hasher and a :class:`~repro.index.dynamic.DynamicHashTable`
into the same search interface as :class:`~repro.search.searcher.HashIndex`.
The hash functions stay fixed (trained once on a representative sample,
as L2H deployments do); items stream in and out of the bucket table.
Search delegates to the shared query-execution engine, with the exact
evaluator wired to the index's live (growable) vector storage: each
read ranks the table's published bucket layout and gathers a prefix,
taking no lock.  Writes are batched and serialised by one
write lock; ``add`` stores vectors before the table publishes their
ids, so a read never sees an id without its vector.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.core.gqr import GQR
from repro.core.prober import BucketProber
from repro.hashing.base import BinaryHasher
from repro.index.distance import METRICS
from repro.index.dynamic import DynamicHashTable
from repro.search.cache import QueryResultCache
from repro.search.engine import (
    ExactEvaluator,
    QueryEngine,
    QueryPlan,
    validate_items,
    validate_query,
)
from repro.search.results import SearchResult

__all__ = ["DynamicHashIndex"]


class DynamicHashIndex:
    """Mutable L2H index over a fixed, pre-fitted hasher.

    Parameters
    ----------
    hasher:
        A *fitted* :class:`BinaryHasher` (train it on a representative
        sample first; retraining invalidates stored codes, so an
        unfitted hasher is rejected).
    dim:
        Dimensionality of the vectors to be indexed.
    prober, metric:
        As in :class:`~repro.search.searcher.HashIndex`.
    cache:
        Optional :class:`~repro.search.cache.QueryResultCache`.  Every
        ``add``/``remove`` bumps the engine's generation number, so a
        mutation can never serve a stale cached result.
    """

    def __init__(
        self,
        hasher: BinaryHasher,
        dim: int,
        prober: BucketProber | None = None,
        metric: str = "euclidean",
        cache: QueryResultCache | None = None,
    ) -> None:
        if not hasher.is_fitted:
            raise ValueError(
                "DynamicHashIndex needs a pre-fitted hasher; fit it on a "
                "representative sample first"
            )
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; options: {sorted(METRICS)}"
            )
        if dim < 1:
            raise ValueError("dim must be positive")
        self._hasher = hasher
        self._dim = dim
        self._prober = prober if prober is not None else GQR()
        self._metric = metric
        self._table = DynamicHashTable(hasher.code_length)
        # Item storage: amortised-doubling array + free-id recycling.
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._size = 0
        self._free_ids: list[int] = []
        # Serialises writers (storage, id bookkeeping, the table).
        self._write_lock = threading.Lock()
        # The storage array is reallocated as it grows, so the evaluator
        # is wired to a live view rather than one (stale) array object.
        self._engine = QueryEngine(
            ExactEvaluator(lambda: self._vectors, metric),
            name="dynamic",
            cache=cache,
        )

    @property
    def num_items(self) -> int:
        return self._table.num_items

    @property
    def code_length(self) -> int:
        return self._hasher.code_length

    @property
    def table(self) -> DynamicHashTable:
        return self._table

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def add(self, items: np.ndarray) -> np.ndarray:
        """Insert one vector or a batch; returns the assigned item ids.

        Freed ids are reused first, most recently freed first.  Rows
        with a NaN or infinite entry are rejected before anything
        changes.
        """
        items = validate_items(np.atleast_2d(items), self._dim)
        codes = self._hasher.encode(items)
        with self._write_lock:
            n_recycled = min(len(self._free_ids), len(items))
            recycled = self._free_ids[len(self._free_ids) - n_recycled:]
            end = self._size + len(items) - n_recycled
            ids = np.array(
                [*reversed(recycled), *range(self._size, end)], dtype=np.int64
            )
            if end > len(self._vectors):
                # Powers of two from 16, as if grown one item at a time.
                capacity = max(len(self._vectors), 16)
                while capacity < end:
                    capacity *= 2
                grown = np.empty((capacity, self._dim), dtype=np.float64)
                grown[: self._size] = self._vectors[: self._size]
                self._vectors = grown
            # Vectors first: a read may see the ids once the table has
            # them, and evaluates them against this storage.
            self._vectors[ids] = items
            self._table.add_batch(ids, codes)
            del self._free_ids[len(self._free_ids) - n_recycled:]
            self._size = end
        self._engine.bump_generation()
        return ids

    def remove(self, item_ids: np.ndarray | int) -> None:
        """Delete items by id; their ids may be recycled by later adds.

        All or nothing: an absent or repeated id raises ``KeyError``
        and nothing is removed.
        """
        ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        with self._write_lock:
            self._table.remove_batch(ids)
            self._free_ids.extend(ids.tolist())
        self._engine.bump_generation()

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        """Non-empty buckets in the prober's order, fetched one by one."""
        return self._bucket_stream(validate_query(query, self._dim))

    def _bucket_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        # A generator: the query is hashed when the stream is first read.
        signature, costs = self._hasher.probe_info(query)
        for bucket in self._prober.probe(self._table, signature, costs):
            ids = self._table.get(bucket)
            if len(ids):
                yield ids

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult:
        """Approximate kNN over the current live items.

        Ranks the published layout's buckets — from a certified prefix
        of GQR's generation tree, else from one score row — and gathers
        a prefix of that order
        (:meth:`~repro.search.engine.QueryEngine.execute_probed`); a
        prober that cannot score buckets streams them instead.  The
        result cache is consulted once, before any of that.
        """
        query = validate_query(query, self._dim)
        plan = QueryPlan(k=k, n_candidates=n_candidates, metric=self._metric)
        [result] = self._engine.run_cached(
            query[np.newaxis], plan, lambda block: self._execute(block, plan)
        )
        return result

    def _execute(
        self, queries: np.ndarray, plan: QueryPlan
    ) -> list[SearchResult]:
        """:meth:`search`'s uncached body over its one validated row.

        Hashing and bucket ranking run inside the query's root span, so
        its ``total_seconds`` covers them.
        """
        return self._engine.execute_probed(
            queries,
            plan,
            self._prober,
            self._table.layout(),
            lambda: [self._hasher.probe_info(queries[0])],
            lambda: [self._bucket_stream(queries[0])],
            single=True,
        )

