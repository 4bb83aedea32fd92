"""High-level ANN search indexes.

The querying pipeline of Section 2.2 — *retrieval* picks buckets and
gathers candidate ids, *evaluation* re-ranks candidates by exact
distance — lives once in :mod:`repro.search.engine`; the classes here
are thin adapters that build :class:`~repro.search.engine.QueryPlan`
instances and delegate:

* :class:`HashIndex` — L2H hash table(s) + a pluggable
  :class:`~repro.core.prober.BucketProber` (HR, GHR, QR, GQR, …), with
  round-robin multi-table probing, Theorem 2 early stop, exact range
  search, and genuinely batched queries.
* :class:`MIHSearchIndex` — Multi-Index Hashing over the same codes.
* :class:`IMISearchIndex` — OPQ/PQ + inverted multi-index.

All expose ``candidate_stream(query)`` (arrays of item ids, best bucket
first) and ``search(query, k, n_candidates)``.  Evaluation supports the
metrics in :mod:`repro.index.distance` (the paper's Section 4 notes the
angular adaptation); the Theorem 2 bound is Euclidean-only.  Every
result carries the engine's :class:`~repro.search.engine.ExecutionContext`
under ``extras["stats"]``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator

import numpy as np

from repro import obs
from repro.core.gqr import GQR
from repro.core.prober import BucketProber
from repro.core.quantization_distance import theorem2_mu
from repro.hashing.base import BinaryHasher, ProjectionHasher
from repro.index.distance import METRICS
from repro.index.hash_table import HashTable
from repro.index.mih import MultiIndexHashing
from repro.quantization.imi import InvertedMultiIndex
from repro.quantization.opq import OptimizedProductQuantizer
from repro.quantization.pq import ProductQuantizer
from repro.search.cache import QueryResultCache
from repro.search.engine import (
    ExactEvaluator,
    ExecutionContext,
    Gathered,
    QueryEngine,
    QueryPlan,
    _ranked_prefixes,
    _record_retrieval,
    round_robin_stream,
    top_k,
    validate_items,
    validate_query,
    validate_query_batch,
)
from repro.search.results import SearchResult

__all__ = [
    "HashIndex",
    "MIHSearchIndex",
    "IMISearchIndex",
]


# Candidates scored by the Theorem 2 scan's first distance call.  Each
# later chunk doubles it, unless the bound of the bucket reaching the
# cap is already below a finite limit: then the rest up to the cap is
# one chunk.
_FIRST_CHUNK = 256


def _first_stop(
    bounds: np.ndarray,
    starts: np.ndarray,
    kept_dists: np.ndarray,
    chunk_dists: np.ndarray,
    k: int,
) -> int:
    """Index of a chunk's first bucket Theorem 2 stops at, else its length.

    Bucket ``j`` stops the search when ``bounds[j]`` (its ``µ·qd``)
    exceeds the k-th smallest distance over ``kept_dists`` (the best
    ``k`` before the chunk) and ``chunk_dists[:starts[j]]`` (the
    chunk's candidates before ``j``).  Bucket 0 never stops: it passed
    the bound against ``kept_dists`` when it was fetched.  The bounds
    arrive sorted and the k-th distance never rises with ``j``, so the
    predicate flips at most once and bisection finds the flip.
    """

    def kth(j: int) -> float:
        pool = np.concatenate((kept_dists, chunk_dists[: starts[j]]))
        if len(pool) < k:
            return np.inf
        return float(np.partition(pool, k - 1)[k - 1])

    n = len(bounds)
    if bounds[-1] <= kth(n):
        return n
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if bounds[mid] > kth(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class HashIndex:
    """L2H index: one or more hash tables plus a querying method.

    Parameters
    ----------
    hasher:
        A fitted or unfitted :class:`BinaryHasher`; unfitted hashers are
        fit on ``data``.  For multiple tables pass a *list* of hashers
        (e.g. ITQ instances with different seeds), one per table.
    data:
        ``(n, d)`` indexed items; retained for exact evaluation.
    prober:
        The querying method; defaults to :class:`~repro.core.gqr.GQR`.
    metric:
        Evaluation metric — a key of :data:`repro.index.distance.METRICS`.
    cache:
        Optional :class:`~repro.search.cache.QueryResultCache`; repeated
        queries under the same plan return the cached result.
    """

    def __init__(
        self,
        hasher: BinaryHasher | list[BinaryHasher],
        data: np.ndarray,
        prober: BucketProber | None = None,
        metric: str = "euclidean",
        cache: QueryResultCache | None = None,
    ) -> None:
        self._data = validate_items(data)
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; options: {sorted(METRICS)}"
            )
        hashers = list(hasher) if isinstance(hasher, (list, tuple)) else [hasher]
        if not hashers:
            raise ValueError("need at least one hasher")
        lengths = {h.code_length for h in hashers}
        if len(lengths) != 1:
            raise ValueError("all hashers must share one code length")
        for h in hashers:
            if not h.is_fitted:
                h.fit(self._data)
        self._hashers = hashers
        self._tables = [HashTable(h.encode(self._data)) for h in hashers]
        self._prober = prober if prober is not None else GQR()
        self._metric = metric
        self._dim = self._data.shape[1]
        # The screen in the first table's bucket order: a candidate
        # bucket is one contiguous run of screen rows.
        self._exact = ExactEvaluator(
            self._data, metric, order=self._tables[0].sorted_ids
        )
        self._engine = QueryEngine(self._exact, name="hash", cache=cache)
        # Theorem 2's µ, computed on the first early-stop call; front
        # door worker threads may race to compute it.
        self._mu: float | None = None
        self._mu_lock = threading.Lock()

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def num_items(self) -> int:
        return len(self._data)

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    @property
    def code_length(self) -> int:
        return self._hashers[0].code_length

    @property
    def metric(self) -> str:
        return self._metric

    @property
    def cache(self) -> QueryResultCache | None:
        """The engine's result cache, if one is attached."""
        return self._engine.cache

    @property
    def tables(self) -> list[HashTable]:
        return list(self._tables)

    @property
    def prober(self) -> BucketProber:
        return self._prober

    @prober.setter
    def prober(self, prober: BucketProber) -> None:
        self._prober = prober

    @property
    def engine(self) -> QueryEngine:
        """The query-execution engine this index delegates to."""
        return self._engine

    def memory_footprint(self) -> dict[str, int]:
        """Approximate bytes held by each component.

        ``tables`` is the part that scales with the number of hash
        tables — the cost axis of the paper's Figure 12 comparison
        (single-table GQR vs multi-table GHR).  ``screen`` is the
        evaluator's float32 copy of ``data``, stored in the first
        table's bucket order, plus its int32 id → row map and each
        row's float64 squared norm, ``4·(n·d + n) + 8·n`` bytes (0 when
        it keeps none: see :class:`~repro.search.engine.ExactEvaluator`).
        ``ranking`` is what the tables cache for ranked reads — dense
        layout, bucket bits and complement, slot table
        (:meth:`~repro.index.hash_table.HashTable.ranking_bytes`); 0
        before the first.
        """
        return {
            "data": int(self._data.nbytes),
            "screen": self._exact.screen_bytes,
            "tables": int(sum(t.memory_bytes() for t in self._tables)),
            "ranking": int(sum(t.ranking_bytes() for t in self._tables)),
            "num_tables": len(self._tables),
        }

    def plan(
        self,
        k: int,
        n_candidates: int | None = None,
        max_buckets: int | None = None,
        time_budget: float | None = None,
    ) -> QueryPlan:
        """Build the :class:`QueryPlan` a ``search`` call would execute."""
        return QueryPlan(
            k=k,
            n_candidates=n_candidates,
            max_buckets=max_buckets,
            time_budget=time_budget,
            metric=self._metric,
        )

    # -- retrieval ----------------------------------------------------

    def _probe_infos(self, query: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Per-table ``(signature, flip_costs)`` for one query."""
        return [hasher.probe_info(query) for hasher in self._hashers]

    def candidate_stream(
        self,
        query: np.ndarray,
        probe_infos: list[tuple[int, np.ndarray]] | None = None,
    ) -> Iterator[np.ndarray]:
        """Arrays of item ids, one per probed non-empty bucket.

        With multiple tables, probing round-robins across the tables'
        probe orders (the paper's multi-hash-table strategy, Section
        6.3.5) and suppresses duplicates across tables.  ``probe_infos``
        lets batched callers supply precomputed signatures/costs so
        hashing happens once per table for a whole batch.
        """
        query = validate_query(query, self._dim)
        if probe_infos is None:
            probe_infos = self._probe_infos(query)
        if len(self._tables) == 1:
            signature, costs = probe_infos[0]
            table = self._tables[0]
            for bucket in self._prober.probe(table, signature, costs):
                ids = table.get(bucket)
                if len(ids):
                    yield ids
            return
        streams = [
            self._prober.probe(table, signature, costs)
            for table, (signature, costs) in zip(self._tables, probe_infos)
        ]
        yield from round_robin_stream(streams, self._tables, self.num_items)

    # -- evaluation ---------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int,
        n_candidates: int | None = None,
        max_buckets: int | None = None,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Approximate kNN with the paper's pluggable stopping criteria.

        Retrieval stops at whichever bound is hit first (Algorithm 1's
        remark that "other stopping criteria can also be used"):

        * ``n_candidates`` — collect at least this many candidate ids;
        * ``max_buckets`` — probe at most this many non-empty buckets;
        * ``time_budget`` — stop retrieving after this many seconds.

        At least one criterion must be given.  Collected candidates are
        ranked by exact distance and the top-``k`` returned.
        """
        plan = self.plan(k, n_candidates, max_buckets, time_budget)
        query = validate_query(query, self._dim)
        return self._engine.execute(query, plan, self.candidate_stream(query))

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        n_candidates: int,
    ) -> list[SearchResult]:
        """``search`` over a query batch, genuinely batched.

        With a result cache attached, every row is looked up first
        (:meth:`QueryEngine.run_cached`): hits cost one fingerprint and
        one dict lookup, equal rows that miss are computed once, and
        everything below runs on the distinct miss rows only.  Those
        rows issue exactly one projection/encode call per table
        (:meth:`BinaryHasher.probe_info_batch`).  For probers with
        vectorised bucket scoring (HR, QR, GQR) on a single table, the
        per-query probe orders are ranked 64 rows at a time: QR and GQR
        rows from a certified prefix of the generation tree, and the
        rows it does not certify (and HR's) from a shared score matrix
        over every bucket; the candidate gather is one vectorised pass.
        Exact evaluation of a multi-row batch is
        one ragged kernel over every query's own candidate segment (no
        union, no per-query distance call), screened in float32 so that
        only candidates that could rank are scored in float64.  Results
        are identical to mapping :meth:`search` over the rows.
        """
        queries = validate_query_batch(queries, self._dim)
        plan = self.plan(k, n_candidates)
        if not len(queries):
            return []
        return self._engine.run_cached(
            queries, plan, lambda block: self._execute_batch(block, plan)
        )

    def cached_result(
        self, query: np.ndarray, plan: QueryPlan
    ) -> SearchResult | None:
        """The stored result for ``query`` under ``plan``, computing nothing.

        Validates ``query`` against this index's dimension (a malformed
        query raises ``ValueError``) and looks it up under the key
        :meth:`search` and :meth:`search_batch` would use for ``plan``'s
        budgets (:meth:`QueryEngine.lookup`).  Returns
        ``None`` on a miss, without a cache, and for time-budgeted
        plans, which are never cached.  The serving front door calls
        this at admission to answer repeats without queueing them.
        """
        query = validate_query(query, self._dim)
        plan = self.plan(
            plan.k, plan.n_candidates, plan.max_buckets, plan.time_budget
        )
        found = self._engine.lookup(query[np.newaxis], plan)
        return None if found is None else found[1][0]

    def _execute_batch(
        self, queries: np.ndarray, plan: QueryPlan
    ) -> list[SearchResult]:
        """:meth:`search_batch`'s uncached body over validated rows."""

        def streams() -> list[Iterable[np.ndarray]]:
            infos_per_table = [
                hasher.probe_info_batch(queries) for hasher in self._hashers
            ]
            return [
                self.candidate_stream(
                    query,
                    [infos[qi] for infos in infos_per_table],
                )
                for qi, query in enumerate(queries)
            ]

        if len(self._tables) == 1:
            return self._engine.execute_probed(
                queries,
                plan,
                self._prober,
                self._tables[0],
                lambda: self._hashers[0].probe_info_batch(queries),
                streams,
            )
        return self._engine.execute_batch_streams(queries, plan, streams())

    def search_early_stop(
        self, query: np.ndarray, k: int, max_candidates: int | None = None
    ) -> SearchResult:
        """Exact-pruning search with the Theorem 2 bound (single table).

        Probes buckets in ascending QD and stops once the bound
        ``µ·dist(q, b)`` of the next bucket exceeds the current k-th
        nearest distance — at that point no unprobed bucket can contain
        a closer item, so the returned neighbours are exact.  Probing
        also stops after the first non-empty bucket that brings the
        candidate count to ``max_candidates`` (default: every item).

        Requires a GQR prober, a hasher with a linear hashing matrix
        (the bound needs ``M = σ_max(H)``), and the Euclidean metric.
        """
        if max_candidates is None:
            max_candidates = self.num_items
        elif isinstance(max_candidates, (bool, np.bool_)) or not (
            max_candidates >= 1
        ):
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates!r}"
            )
        return self._theorem2_scan(query, k, np.inf, max_candidates)

    def search_range(self, query: np.ndarray, radius: float) -> SearchResult:
        """All items within ``radius`` of the query — *exactly*.

        Section 4.1's early-stop criterion for distance-threshold
        queries: probing stops once every unprobed bucket satisfies
        ``µ·dist(q, b) > radius``; by Theorem 2 none of their items can
        lie within the radius.  Same preconditions as
        :meth:`search_early_stop`.
        """
        if isinstance(radius, (bool, np.bool_)) or not radius >= 0:
            raise ValueError(
                f"radius must be a non-negative number, got {radius!r}"
            )
        return self._theorem2_scan(query, None, radius, np.inf)

    def _theorem2_scan(
        self,
        query: np.ndarray,
        k: int | None,
        radius: float,
        max_candidates: float,
    ) -> SearchResult:
        """Probe in ascending QD until Theorem 2 proves the rest useless.

        The search stops before the first bucket ``j`` whose bound
        ``µ·qd_j`` exceeds the limit: ``radius`` for range search
        (``k is None``); for kNN, the k-th smallest distance over the
        buckets before ``j``, and ``radius`` (infinite) until ``k``
        candidates are seen.  It also stops after the bucket that
        brings the candidate count to ``max_candidates``.  The result
        holds the ``k`` nearest, or every probed item within
        ``radius``, ascending by ``(distance, id)``.

        The scan is the ``gather`` of the engine's one body
        (:meth:`QueryEngine.run`), which ranks the distances it returns
        and times, samples and records the query like any other.  Only
        occupied buckets are visited.  The engine ranks them in GQR's
        order over occupied buckets up to the bucket that reaches the
        cap (:func:`~repro.search.engine._ranked_prefixes`: a certified
        generation-tree prefix, else one ``batch_scores`` row), and
        their QDs give the bounds, sorted, so the first bucket past the
        limit is a ``searchsorted``.  Buckets are taken in chunks,
        gathered in one pass and scored with one distance call, which
        may read a candidate beyond the limit as ``inf`` (the
        evaluator's float32 screen).  Chunks start at about
        :data:`_FIRST_CHUNK` candidates and double.  Once the limit is
        finite and above the bound of the bucket that reaches the cap
        (a range search's radius may be from the start), the rest up to
        the cap is one chunk: no bucket in it stops the scan at that
        limit.  Every bucket in a chunk passed the bound against the
        limit known before the chunk; with ``k`` given the limit can
        only fall inside it, and :func:`_first_stop` finds where.  The
        probed buckets, counters and distances are those of visiting
        one bucket at a time.
        """
        prober, hasher, mu = self._early_stop_setup()
        query = validate_query(query, self._dim)
        table = self._tables[0]
        # A count reaches a fractional cap at its ceiling.
        cap = int(np.ceil(min(max_candidates, self.num_items)))
        # Range search keeps every item it finds: k = n ranks them all.
        plan = QueryPlan(
            k=self.num_items if k is None else k, n_candidates=cap
        )

        def gather(contexts: list[ExecutionContext]) -> Gathered:
            ctx = contexts[0]
            with obs.span("retrieve") as retrieve:
                order, cumulative, scores, stops = _ranked_prefixes(
                    prober, table, [hasher.probe_info(query)], cap
                )
                end = int(stops[0]) + 1
                order, cumulative = order[0, :end], cumulative[0, :end]
                bounds = mu * scores[0, :end]
            with obs.span("dedup_budget") as cut:
                kept_ids = np.empty(0, dtype=np.int64)
                kept_dists = np.empty(0, dtype=np.float64)
                # The prefix ends at the bucket that reaches the cap.
                capped = int(np.searchsorted(cumulative, cap))
                limit, target, done = radius, _FIRST_CHUNK, False
                while not done:
                    pos = ctx.n_buckets_probed
                    # First bucket past the limit, and last one to take:
                    # the one reaching the cap or the chunk target.
                    stop = pos + int(
                        np.searchsorted(bounds[pos:], limit, side="right")
                    )
                    if limit < np.inf and bounds[capped] < limit:
                        # No bucket up to the cap stops at this limit.
                        last = capped
                    else:
                        last = min(capped, int(np.searchsorted(
                            cumulative, ctx.n_candidates + target
                        )))
                    target *= 2
                    ctx.early_stop_triggered = stop <= last
                    done = ctx.early_stop_triggered or last == capped
                    end = min(stop, last + 1)
                    if end == pos:
                        break
                    chunk_ids, lengths = table.gather(order[pos:end])
                    # Only distances within the limit can stop the scan
                    # or rank; the evaluator may read the rest as inf.
                    chunk_dists = self._exact.distances(
                        query, chunk_ids, limit=limit
                    )
                    n_probed, pulled = end - pos, len(chunk_ids)
                    if k is None:
                        within = chunk_dists <= radius
                        kept_ids = np.concatenate(
                            (kept_ids, chunk_ids[within])
                        )
                        kept_dists = np.concatenate(
                            (kept_dists, chunk_dists[within])
                        )
                    else:
                        starts = np.concatenate(
                            ([0], cumulative[pos:end] - ctx.n_candidates)
                        )
                        n_probed = _first_stop(
                            bounds[pos:end], starts, kept_dists,
                            chunk_dists, k,
                        )
                        if n_probed < end - pos:
                            ctx.early_stop_triggered = done = True
                            pulled = int(starts[n_probed])
                        kept_ids, kept_dists = top_k(
                            np.concatenate((kept_ids, chunk_ids[:pulled])),
                            np.concatenate(
                                (kept_dists, chunk_dists[:pulled])
                            ),
                            k,
                        )
                        if len(kept_dists) == k:
                            limit = float(kept_dists[-1])
                    if ctx.bucket_sizes is not None:
                        ctx.bucket_sizes.extend(lengths[:n_probed].tolist())
                    ctx.n_buckets_probed += n_probed
                    ctx.n_candidates += pulled
            _record_retrieval(contexts, retrieve, cut, True)
            return (
                kept_ids,
                np.array([len(kept_ids)], dtype=np.int64),
                kept_dists,
            )

        [result] = self._engine.run(
            query[np.newaxis], plan, gather, single=True
        )
        return result

    def _early_stop_setup(self) -> tuple[GQR, ProjectionHasher, float]:
        """Shared preconditions of the Theorem 2 search modes, and µ."""
        if len(self._tables) != 1:
            raise ValueError("early stop is defined for a single table")
        if self._metric != "euclidean":
            raise ValueError("the Theorem 2 bound is Euclidean-only")
        hasher = self._hashers[0]
        if not isinstance(hasher, ProjectionHasher):
            raise TypeError("early stop needs a hasher with a hashing matrix")
        if not isinstance(self._prober, GQR):
            raise TypeError("early stop needs a GQR prober")
        mu = self._mu
        if mu is None:
            with self._mu_lock:
                mu = self._mu
                if mu is None:
                    mu = self._mu = theorem2_mu(hasher.hashing_matrix)
        return self._prober, hasher, mu


class MIHSearchIndex:
    """Multi-Index Hashing as a querying method over L2H codes."""

    def __init__(
        self,
        hasher: BinaryHasher,
        data: np.ndarray,
        num_blocks: int = 2,
        metric: str = "euclidean",
        cache: QueryResultCache | None = None,
    ) -> None:
        self._data = validate_items(data)
        if not hasher.is_fitted:
            hasher.fit(self._data)
        self._hasher = hasher
        self._mih = MultiIndexHashing(hasher.encode(self._data), num_blocks)
        self._metric = metric
        self._dim = self._data.shape[1]
        self._engine = QueryEngine(
            ExactEvaluator(self._data, metric), name="mih", cache=cache
        )

    @property
    def num_items(self) -> int:
        return len(self._data)

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        query = validate_query(query, self._dim)
        signature, _ = self._hasher.probe_info(query)
        for _, ids in self._mih.probe_increasing(signature):
            if len(ids):
                yield ids

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult:
        query = validate_query(query, self._dim)
        plan = QueryPlan(k=k, n_candidates=n_candidates, metric=self._metric)
        return self._engine.execute(query, plan, self.candidate_stream(query))


class IMISearchIndex:
    """OPQ/PQ + inverted multi-index (the VQ comparator of Section 6.5).

    Parameters
    ----------
    quantizer:
        A fitted 2-subspace (O)PQ defining the IMI grid.
    data:
        The ``(n, d)`` indexed items; retained for exact evaluation.
    """

    def __init__(
        self,
        quantizer: ProductQuantizer | OptimizedProductQuantizer,
        data: np.ndarray,
        metric: str = "euclidean",
        cache: QueryResultCache | None = None,
    ) -> None:
        self._data = validate_items(data)
        self._imi = InvertedMultiIndex(quantizer, self._data)
        self._metric = metric
        self._dim = self._data.shape[1]
        self._engine = QueryEngine(
            ExactEvaluator(self._data, metric), name="imi", cache=cache
        )

    @property
    def num_items(self) -> int:
        return len(self._data)

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        yield from self._imi.probe(validate_query(query, self._dim))

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult:
        query = validate_query(query, self._dim)
        plan = QueryPlan(k=k, n_candidates=n_candidates, metric=self._metric)
        return self._engine.execute(query, plan, self.candidate_stream(query))
