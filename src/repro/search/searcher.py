"""High-level ANN search indexes.

The querying pipeline of Section 2.2 — *retrieval* picks buckets and
gathers candidate ids, *evaluation* re-ranks candidates by exact
distance — lives once in :mod:`repro.search.engine`; the classes here
are thin adapters that build :class:`~repro.search.engine.QueryPlan`
instances and delegate:

* :class:`HashIndex` — L2H hash table(s) + a pluggable
  :class:`~repro.core.prober.BucketProber` (HR, GHR, QR, GQR, …), with
  multi-table probing (round-robin or global QD merge), Theorem 2 early
  stop, exact range search, and genuinely batched queries.
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
from collections.abc import Iterator

import numpy as np

from repro import obs
from repro.core.gqr import GQR
from repro.core.quantization_distance import theorem2_mu
from repro.hashing.base import BinaryHasher, ProjectionHasher
from repro.index.codes import pack_bits, unpack_bits
from repro.index.distance import METRICS
from repro.index.hash_table import HashTable
from repro.index.mih import MultiIndexHashing
from repro.probing.base import BucketProber
from repro.quantization.imi import InvertedMultiIndex
from repro.quantization.opq import OptimizedProductQuantizer
from repro.quantization.pq import ProductQuantizer
from repro.search.cache import QueryResultCache
from repro.search.engine import (
    ADCEvaluator,
    CandidatePipeline,
    CodeEvaluator,
    Evaluator,
    ExactEvaluator,
    ExecutionContext,
    QueryEngine,
    QueryPlan,
    qd_merged_scored_stream,
    round_robin_stream,
    validate_query,
    validate_query_batch,
)
from repro.search.results import SearchResult
from repro.search.stages import (
    FusableIndex,
    FusionSpec,
    IndexFusionPartner,
    RerankSpec,
)

__all__ = [
    "HashIndex",
    "MIHSearchIndex",
    "IMISearchIndex",
    "evaluate_candidates",
]


def evaluate_candidates(
    query: np.ndarray,
    data: np.ndarray,
    candidate_ids: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact re-rank of candidates; returns top-``k`` ``(ids, distances)``.

    The evaluation step shared by every querying method: compute true
    distances to the retrieved items under ``metric`` and keep the k
    best (ties broken by id).  Kept as a function for callers outside
    the engine; internally it is the engine's exact evaluation rule.
    """
    return ExactEvaluator(np.asarray(data, dtype=np.float64), metric).evaluate(
        np.asarray(query, dtype=np.float64), candidate_ids, k
    )


# Candidates scored by the Theorem 2 scan's first distance call; each
# later chunk doubles it, so a query costs O(log n) calls.
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
    the bound against ``kept_dists`` when it was fetched.  The k-th
    distance never rises with ``j`` and GQR's QD never falls, so the
    predicate flips at most once and bisection finds the flip.  The
    bisection runs on the running maximum of the bounds, which stays
    monotone even where float rounding lets a QD dip by an ulp; a short
    forward walk then checks the exact predicate.
    """

    def kth(j: int) -> float:
        pool = np.concatenate((kept_dists, chunk_dists[: starts[j]]))
        if len(pool) < k:
            return np.inf
        return float(np.partition(pool, k - 1)[k - 1])

    n = len(bounds)
    peaks = np.maximum.accumulate(bounds)
    if peaks[-1] <= kth(n):
        return n
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if peaks[mid] > kth(mid):
            hi = mid
        else:
            lo = mid + 1
    while lo < n and bounds[lo] <= kth(lo):
        lo += 1
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
    multi_table_strategy:
        How to interleave probe orders across tables: ``"round_robin"``
        (one bucket from each table in turn, the paper's scheme) or
        ``"qd_merge"`` (a heap-merge of the tables' scored streams into
        one globally ascending-QD order; requires a prober with
        ``probe_scored``, i.e. GQR).
    cache:
        Optional :class:`~repro.search.cache.QueryResultCache`; repeated
        queries under the same plan return the cached result.
    evaluation:
        The evaluation stage's scoring rule: ``"exact"`` (true
        distances over raw vectors, the default) or ``"code"``
        (asymmetric quantization distance over the first table's codes
        — the vector-free estimate; pair it with a rerank stage to
        recover exact quality on the surviving pool).
    rerank_quantizer:
        Optional fine :class:`~repro.quantization.pq.ProductQuantizer`;
        when given, plans may request ``RerankSpec(mode="adc")`` to
        re-score the candidate pool with asymmetric distance over its
        codes.  ``RerankSpec(mode="exact")`` is always available.
    """

    def __init__(
        self,
        hasher: BinaryHasher | list[BinaryHasher],
        data: np.ndarray,
        prober: BucketProber | None = None,
        metric: str = "euclidean",
        multi_table_strategy: str = "round_robin",
        cache: QueryResultCache | None = None,
        evaluation: str = "exact",
        rerank_quantizer: ProductQuantizer | None = None,
    ) -> None:
        self._data = np.asarray(data, dtype=np.float64)
        if self._data.ndim != 2:
            raise ValueError("data must be a (n, d) array")
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; options: {sorted(METRICS)}"
            )
        if multi_table_strategy not in ("round_robin", "qd_merge"):
            raise ValueError(
                "multi_table_strategy must be 'round_robin' or 'qd_merge'"
            )
        if evaluation not in ("exact", "code"):
            raise ValueError("evaluation must be 'exact' or 'code'")
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
        codes_per_table = [h.encode(self._data) for h in hashers]
        self._tables = [HashTable(codes) for codes in codes_per_table]
        self._prober = prober if prober is not None else GQR()
        self._metric = metric
        self._multi_table_strategy = multi_table_strategy
        self._evaluation = evaluation
        self._dim = self._data.shape[1]
        self._exact = ExactEvaluator(self._data, metric)
        self._evaluator: Evaluator
        if evaluation == "code":
            signatures = np.atleast_1d(
                np.asarray(pack_bits(codes_per_table[0]), dtype=np.int64)
            )
            self._evaluator = CodeEvaluator(
                hashers[0], signatures, "asymmetric"
            )
        else:
            self._evaluator = self._exact
        self._engine = QueryEngine(self._evaluator, name="hash", cache=cache)
        self._engine.rerankers["exact"] = self._exact
        if rerank_quantizer is not None:
            if not rerank_quantizer.codebooks:
                rerank_quantizer.fit(self._data)
            self._engine.rerankers["adc"] = ADCEvaluator(
                rerank_quantizer, rerank_quantizer.encode(self._data)
            )
        # Per-table (signatures, unpacked bits), lazily built for
        # batched scoring; the tables are static but
        # AsyncFrontDoor(max_workers>1) worker threads may race to
        # build an entry on first use.
        self._bucket_bits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._bucket_bits_lock = threading.Lock()

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
    def multi_table_strategy(self) -> str:
        """How probe orders interleave across tables (see ``__init__``)."""
        return self._multi_table_strategy

    @property
    def evaluation(self) -> str:
        """The evaluation stage's scoring rule (``"exact"`` / ``"code"``)."""
        return self._evaluation

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
        (single-table GQR vs multi-table GHR).
        """
        return {
            "data": int(self._data.nbytes),
            "tables": int(sum(t.memory_bytes() for t in self._tables)),
            "num_tables": len(self._tables),
        }

    def plan(
        self,
        k: int,
        n_candidates: int | None = None,
        max_buckets: int | None = None,
        time_budget: float | None = None,
        rerank: RerankSpec | None = None,
        fusion: FusionSpec | None = None,
    ) -> QueryPlan:
        """Build the :class:`QueryPlan` a ``search`` call would execute."""
        return QueryPlan(
            k=k,
            n_candidates=n_candidates,
            max_buckets=max_buckets,
            time_budget=time_budget,
            metric=self._metric,
            multi_table_strategy=self._multi_table_strategy,
            rerank=rerank,
            fusion=fusion,
        )

    def fuse_with(
        self, partner: FusableIndex, n_candidates: int | None = None
    ) -> None:
        """Attach ``partner`` as this index's fusion counterpart.

        After attaching, plans carrying a
        :class:`~repro.search.stages.FusionSpec` linearly fuse this
        index's ranked list with the partner's (another hasher, an IMI,
        a compact index — anything engine-backed).  ``n_candidates``
        fixes the partner's candidate budget; by default it inherits
        each plan's own budget (matched-budget fusion).
        """
        self._engine.fusion_partner = IndexFusionPartner(
            partner, n_candidates
        )

    # -- retrieval ----------------------------------------------------

    def _probe_infos(self, query: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Per-table ``(signature, flip_costs)`` for one query."""
        return [hasher.probe_info(query) for hasher in self._hashers]

    def _bucket_batch_info(
        self, table_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached (ascending signatures, unpacked bits) of one table."""
        cached = self._bucket_bits.get(table_index)
        if cached is None:
            # Double-checked: the fast path stays lock-free once built
            # (tuple assignment is atomic), losers of the build race
            # just re-read the winner's entry.
            with self._bucket_bits_lock:
                cached = self._bucket_bits.get(table_index)
                if cached is None:
                    table = self._tables[table_index]
                    signatures = table.dense_layout()[0]
                    cached = (
                        signatures,
                        unpack_bits(signatures, table.code_length),
                    )
                    self._bucket_bits[table_index] = cached
        return cached

    def candidate_stream(
        self,
        query: np.ndarray,
        probe_infos: list[tuple[int, np.ndarray]] | None = None,
    ) -> Iterator[np.ndarray]:
        """Arrays of item ids, one per probed non-empty bucket.

        With multiple tables, probing either round-robins across the
        tables' probe orders (the paper's multi-hash-table strategy,
        Section 6.3.5) or heap-merges the scored streams into one
        globally ascending-QD order; duplicates across tables are
        suppressed either way.  ``probe_infos`` lets batched callers
        supply precomputed signatures/costs so hashing happens once per
        table for a whole batch.
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
        if self._multi_table_strategy == "qd_merge":
            for _, ids in self.scored_stream(query, probe_infos):
                yield ids
        else:
            streams = [
                self._prober.probe(table, signature, costs)
                for table, (signature, costs) in zip(self._tables, probe_infos)
            ]
            yield from round_robin_stream(
                streams, self._tables, self.num_items
            )

    def scored_stream(
        self,
        query: np.ndarray,
        probe_infos: list[tuple[int, np.ndarray]] | None = None,
    ) -> Iterator[tuple[float, np.ndarray]]:
        """The globally merged ``(qd, fresh_ids)`` stream across tables.

        Exposes the ``qd_merge`` strategy's ordering invariant: the
        yielded quantization distances are non-decreasing (Properties
        1–2 / Theorem 2's ordering guarantee), whatever the number of
        tables.
        """
        if not hasattr(self._prober, "probe_scored"):
            raise TypeError(
                "qd_merge needs a prober with probe_scored (e.g. GQR)"
            )
        query = validate_query(query, self._dim)
        if probe_infos is None:
            probe_infos = self._probe_infos(query)
        scored = [
            self._prober.probe_scored(table, signature, costs)
            for table, (signature, costs) in zip(self._tables, probe_infos)
        ]
        return qd_merged_scored_stream(scored, self._tables, self.num_items)

    # -- evaluation ---------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int,
        n_candidates: int | None = None,
        max_buckets: int | None = None,
        time_budget: float | None = None,
        rerank: RerankSpec | None = None,
        fusion: FusionSpec | None = None,
    ) -> SearchResult:
        """Approximate kNN with the paper's pluggable stopping criteria.

        Retrieval stops at whichever bound is hit first (Algorithm 1's
        remark that "other stopping criteria can also be used"):

        * ``n_candidates`` — collect at least this many candidate ids;
        * ``max_buckets`` — probe at most this many non-empty buckets;
        * ``time_budget`` — stop retrieving after this many seconds.

        At least one criterion must be given.  Collected candidates are
        re-ranked by the evaluation stage and the top-``k`` returned;
        ``rerank`` / ``fusion`` switch on the optional pipeline stages
        (see :meth:`plan`).
        """
        plan = self.plan(
            k, n_candidates, max_buckets, time_budget, rerank, fusion
        )
        query = validate_query(query, self._dim)
        return self._engine.execute(query, plan, self.candidate_stream(query))

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        n_candidates: int,
        rerank: RerankSpec | None = None,
        fusion: FusionSpec | None = None,
    ) -> list[SearchResult]:
        """``search`` over a query batch, genuinely batched.

        The whole batch issues exactly one projection/encode call per
        table (:meth:`BinaryHasher.probe_info_batch`).  For probers with
        vectorised bucket scoring (HR, QR, GQR) on a single table, the
        per-query probe orders additionally come from one shared score
        matrix, and evaluation is amortised into one
        ``pairwise_distances`` call over the block's candidate union.
        Results are identical to mapping :meth:`search` over the rows.
        """
        queries = validate_query_batch(queries, self._dim)
        if not len(queries):
            return []
        plan = self.plan(k, n_candidates, rerank=rerank, fusion=fusion)
        infos_per_table = [
            hasher.probe_info_batch(queries) for hasher in self._hashers
        ]
        if len(self._tables) == 1:
            table = self._tables[0]
            infos = infos_per_table[0]
            signatures = np.fromiter(
                (sig for sig, _ in infos), dtype=np.int64, count=len(infos)
            )
            cost_matrix = np.stack([costs for _, costs in infos])
            bucket_signatures, bucket_bits = self._bucket_batch_info(0)
            scores = self._prober.batch_scores(
                bucket_signatures,
                bucket_bits,
                signatures,
                unpack_bits(signatures, table.code_length),
                cost_matrix,
            )
            if scores is not None:
                return self._engine.execute_batch_ordered(
                    queries, plan, table, scores, bucket_signatures
                )
        streams = [
            self.candidate_stream(
                query,
                [infos[qi] for infos in infos_per_table],
            )
            for qi, query in enumerate(queries)
        ]
        return self._engine.execute_batch_streams(queries, plan, streams)

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
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if max_candidates is None:
            max_candidates = self.num_items
        ids, dists, ctx = self._theorem2_scan(query, k, np.inf, max_candidates)
        return SearchResult(
            ids,
            dists,
            ctx.n_candidates,
            ctx.n_buckets_probed,
            extras={"stopped_early": bool(len(ids)), "stats": ctx},
        )

    def search_range(self, query: np.ndarray, radius: float) -> SearchResult:
        """All items within ``radius`` of the query — *exactly*.

        Section 4.1's early-stop criterion for distance-threshold
        queries: probing stops once every unprobed bucket satisfies
        ``µ·dist(q, b) > radius``; by Theorem 2 none of their items can
        lie within the radius.  Same preconditions as
        :meth:`search_early_stop`.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        ids, dists, ctx = self._theorem2_scan(query, None, radius, np.inf)
        return SearchResult(
            ids, dists, ctx.n_candidates, ctx.n_buckets_probed,
            extras={"stats": ctx},
        )

    def _theorem2_scan(
        self,
        query: np.ndarray,
        k: int | None,
        radius: float,
        max_candidates: float,
    ) -> tuple[np.ndarray, np.ndarray, ExecutionContext]:
        """Probe in ascending QD until Theorem 2 proves the rest useless.

        The search stops before the first bucket ``j`` whose bound
        ``µ·qd_j`` exceeds the limit: ``radius`` for range search
        (``k is None``); for kNN, the k-th smallest distance over the
        buckets before ``j``, and ``radius`` (infinite) until ``k``
        candidates are seen.  It also stops after the first non-empty bucket that
        brings the candidate count to ``max_candidates``.  Returns the
        kept ``(ids, distances)``, ascending by ``(distance, id)``: the
        ``k`` nearest, or every probed item within ``radius``.

        Buckets are fetched in chunks of growing candidate count and
        each chunk is scored with one distance call.  Every bucket in
        a chunk passed the bound against the limit known before the
        chunk; with ``k`` given the limit can only fall inside it, and
        :func:`_first_stop` finds where.  The probed buckets, counters
        and distances are those of visiting one bucket at a time.
        """
        prober, hasher, mu = self._early_stop_setup()
        query = validate_query(query, self._dim)
        signature, costs = hasher.probe_info(query)
        table = self._tables[0]

        ctx = ExecutionContext()
        kept_ids = np.empty(0, dtype=np.int64)
        kept_dists = np.empty(0, dtype=np.float64)
        limit = radius
        target = _FIRST_CHUNK
        with obs.span("query") as root:
            stream = prober.probe_scored(table, signature, costs)
            done = False
            while not done:
                chunk: list[np.ndarray] = []
                bounds: list[float] = []
                pulled = 0
                for bucket, qd in stream:
                    bound = mu * qd
                    if bound > limit:
                        ctx.early_stop_triggered = done = True
                        break
                    ids = table.get(bucket)
                    chunk.append(ids)
                    bounds.append(bound)
                    pulled += len(ids)
                    reached = ctx.n_candidates + pulled >= max_candidates
                    if len(ids) and reached:
                        done = True
                        break
                    if pulled >= target:
                        break
                else:
                    done = True
                target *= 2
                n_probed = len(chunk)
                if pulled:
                    chunk_ids = np.concatenate(chunk)
                    with obs.span("evaluate"):
                        chunk_dists = self._exact.distances(query, chunk_ids)
                    if k is None:
                        within = chunk_dists <= radius
                        kept_ids = np.concatenate(
                            (kept_ids, chunk_ids[within])
                        )
                        kept_dists = np.concatenate(
                            (kept_dists, chunk_dists[within])
                        )
                    else:
                        starts = np.cumsum([0] + [len(ids) for ids in chunk])
                        n_probed = _first_stop(
                            np.asarray(bounds, dtype=np.float64),
                            starts, kept_dists, chunk_dists, k,
                        )
                        if n_probed < len(chunk):
                            ctx.early_stop_triggered = done = True
                            pulled = int(starts[n_probed])
                        kept_ids, kept_dists = CandidatePipeline.top_k(
                            np.concatenate((kept_ids, chunk_ids[:pulled])),
                            np.concatenate((kept_dists, chunk_dists[:pulled])),
                            k,
                        )
                        if len(kept_dists) == k:
                            limit = float(kept_dists[-1])
                ctx.n_buckets_probed += n_probed
                ctx.n_candidates += pulled
        # Evaluation is the chunks' distance calls; retrieval is the
        # rest (probing, bucket fetches, the stop search, selection).
        ctx.total_seconds = root.duration
        ctx.evaluation_seconds = root.child_duration("evaluate")
        ctx.retrieval_seconds = ctx.total_seconds - ctx.evaluation_seconds
        obs.observe_query("hash", ctx, root=root)
        if k is None:
            order = np.lexsort((kept_ids, kept_dists))
            kept_ids, kept_dists = kept_ids[order], kept_dists[order]
        return kept_ids, kept_dists, ctx

    def _early_stop_setup(self) -> tuple[GQR, ProjectionHasher, float]:
        """Shared preconditions of the Theorem 2 search modes."""
        if len(self._tables) != 1:
            raise ValueError("early stop is defined for a single table")
        if self._metric != "euclidean":
            raise ValueError("the Theorem 2 bound is Euclidean-only")
        hasher = self._hashers[0]
        if not isinstance(hasher, ProjectionHasher):
            raise TypeError("early stop needs a hasher with a hashing matrix")
        if not isinstance(self._prober, GQR):
            raise TypeError("early stop needs a GQR prober")
        return self._prober, hasher, theorem2_mu(hasher.hashing_matrix)


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
        self._data = np.asarray(data, dtype=np.float64)
        if not hasher.is_fitted:
            hasher.fit(self._data)
        self._hasher = hasher
        self._mih = MultiIndexHashing(hasher.encode(self._data), num_blocks)
        self._metric = metric
        self._dim = self._data.shape[1]
        self._evaluator = ExactEvaluator(self._data, metric)
        self._engine = QueryEngine(self._evaluator, name="mih", cache=cache)
        self._engine.rerankers["exact"] = self._evaluator

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
        self,
        query: np.ndarray,
        k: int,
        n_candidates: int,
        rerank: RerankSpec | None = None,
    ) -> SearchResult:
        query = validate_query(query, self._dim)
        plan = QueryPlan(
            k=k, n_candidates=n_candidates, metric=self._metric, rerank=rerank
        )
        return self._engine.execute(query, plan, self.candidate_stream(query))


class IMISearchIndex:
    """OPQ/PQ + inverted multi-index (the VQ comparator of Section 6.5).

    Parameters
    ----------
    quantizer:
        A fitted 2-subspace (O)PQ defining the IMI grid.
    data:
        The ``(n, d)`` indexed items.
    rerank_quantizer:
        Optional *fine* :class:`~repro.quantization.pq.ProductQuantizer`
        (typically many subspaces).  When given, candidates are scored
        with asymmetric distance computation (ADC) over their compressed
        codes instead of raw vectors — the memory-saving mode real VQ
        systems run in; results become approximate.
    """

    def __init__(
        self,
        quantizer: ProductQuantizer | OptimizedProductQuantizer,
        data: np.ndarray,
        metric: str = "euclidean",
        rerank_quantizer: ProductQuantizer | None = None,
        cache: QueryResultCache | None = None,
    ) -> None:
        self._data = np.asarray(data, dtype=np.float64)
        self._imi = InvertedMultiIndex(quantizer, self._data)
        self._metric = metric
        self._fine = rerank_quantizer
        self._dim = self._data.shape[1]
        evaluator: Evaluator
        exact = ExactEvaluator(self._data, metric)
        if rerank_quantizer is not None:
            if not rerank_quantizer.codebooks:
                rerank_quantizer.fit(self._data)
            self._fine_codes = rerank_quantizer.encode(self._data)
            evaluator = ADCEvaluator(rerank_quantizer, self._fine_codes)
        else:
            evaluator = exact
        self._engine = QueryEngine(evaluator, name="imi", cache=cache)
        self._engine.rerankers["exact"] = exact
        if rerank_quantizer is not None:
            self._engine.rerankers["adc"] = evaluator

    @property
    def num_items(self) -> int:
        return len(self._data)

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]:
        yield from self._imi.probe(validate_query(query, self._dim))

    def search(
        self,
        query: np.ndarray,
        k: int,
        n_candidates: int,
        rerank: RerankSpec | None = None,
    ) -> SearchResult:
        query = validate_query(query, self._dim)
        plan = QueryPlan(
            k=k, n_candidates=n_candidates, metric=self._metric, rerank=rerank
        )
        return self._engine.execute(query, plan, self.candidate_stream(query))
