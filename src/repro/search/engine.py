"""Unified query-execution engine: a plan-driven stage pipeline.

Section 2.2 of the paper frames *every* querying method — HR, GHR, QR,
GQR, MIH, IMI — as one two-step loop: retrieval picks buckets and
gathers candidate ids, evaluation re-ranks the candidates exactly.
This module is that loop generalised into a typed stage pipeline
(:mod:`repro.search.stages`)::

    Retrieve → DedupBudget → Evaluate → [Rerank] → [Fuse] → Truncate

extracted once so each index class is a thin adapter instead of a
private re-implementation:

* :class:`QueryPlan` — what to do: ``k``, stopping criteria
  (candidate / bucket / time budgets), metric, multi-table strategy,
  and the optional rerank/fusion stage specs.  ``stage_list()`` is the
  plan's declarative serialisation — the stages it executes, in order,
  with every stage's parameters — which is also what cache keys hash.
* :class:`ExecutionContext` — what happened: buckets probed, candidates
  gathered, early-stop trigger, per-stage wall time
  (``stage_seconds``) and per-stage facts (``stage_stats``).  Attached
  to every :class:`~repro.search.results.SearchResult` as
  ``extras["stats"]``.
* :class:`CandidatePipeline` — budget-aware stream draining and the
  shared exact top-``k`` selection (ties broken by id everywhere).
* :class:`QueryEngine` — builds the pipeline a plan describes and runs
  it over a candidate stream, producing an instrumented
  ``SearchResult``.  Engines resolve rerank modes from
  :attr:`QueryEngine.rerankers` and fusion partners from
  :attr:`QueryEngine.fusion_partner`.

Evaluators encapsulate scoring: exact distances over raw vectors
(:class:`ExactEvaluator`), asymmetric distance over PQ codes
(:class:`ADCEvaluator`), or code-based estimates for vector-free
deployments (:class:`CodeEvaluator`).  The same evaluator contract
powers the evaluation *and* rerank stages.
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from repro import obs
from repro.index.codes import (
    hamming_distance,
    packed_qd_distances,
    qd_cost_tables,
)
from repro.index.distance import METRICS, pairwise_distances
from repro.search.cache import QueryResultCache, cache_token
from repro.search.results import SearchResult
from repro.search.stages import (
    FuseStage,
    FusionPartner,
    FusionSpec,
    PipelineState,
    RerankSpec,
    RerankStage,
    Stage,
    TruncateStage,
    build_pipeline,
    drain_stream,
)

__all__ = [
    "ADCEvaluator",
    "BucketTable",
    "CandidatePipeline",
    "CodeEvaluator",
    "DistanceTableQuantizer",
    "Evaluator",
    "ExactEvaluator",
    "ExecutionContext",
    "ProbeInfoHasher",
    "QueryEngine",
    "QueryPlan",
    "qd_merged_scored_stream",
    "round_robin_stream",
    "validate_query",
    "validate_query_batch",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_DISTS = np.empty(0, dtype=np.float64)


# -- query validation -------------------------------------------------

def validate_query(query: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Coerce one query to a 1-D float64 vector, or raise uniformly.

    Every index validates through this function, so a malformed query
    produces the same ``ValueError`` everywhere instead of (depending on
    the index) a broadcasting error deep inside numpy.
    """
    try:
        arr = np.asarray(query, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            f"query must be a numeric vector; got {type(query).__name__} "
            "that cannot be cast to float64"
        ) from None
    if arr.ndim != 1:
        raise ValueError(
            "query must be a 1-D vector"
            + (f" of dimension {dim}" if dim is not None else "")
            + f"; got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(
            f"query must be a 1-D vector of dimension {dim}; "
            f"got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("query contains non-finite values (nan or inf)")
    return arr


def validate_query_batch(
    queries: np.ndarray, dim: int | None = None
) -> np.ndarray:
    """Coerce a query batch to ``(B, dim)`` float64, or raise uniformly."""
    try:
        arr = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    except (TypeError, ValueError):
        raise ValueError(
            "queries must be a numeric array; got "
            f"{type(queries).__name__} that cannot be cast to float64"
        ) from None
    if arr.ndim != 2:
        raise ValueError(
            f"queries must be a (batch, dim) array; got shape {arr.shape}"
        )
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(
            f"queries must be a (batch, {dim}) array; got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("queries contain non-finite values (nan or inf)")
    return arr


# -- plan and context -------------------------------------------------

@dataclass(frozen=True)
class QueryPlan:
    """Everything the engine needs to know before touching a query.

    At least one stopping criterion (``n_candidates``, ``max_buckets``,
    ``time_budget``) must be set — Algorithm 1's remark that "other
    stopping criteria can also be used"; retrieval stops at whichever
    bound is hit first.

    ``rerank`` and ``fusion`` switch on the optional pipeline stages:
    a :class:`~repro.search.stages.RerankSpec` re-scores the
    evaluation stage's surviving pool with a second scorer the engine
    resolves by mode, and a :class:`~repro.search.stages.FusionSpec`
    linearly fuses the ranked list with the engine's attached fusion
    partner.  A plan is pure data — the same plan runs against any
    engine that can resolve its stages.
    """

    k: int
    n_candidates: int | None = None
    max_buckets: int | None = None
    time_budget: float | None = None
    metric: str = "euclidean"
    multi_table_strategy: str = "round_robin"
    rerank: RerankSpec | None = None
    fusion: FusionSpec | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if (
            self.n_candidates is None
            and self.max_buckets is None
            and self.time_budget is None
        ):
            raise ValueError(
                "give at least one stopping criterion: n_candidates, "
                "max_buckets or time_budget"
            )
        if self.metric not in METRICS:
            raise KeyError(
                f"unknown metric {self.metric!r}; options: {sorted(METRICS)}"
            )
        if self.multi_table_strategy not in ("round_robin", "qd_merge"):
            raise ValueError(
                "multi_table_strategy must be 'round_robin' or 'qd_merge'"
            )
        if self.rerank is not None and not isinstance(self.rerank, RerankSpec):
            raise TypeError(
                f"rerank must be a RerankSpec, got {type(self.rerank).__name__}"
            )
        if self.fusion is not None and not isinstance(
            self.fusion, FusionSpec
        ):
            raise TypeError(
                f"fusion must be a FusionSpec, got {type(self.fusion).__name__}"
            )

    def evaluate_keep(self) -> int | None:
        """How many ranked survivors the evaluation stage keeps.

        ``k`` when evaluation is the last scoring stage (the classic
        path); the rerank pool when a rerank follows (``None`` = keep
        the whole scored candidate set); the fusion pool when only a
        fusion follows.
        """
        if self.rerank is not None:
            return self.rerank.pool
        if self.fusion is not None:
            return self.fusion.pool if self.fusion.pool is not None else self.k
        return self.k

    def stage_list(self) -> tuple[tuple[object, ...], ...]:
        """The declarative stage serialisation of this plan.

        One tuple per pipeline stage, in execution order, each carrying
        the stage name and every parameter that shapes its output.
        This is the canonical plan identity: cache keys hash it, so two
        plans collide only if they execute the same stages with the
        same parameters.
        """
        stages: list[tuple[object, ...]] = [
            ("retrieve", self.multi_table_strategy),
            (
                "dedup_budget",
                self.n_candidates,
                self.max_buckets,
                self.time_budget,
            ),
            ("evaluate", self.metric, self.evaluate_keep()),
        ]
        if self.rerank is not None:
            stages.append(("rerank", self.rerank.mode, self.rerank.pool))
        if self.fusion is not None:
            stages.append(("fuse", self.fusion.weight, self.fusion.pool))
        stages.append(("truncate", self.k))
        return tuple(stages)

    def stage_names(self) -> tuple[str, ...]:
        """The names of the stages this plan executes, in order."""
        return tuple(str(entry[0]) for entry in self.stage_list())

    def downgraded(self, level: int, *, floor: int = 16) -> QueryPlan:
        """A cheaper variant of this plan, ``level`` steps down the ladder.

        The serving front door's graduated load shedding
        (:mod:`repro.serving`) degrades admitted queries to cheaper
        plans before it ever rejects; this method is the ladder.  Level
        ``0`` is the plan itself.  Each level halves the candidate and
        bucket budgets (never below ``max(floor, k)`` candidates or one
        bucket), and from level ``2`` the optional rerank and fusion
        stages are dropped entirely — the order mirrors the stages'
        cost: budget first, extra scoring passes second.

        The result is an ordinary :class:`QueryPlan`: running it
        directly is bit-identical to being degraded to it, which is the
        property the shedding tests pin.
        """
        if level < 0:
            raise ValueError(f"downgrade level must be >= 0, got {level}")
        if level == 0:
            return self
        shrink = 2 ** level
        n_candidates = self.n_candidates
        if n_candidates is not None:
            n_candidates = max(max(floor, self.k), n_candidates // shrink)
        max_buckets = self.max_buckets
        if max_buckets is not None:
            max_buckets = max(1, max_buckets // shrink)
        time_budget = self.time_budget
        if time_budget is not None:
            time_budget = time_budget / shrink
        return replace(
            self,
            n_candidates=n_candidates,
            max_buckets=max_buckets,
            time_budget=time_budget,
            rerank=None if level >= 2 else self.rerank,
            fusion=None if level >= 2 else self.fusion,
        )

    def budget_fraction(self, other: QueryPlan) -> float:
        """``other``'s candidate budget as a fraction of this plan's.

        The serving layer's coverage vocabulary for degraded responses
        (mirroring the distributed layer's reachable-subset coverage):
        1.0 when the budgets match (or neither plan bounds candidates),
        smaller when ``other`` is a downgraded variant.
        """
        if self.n_candidates is None or other.n_candidates is None:
            return 1.0
        if self.n_candidates <= 0:
            return 1.0
        return min(1.0, other.n_candidates / self.n_candidates)


@dataclass
class ExecutionContext:
    """Per-query instrumentation filled in by the engine.

    Attributes
    ----------
    n_buckets_probed:
        Non-empty buckets (or cells / rings) fetched during retrieval.
    n_candidates:
        Candidate ids gathered before evaluation.
    early_stop_triggered:
        Whether a Theorem 2 bound terminated retrieval early.
    retrieval_seconds / evaluation_seconds / total_seconds:
        Wall time of the coarse stages as measured by the engine's
        spans (:mod:`repro.obs.spans`).  ``retrieval_seconds`` covers
        the retrieve + dedup_budget stages together.
    stage_seconds:
        Wall time of each executed pipeline stage, keyed by stage name
        (``"retrieve"``, ``"dedup_budget"``, ``"evaluate"``,
        ``"rerank"``, ``"fuse"``, ``"truncate"``) — recorded by
        :meth:`~repro.search.stages.Stage.execute`.
    stage_stats:
        Per-stage facts beyond timing (rerank mode and pool size,
        fusion weight and list sizes), keyed by stage name.
    bucket_sizes:
        Per-probed-bucket candidate counts, recorded only when the
        trace sampler selected this query (``None`` otherwise); part of
        the sampled-trace payload, not of :meth:`as_dict`.
    """

    n_buckets_probed: int = 0
    n_candidates: int = 0
    early_stop_triggered: bool = False
    retrieval_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    total_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_stats: dict[str, dict] = field(default_factory=dict, repr=False)
    bucket_sizes: list[int] | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        """The stats as a plain dict (JSON-friendly)."""
        return {
            "n_buckets_probed": int(self.n_buckets_probed),
            "n_candidates": int(self.n_candidates),
            "early_stop_triggered": bool(self.early_stop_triggered),
            "retrieval_seconds": float(self.retrieval_seconds),
            "evaluation_seconds": float(self.evaluation_seconds),
            "total_seconds": float(self.total_seconds),
            "stages": {
                name: float(seconds)
                for name, seconds in self.stage_seconds.items()
            },
        }


# -- candidate pipeline -----------------------------------------------

class CandidatePipeline:
    """Budget-aware stream draining and the shared top-``k`` selection."""

    @staticmethod
    def drain(
        stream: Iterable[np.ndarray],
        plan: QueryPlan,
        ctx: ExecutionContext,
    ) -> np.ndarray:
        """Collect candidate ids until a stopping criterion fires.

        Delegates to :func:`repro.search.stages.drain_stream` — the
        dedup_budget stage's implementation — kept here as the stable
        entry point batch paths and tests call directly.  See that
        function for the dedup and budget-accounting contract.
        """
        return drain_stream(stream, plan, ctx)

    @staticmethod
    def top_k(
        candidate_ids: np.ndarray, scores: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keep the ``k`` best-scored candidates, ties broken by id.

        The selection rule shared by every evaluator: ``argpartition``
        to the cut, then a ``(score, id)`` lexsort of the survivors.
        """
        if not len(candidate_ids):
            return _EMPTY_IDS, _EMPTY_DISTS
        keep = min(k, len(candidate_ids))
        if keep < len(candidate_ids):
            part = np.argpartition(scores, keep - 1)[:keep]
        else:
            part = np.arange(len(candidate_ids))
        order = np.lexsort((candidate_ids[part], scores[part]))
        chosen = part[order]
        return candidate_ids[chosen], scores[chosen]


# -- evaluator contracts ----------------------------------------------

class Evaluator(Protocol):
    """The evaluation stage's scoring rule, as the engine sees it.

    ``evaluate`` re-ranks ``candidates`` for ``query`` and returns the
    top-``k`` ``(ids, scores)`` pair, both aligned and ascending by
    score with ties broken by id.
    """

    def evaluate(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]: ...


class DistanceTableQuantizer(Protocol):
    """The slice of a product quantizer :class:`ADCEvaluator` needs."""

    def distance_tables(self, query: np.ndarray) -> list[np.ndarray]: ...


class ProbeInfoHasher(Protocol):
    """The slice of a binary hasher :class:`CodeEvaluator` needs."""

    def probe_info(self, query: np.ndarray) -> tuple[int, np.ndarray]: ...


class BucketTable(Protocol):
    """Bucket lookup surface the batched fast path drains."""

    def get(self, signature: int) -> np.ndarray: ...


# -- evaluators -------------------------------------------------------

class ExactEvaluator:
    """Exact re-rank against raw vectors under a registered metric.

    ``data`` may be the ``(n, d)`` array itself or a zero-argument
    callable returning it — the latter lets mutable indexes (whose item
    storage is reallocated as it grows) stay wired to live storage.
    """

    def __init__(
        self,
        data: np.ndarray | Callable[[], np.ndarray],
        metric: str = "euclidean",
    ) -> None:
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; options: {sorted(METRICS)}"
            )
        self._data = data
        self.metric = metric

    def _vectors(self) -> np.ndarray:
        return self._data() if callable(self._data) else self._data

    def distances(
        self, query: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact distances to ``candidates``, aligned — no selection.

        The sanctioned interface for search paths that need raw
        per-candidate distances (the Theorem 2 scan behind early stop
        and range search) rather than a top-``k``: exact scoring stays
        inside the engine's evaluator instead of leaking into each
        index class.  Uses the same arithmetic as :meth:`evaluate`, so
        both return bit-identical distances for the same candidates.
        """
        if not len(candidates):
            return _EMPTY_DISTS
        return self._distances(query, candidates)

    def evaluate(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if not len(candidates):
            return _EMPTY_IDS, _EMPTY_DISTS
        return CandidatePipeline.top_k(
            candidates, self._distances(query, candidates), k
        )

    def _distances(
        self, query: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        if self.metric in _RAGGED_METRICS:
            # Same arithmetic as the batched block path, so per-query
            # and batched searches return bit-identical distances; it is
            # row-wise, so scoring candidates in chunks changes no bit.
            return _ragged_distances(
                query[np.newaxis, :],
                self._vectors(),
                candidates,
                np.array([len(candidates)], dtype=np.int64),
                self.metric,
            )
        return pairwise_distances(
            query[np.newaxis, :], self._vectors()[candidates], self.metric
        )[0]


class ADCEvaluator:
    """Asymmetric distance computation over fine PQ codes.

    Scores candidates from their compressed codes via the query's
    per-subspace distance tables — the memory-saving mode real VQ
    systems run in; returned distances are approximate.
    """

    def __init__(
        self, fine_quantizer: DistanceTableQuantizer, fine_codes: np.ndarray
    ) -> None:
        self._fine = fine_quantizer
        self._codes = fine_codes

    def evaluate(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if not len(candidates):
            return _EMPTY_IDS, _EMPTY_DISTS
        tables = self._fine.distance_tables(query)
        codes = self._codes[candidates]
        approx = np.zeros(len(candidates), dtype=np.float64)
        for subspace, table in enumerate(tables):
            approx += table[codes[:, subspace]]
        ids, scores = CandidatePipeline.top_k(candidates, approx, k)
        return ids, np.sqrt(np.maximum(scores, 0.0))


class CodeEvaluator:
    """Code-only re-ranking for deployments without raw vectors.

    ``asymmetric`` scores a candidate by the paper's quantization
    distance evaluated at its long code (a scaled lower bound on true
    distance, Theorem 2); ``symmetric`` uses Hamming distance between
    long codes.  The returned "distances" are estimator values.

    Both modes run as packed-block kernels over the int64 signatures
    (:mod:`repro.index.codes`): symmetric is one XOR +
    ``np.bitwise_count``, asymmetric builds the query's per-byte QD
    lookup tables once and scores every candidate with byte gathers —
    no per-candidate bit unpacking, so worker shards stay ufunc-bound.
    """

    def __init__(
        self,
        rerank_hasher: ProbeInfoHasher,
        long_signatures: np.ndarray,
        mode: str,
    ) -> None:
        if mode not in ("asymmetric", "symmetric"):
            raise ValueError("rerank must be 'asymmetric' or 'symmetric'")
        self._hasher = rerank_hasher
        self._signatures = long_signatures
        self.mode = mode

    def evaluate(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if not len(candidates):
            return _EMPTY_IDS, _EMPTY_DISTS
        long_sig, long_costs = self._hasher.probe_info(query)
        candidate_codes = self._signatures[candidates]
        if self.mode == "asymmetric":
            estimates = packed_qd_distances(
                candidate_codes, qd_cost_tables(long_sig, long_costs)
            )
        else:
            estimates = hamming_distance(
                candidate_codes, np.int64(long_sig)
            ).astype(np.float64)
        return CandidatePipeline.top_k(candidates, estimates, k)


_RAGGED_METRICS = ("euclidean", "cosine", "angular")


def _ragged_distances(
    queries: np.ndarray,
    data: np.ndarray,
    stacked_ids: np.ndarray,
    counts: np.ndarray,
    metric: str,
    row_block: int = 4096,
) -> np.ndarray:
    """Each query's distances to its own candidate segment, in one pass.

    ``stacked_ids`` is the row-stacked concatenation of every query's
    candidate ids into ``data`` and ``counts[i]`` the length of query
    ``i``'s segment.  A few einsum calls score the whole ragged block —
    no ``B × |union|`` distance matrix (which degenerates into a full
    linear scan when candidate sets barely overlap) and no per-query
    BLAS calls.  The euclidean path computes ``‖q − x‖`` from the
    difference vector directly, avoiding the catastrophic cancellation
    of the ``‖q‖² − 2q·x + ‖x‖²`` expansion, so self-distances come out
    exactly zero.

    The block is processed in cache-sized chunks of whole segments
    (~``row_block`` rows): one giant pass materialises several
    ``(total, d)`` temporaries, which on a memory-bound machine costs
    more than the arithmetic itself.  Chunking never splits a segment
    and every op is row-wise, so results are bit-identical whatever the
    chunk size — the per-query path reuses this function with a single
    segment and gets the exact same numbers.
    """
    if metric not in _RAGGED_METRICS:
        raise KeyError(f"unknown metric {metric!r}")
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    out = np.empty(int(bounds[-1]), dtype=np.float64)
    euclidean = metric == "euclidean"
    n_segments = len(counts)
    lo = 0
    while lo < n_segments:
        hi = lo + 1
        while hi < n_segments and bounds[hi + 1] - bounds[lo] <= row_block:
            hi += 1
        seg = slice(int(bounds[lo]), int(bounds[hi]))
        vectors = data[stacked_ids[seg]]
        if euclidean:
            # Broadcast-subtract each query over its own rows instead of
            # materialising a repeated-queries block: per row the
            # arithmetic is identical, but the big temporary (and its
            # memory traffic) disappears.
            for q in range(lo, hi):
                vectors[
                    int(bounds[q] - bounds[lo]):int(bounds[q + 1] - bounds[lo])
                ] -= queries[q]
            out[seg] = np.einsum("ij,ij->i", vectors, vectors)
        else:
            expanded = np.repeat(queries[lo:hi], counts[lo:hi], axis=0)
            query_norms = np.linalg.norm(expanded, axis=1)
            vector_norms = np.linalg.norm(vectors, axis=1)
            query_norms[query_norms == 0] = 1.0
            vector_norms[vector_norms == 0] = 1.0
            sims = np.einsum("ij,ij->i", expanded, vectors)
            sims /= query_norms * vector_norms
            out[seg] = sims
        lo = hi
    if euclidean:
        return np.sqrt(out, out=out)
    np.clip(out, -1.0, 1.0, out=out)
    if metric == "cosine":
        return np.subtract(1.0, out, out=out)
    return np.arccos(out, out=out)


def _probe_prefix(
    scores: np.ndarray,
    signatures: np.ndarray,
    sizes: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe orders, cumulative candidate counts and stop columns.

    Returns only the shortest column prefix that satisfies every
    query's candidate budget: sorting and cumulating all ``nb`` bucket
    columns is wasted work when the budget is met after a few dozen
    buckets, so this orders a prefix of ``W`` columns (growing ``W``
    until every row reaches the budget or runs out of buckets).
    """
    n_queries, n_buckets = scores.shape
    mean_size = max(float(sizes.mean()), 1.0) if len(sizes) else 1.0
    width = int(min(n_buckets, max(16, 4 * budget / mean_size + 1)))
    while True:
        if width >= n_buckets:
            order = _probe_order(scores, signatures)
        else:
            order = _probe_order_prefix(scores, signatures, width)
        cumulative = np.cumsum(sizes[order], axis=1)
        if width >= n_buckets or cumulative[:, -1].min() >= budget:
            stops = np.minimum(
                (cumulative < budget).sum(axis=1), order.shape[1] - 1
            )
            return order, cumulative, stops
        width = min(n_buckets, width * 4)


def _probe_order_prefix(
    scores: np.ndarray, signatures: np.ndarray, width: int
) -> np.ndarray:
    """First ``width`` columns of each row's ``(score, signature)`` order.

    An argpartition narrows each row to its ``width`` best buckets
    before the (much smaller) sort.  Integer scores use the same
    collision-free composite key as :func:`_probe_order`; float rows
    whose partition cut lands inside a run of tied scores — where
    argpartition admits an arbitrary subset of the tie — are re-derived
    from a full stable sort.
    """
    if scores.dtype.kind in "iu":
        span = int(signatures[-1]) + 1 if len(signatures) else 1
        magnitude = max(
            abs(int(scores.max(initial=0))), abs(int(scores.min(initial=0)))
        )
        if magnitude <= (np.iinfo(np.int64).max - span) // max(span, 1):
            keys = scores.astype(np.int64) * span + signatures
            part = np.argpartition(keys, width - 1, axis=-1)[:, :width]
            inner = np.argsort(
                np.take_along_axis(keys, part, axis=-1), axis=-1
            )
            return np.take_along_axis(part, inner, axis=-1)
        return np.argsort(scores, axis=-1, kind="stable")[:, :width]
    part = np.argpartition(scores, width - 1, axis=-1)[:, :width]
    part_scores = np.take_along_axis(scores, part, axis=-1)
    # Column index doubles as the signature rank, signatures ascending.
    inner = np.lexsort((part, part_scores), axis=-1)
    order = np.take_along_axis(part, inner, axis=-1)
    ranked = np.take_along_axis(part_scores, inner, axis=-1)
    boundary = ranked[:, -1][:, np.newaxis]
    tied_at_cut = np.nonzero(
        (scores == boundary).sum(axis=-1) != (ranked == boundary).sum(axis=-1)
    )[0]
    for row in tied_at_cut:
        order[row] = np.argsort(scores[row], kind="stable")[:width]
    return order


def _probe_order(scores: np.ndarray, signatures: np.ndarray) -> np.ndarray:
    """Per-row probe order: ascending ``(score, signature)``, vectorised.

    ``signatures`` arrive ascending, so a stable sort on score alone
    yields the probers' lexicographic tie-break.  Stable sorts are
    several times slower than quicksort here, so: integer scores get a
    collision-free composite ``score·span + signature`` key (unique →
    any sort kind agrees with the stable order); float scores get a
    quicksort plus a stable re-sort of only the rows that contain
    duplicate scores — rare for continuous quantization distances.
    """
    if scores.dtype.kind in "iu":
        span = int(signatures[-1]) + 1 if len(signatures) else 1
        magnitude = max(
            abs(int(scores.max(initial=0))), abs(int(scores.min(initial=0)))
        )
        if magnitude <= (np.iinfo(np.int64).max - span) // max(span, 1):
            keys = scores.astype(np.int64) * span + signatures
            return np.argsort(keys, axis=-1)
        return np.argsort(scores, axis=-1, kind="stable")
    order = np.argsort(scores, axis=-1)
    ranked = np.take_along_axis(scores, order, axis=-1)
    tied_rows = np.nonzero((np.diff(ranked, axis=-1) == 0.0).any(axis=-1))[0]
    for row in tied_rows:
        order[row] = np.argsort(scores[row], kind="stable")
    return order


def _block_top_k(
    all_candidates: np.ndarray,
    all_distances: np.ndarray,
    counts: np.ndarray,
    k: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:meth:`CandidatePipeline.top_k` over every segment at once.

    Pads the ragged block to a dense ``(B, max_count)`` matrix (∞
    distance / maximal id sentinels sort last) so one argpartition and
    one two-key lexsort rank the whole batch.
    """
    n_queries = len(counts)
    width = int(counts.max()) if n_queries else 0
    if width == 0:
        return [(_EMPTY_IDS, _EMPTY_DISTS)] * n_queries
    row_mask = np.arange(width)[np.newaxis, :] < counts[:, np.newaxis]
    dist_pad = np.full((n_queries, width), np.inf)
    dist_pad[row_mask] = all_distances
    ids_pad = np.full((n_queries, width), np.iinfo(np.int64).max, dtype=np.int64)
    ids_pad[row_mask] = all_candidates
    kth = min(k, width)
    if kth < width:
        part = np.argpartition(dist_pad, kth - 1, axis=1)[:, :kth]
        part_dists = np.take_along_axis(dist_pad, part, axis=1)
        part_ids = np.take_along_axis(ids_pad, part, axis=1)
    else:
        part_dists, part_ids = dist_pad, ids_pad
    suborder = np.lexsort((part_ids, part_dists), axis=1)
    part_dists = np.take_along_axis(part_dists, suborder, axis=1)
    part_ids = np.take_along_axis(part_ids, suborder, axis=1)
    return [
        (row_ids[:min(k, int(count))].copy(),
         row_dists[:min(k, int(count))].copy())
        for row_ids, row_dists, count in zip(part_ids, part_dists, counts)
    ]


def _resolve_eval_k(plan: QueryPlan) -> int:
    """``plan.evaluate_keep()`` as a concrete cut for the batch kernels.

    The batched top-k kernels take an integer, so "keep everything"
    (``None``) becomes a cut no candidate set can reach.
    """
    keep = plan.evaluate_keep()
    return int(np.iinfo(np.int64).max) if keep is None else keep


def _run_post_stages(
    post: list[Stage],
    query: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
    ctx: ExecutionContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the rerank/fuse/truncate tail to one batched result.

    The batch paths amortise retrieval and evaluation across the block,
    then run each query's remaining stages here — the stages are
    per-row independent, so batched and per-query execution stay
    bit-identical.
    """
    state = PipelineState(query=query, ids=ids, scores=scores)
    for stage in post:
        stage.execute(ctx, state)
    return state.ids, state.scores


def _post_seconds(ctx: ExecutionContext) -> float:
    """Wall time the post-evaluation stages added to one context."""
    return (
        ctx.stage_seconds.get("rerank", 0.0)
        + ctx.stage_seconds.get("fuse", 0.0)
        + ctx.stage_seconds.get("truncate", 0.0)
    )


# -- multi-table stream composition -----------------------------------


# -- multi-table stream composition -----------------------------------

def round_robin_stream(
    streams: list[Iterator[int]],
    tables: list,
    num_items: int,
) -> Iterator[np.ndarray]:
    """One bucket from each table's probe order in turn, deduplicated.

    The paper's multi-hash-table strategy (Section 6.3.5): strict
    alternation across tables; an item seen in an earlier table is
    suppressed when later tables yield it again.
    """
    seen = np.zeros(num_items, dtype=bool)
    active = list(zip(streams, tables))
    while active:
        still_active = []
        for stream, table in active:
            bucket = next(stream, None)
            if bucket is None:
                continue
            still_active.append((stream, table))
            ids = table.get(bucket)
            if len(ids):
                fresh = ids[~seen[ids]]
                if len(fresh):
                    seen[fresh] = True
                    yield fresh
        active = still_active


def qd_merged_scored_stream(
    scored_streams: list[Iterator[tuple[int, float]]],
    tables: list,
    num_items: int,
) -> Iterator[tuple[float, np.ndarray]]:
    """Heap-merge scored probe streams into one ascending-QD sequence.

    Yields ``(qd, fresh_ids)`` pairs globally sorted by quantization
    distance: each input stream is non-decreasing (Properties 1–2 /
    Theorem 2's ordering guarantee), so a k-way heap merge preserves the
    invariant across tables.  A bucket with small QD is a good bucket in
    *any* table, so the globally best bucket is probed next instead of
    strictly alternating tables.  Duplicates across tables are
    suppressed; empty buckets still advance the merge but yield nothing.
    """
    streams = [iter(s) for s in scored_streams]
    heap: list[tuple[float, int, int]] = []  # (qd, table_idx, bucket)
    for idx, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            bucket, qd = first
            heap.append((qd, idx, bucket))
    heapq.heapify(heap)
    seen = np.zeros(num_items, dtype=bool)
    while heap:
        qd, idx, bucket = heapq.heappop(heap)
        ids = tables[idx].get(bucket)
        if len(ids):
            fresh = ids[~seen[ids]]
            if len(fresh):
                seen[fresh] = True
                yield qd, fresh
        upcoming = next(streams[idx], None)
        if upcoming is not None:
            next_bucket, next_qd = upcoming
            heapq.heappush(heap, (next_qd, idx, next_bucket))


# -- the engine -------------------------------------------------------

class QueryEngine:
    """Execute :class:`QueryPlan` instances over candidate streams.

    One engine per index: it owns the evaluator (the evaluation stage's
    scoring rule) while each call supplies the plan and the retrieval
    stream, so all indexes share a single instrumented control flow.
    The engine turns each plan into its stage pipeline
    (:func:`~repro.search.stages.build_pipeline`) and runs the stages
    in order; optional stages resolve against engine-owned registries:

    * :attr:`rerankers` — rerank mode (``"exact"`` / ``"adc"``) →
      :class:`Evaluator`; index front-ends populate it from what they
      can score faithfully (raw vectors, fine PQ codes).
    * :attr:`fusion_partner` — the
      :class:`~repro.search.stages.FusionPartner` whose ranked lists
      fusion plans combine with; attach via the index's ``fuse_with``.

    ``name`` labels this engine's series in the metrics registry
    (``repro_queries_total{index="hash"}``, …) when telemetry is on.

    Serving-layer hook (optional, off by default): ``cache`` — a
    :class:`~repro.search.cache.QueryResultCache`; :meth:`execute`
    consults it before running a cacheable plan and stores the result
    after.  Keys include this engine's identity token and
    :attr:`generation`, which mutating indexes bump via
    :meth:`bump_generation` on every add/remove/append — entries from an
    older generation can never be returned again.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        name: str = "index",
        cache: QueryResultCache | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.name = name
        self.cache = cache
        self.generation = 0
        # Mutable indexes bump the generation from whatever thread runs
        # the mutation — including front-door worker threads syncing a
        # stream index mid-fusion — and `+=` is not atomic under the
        # GIL.  Reads (cache keys) stay lock-free: a torn read just
        # misses the cache.
        self._generation_lock = threading.Lock()
        self.rerankers: dict[str, Evaluator] = {}
        self.fusion_partner: FusionPartner | None = None
        self._cache_token = cache_token(name)

    def identity(self) -> tuple[object, ...]:
        """This engine's cache-relevant identity: ``(token, generation)``.

        The token is process-unique per engine instance and the
        generation advances on every index mutation, so folding this
        tuple into another engine's cache keys (fusion partners do)
        makes those keys unreachable whenever this engine's answers
        could have changed.
        """
        return (self._cache_token, self.generation)

    def reranker_for(self, spec: RerankSpec) -> Evaluator:
        """The evaluator registered for ``spec.mode``, or a clear error."""
        try:
            return self.rerankers[spec.mode]
        except KeyError:
            raise ValueError(
                f"engine {self.name!r} has no {spec.mode!r} reranker; "
                f"available modes: {sorted(self.rerankers)}"
            ) from None

    def _resolve_stages(
        self, plan: QueryPlan
    ) -> tuple[Evaluator | None, FusionPartner | None]:
        """Resolve the plan's optional stages against this engine.

        Called before any cache lookup so a plan naming an unavailable
        rerank mode or fusing without a partner fails loudly up front
        instead of deep inside execution (or worse, after a stale hit).
        """
        reranker = (
            self.reranker_for(plan.rerank) if plan.rerank is not None else None
        )
        partner: FusionPartner | None = None
        if plan.fusion is not None:
            partner = self.fusion_partner
            if partner is None:
                raise ValueError(
                    f"plan requests fusion but engine {self.name!r} has no "
                    "fusion partner attached"
                )
        return reranker, partner

    def bump_generation(self) -> None:
        """Invalidate every cached result produced by this engine.

        Called by mutable indexes after any change to the indexed items;
        the generation number participates in every cache key, so prior
        entries become unreachable (and age out of the LRU) rather than
        ever being served stale.
        """
        with self._generation_lock:
            self.generation += 1

    def execute(
        self,
        query: np.ndarray,
        plan: QueryPlan,
        stream: Iterable[np.ndarray],
        extras: dict | None = None,
    ) -> SearchResult:
        """Run ``plan``'s stage pipeline over ``stream`` — one query.

        Returns a :class:`~repro.search.results.SearchResult` whose
        ``extras["stats"]`` carries the :class:`ExecutionContext` and
        ``extras["spans"]`` the root :class:`~repro.obs.spans.Span` of
        the query→stages tree.  With a :attr:`cache` attached and a
        cacheable plan, a hit returns the stored result without
        touching the stream; keys incorporate the plan's full stage
        list and — for fusion plans — the partner's identity.
        """
        reranker, partner = self._resolve_stages(plan)
        cache = self.cache
        if cache is None or not QueryResultCache.cacheable(plan):
            return self._execute_uncached(
                query, plan, stream, extras, reranker, partner
            )
        partner_identity = (
            partner.fusion_identity() if partner is not None else ()
        )
        key = cache.key_for(
            self._cache_token, self.generation, plan, query, partner_identity
        )
        hit = cache.lookup(key)
        if hit is not None:
            return hit
        result = self._execute_uncached(
            query, plan, stream, extras, reranker, partner
        )
        cache.store(key, result)
        return result

    def _execute_uncached(
        self,
        query: np.ndarray,
        plan: QueryPlan,
        stream: Iterable[np.ndarray],
        extras: dict | None = None,
        reranker: Evaluator | None = None,
        partner: FusionPartner | None = None,
    ) -> SearchResult:
        ctx = ExecutionContext()
        sampled = obs.should_sample()
        if sampled:
            ctx.bucket_sizes = []
        pipeline = build_pipeline(
            plan, self.evaluator, reranker=reranker, partner=partner
        )
        state = PipelineState(query=query, stream=stream)
        with obs.span("query") as root:
            for stage in pipeline:
                stage.execute(ctx, state)
        ctx.retrieval_seconds = ctx.stage_seconds.get(
            "retrieve", 0.0
        ) + ctx.stage_seconds.get("dedup_budget", 0.0)
        ctx.evaluation_seconds = ctx.stage_seconds.get("evaluate", 0.0)
        ctx.total_seconds = root.duration
        obs.observe_query(self.name, ctx, root=root, sampled=sampled)
        all_extras = {"stats": ctx, "spans": root}
        if extras:
            all_extras.update(extras)
        return SearchResult(
            state.ids,
            state.scores,
            ctx.n_candidates,
            ctx.n_buckets_probed,
            all_extras,
        )

    def execute_batch_streams(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        streams: list[Iterable[np.ndarray]],
    ) -> list[SearchResult]:
        """Batched execution over per-query candidate streams.

        Retrieval stays per-query (each stream's probe order is exactly
        the per-query path's), but evaluation is amortised across the
        whole block via :meth:`evaluate_block`.  ``queries`` and
        ``streams`` must align one to one.
        """
        streams = list(streams)
        if len(queries) != len(streams):
            raise ValueError(
                f"queries and streams must align: got {len(queries)} "
                f"queries for {len(streams)} streams"
            )
        reranker, partner = self._resolve_stages(plan)
        contexts = [ExecutionContext() for _ in streams]
        per_query: list[np.ndarray] = []
        with obs.span("retrieve") as retrieve:
            for stream, ctx in zip(streams, contexts):
                per_query.append(CandidatePipeline.drain(stream, plan, ctx))
        for ctx in contexts:
            ctx.retrieval_seconds = retrieve.duration / max(len(contexts), 1)
        ranked = self.evaluate_block(
            queries, per_query, _resolve_eval_k(plan), contexts
        )
        return self._finish_batch(
            queries, plan, reranker, partner, contexts, ranked
        )

    def _finish_batch(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        reranker: Evaluator | None,
        partner: FusionPartner | None,
        contexts: list[ExecutionContext],
        ranked: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[SearchResult]:
        """Both batch paths' shared tail: post stages, then results.

        Runs the plan's rerank/fuse/truncate stages over each query's
        evaluated ``(ids, dists)``, closes out its context's timings and
        records the batch's telemetry.  Plain plans get no post stages —
        the batched hot path then runs with zero per-query stage
        overhead, which is what keeps it bit-identical to per-query
        execution.
        """
        post: list[Stage] = []
        if plan.rerank is not None:
            assert reranker is not None
            post.append(RerankStage(reranker, plan.rerank))
        if plan.fusion is not None:
            assert partner is not None
            post.append(FuseStage(partner, plan.fusion, plan))
        if post:
            post.append(TruncateStage(plan.k))
        results: list[SearchResult] = []
        for index, (ctx, (ids, dists)) in enumerate(zip(contexts, ranked)):
            if post:
                ids, dists = _run_post_stages(
                    post, queries[index], ids, dists, ctx
                )
            ctx.total_seconds = (
                ctx.retrieval_seconds
                + ctx.evaluation_seconds
                + _post_seconds(ctx)
            )
            results.append(
                SearchResult(
                    ids,
                    dists,
                    ctx.n_candidates,
                    ctx.n_buckets_probed,
                    {"stats": ctx},
                )
            )
        obs.observe_batch(self.name, contexts)
        return results

    def execute_batch_ordered(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        table: BucketTable,
        scores: np.ndarray,
        bucket_signatures: np.ndarray,
    ) -> list[SearchResult]:
        """Batched execution from a precomputed ``(B, nb)`` score matrix.

        The fast path behind ``search_batch``: every query's probe order
        is ascending ``(score, bucket signature)`` — the order the
        sorting probers (and, over occupied buckets, GQR) produce — so
        the whole batch's bucket orders come from one vectorised stable
        argsort and the candidate gather from one cumulative-sum drain,
        instead of B generator walks.
        """
        budget = plan.n_candidates
        if budget is None:
            raise ValueError("batched execution needs a candidate budget")
        reranker, partner = self._resolve_stages(plan)
        eval_k = _resolve_eval_k(plan)
        n_queries, n_buckets = scores.shape
        if n_buckets == 0:
            return [self.execute(query, plan, iter(())) for query in queries]
        with obs.span("retrieve") as retrieve:
            bucket_signatures = np.asarray(bucket_signatures, dtype=np.int64)
            if np.any(np.diff(bucket_signatures) < 0):
                resort = np.argsort(bucket_signatures, kind="stable")
                bucket_signatures = bucket_signatures[resort]
                scores = scores[:, resort]
            layout_fn = getattr(table, "dense_layout", None)
            layout = layout_fn() if layout_fn is not None else None
            if layout is not None and np.array_equal(
                layout[0], bucket_signatures
            ):
                _, sizes, bucket_offsets, ids_flat = layout
            else:
                bucket_ids = [
                    table.get(int(sig)) for sig in bucket_signatures
                ]
                sizes = np.fromiter(
                    (len(ids) for ids in bucket_ids),
                    dtype=np.int64,
                    count=n_buckets,
                )
                ids_flat = np.concatenate(bucket_ids)
                bucket_offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            order, cumulative, stops = _probe_prefix(
                scores, bucket_signatures, sizes, budget
            )
            # Ragged gather of every query's probed buckets in one shot.
            width = order.shape[1]
            col_mask = np.arange(width)[np.newaxis, :] <= stops[:, np.newaxis]
            flat_buckets = order[col_mask]
            lengths = sizes[flat_buckets]
            ends = np.cumsum(lengths)
            within = np.arange(int(ends[-1])) - np.repeat(
                ends - lengths, lengths
            )
            all_candidates = ids_flat[
                np.repeat(bucket_offsets[flat_buckets], lengths) + within
            ]
            counts = cumulative[np.arange(n_queries), stops]
            contexts = [
                ExecutionContext(
                    n_buckets_probed=int(stop) + 1, n_candidates=int(count)
                )
                for stop, count in zip(stops, counts)
            ]
        for ctx in contexts:
            ctx.retrieval_seconds = retrieve.duration / max(n_queries, 1)
        if (
            isinstance(self.evaluator, ExactEvaluator)
            and self.evaluator.metric in _RAGGED_METRICS
        ):
            with obs.span("evaluate") as evaluate:
                dists = _ragged_distances(
                    queries,
                    self.evaluator._vectors(),
                    all_candidates,
                    counts,
                    self.evaluator.metric,
                )
                ranked = _block_top_k(all_candidates, dists, counts, eval_k)
            for ctx in contexts:
                ctx.evaluation_seconds = evaluate.duration / max(n_queries, 1)
        else:
            per_query = np.split(all_candidates, np.cumsum(counts)[:-1])
            ranked = self.evaluate_block(queries, per_query, eval_k, contexts)
        return self._finish_batch(
            queries, plan, reranker, partner, contexts, ranked
        )

    def evaluate_block(
        self,
        queries: np.ndarray,
        per_query_candidates: list[np.ndarray],
        k: int,
        contexts: list[ExecutionContext],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Amortised evaluation of a whole candidate block.

        Stacks every query's candidate vectors into one ragged block and
        scores it with a single einsum (see :func:`_ragged_distances`)
        instead of one BLAS call per query, then applies the shared
        top-``k`` rule per segment.  Only defined for
        :class:`ExactEvaluator` over the built-in metrics; other
        evaluators fall back to per-query evaluation.
        """
        results: list[tuple[np.ndarray, np.ndarray]]
        with obs.span("evaluate") as evaluate:
            if not (
                isinstance(self.evaluator, ExactEvaluator)
                and self.evaluator.metric in _RAGGED_METRICS
            ):
                results = [
                    self.evaluator.evaluate(query, candidates, k)
                    for query, candidates in zip(
                        queries, per_query_candidates
                    )
                ]
            else:
                counts = np.fromiter(
                    (len(c) for c in per_query_candidates),
                    dtype=np.int64,
                    count=len(per_query_candidates),
                )
                results = []
                if counts.sum():
                    stacked = np.concatenate(per_query_candidates)
                    dists = _ragged_distances(
                        np.asarray(queries, dtype=np.float64),
                        self.evaluator._vectors(),
                        stacked,
                        counts,
                        self.evaluator.metric,
                    )
                    per_dists = np.split(dists, np.cumsum(counts)[:-1])
                    for candidates, row in zip(
                        per_query_candidates, per_dists
                    ):
                        if len(candidates):
                            results.append(
                                CandidatePipeline.top_k(candidates, row, k)
                            )
                        else:
                            results.append((_EMPTY_IDS, _EMPTY_DISTS))
                else:
                    results = [
                        (_EMPTY_IDS, _EMPTY_DISTS)
                    ] * len(per_query_candidates)
        for ctx in contexts:
            ctx.evaluation_seconds = evaluate.duration / max(len(contexts), 1)
        return results
