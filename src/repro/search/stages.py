"""Composable query-pipeline stages: the engine's execution vocabulary.

The paper's two-step loop (retrieval gathers candidates, evaluation
re-ranks them exactly) generalises to a typed **stage pipeline**::

    Retrieve → DedupBudget → Evaluate → Rerank → Fuse → Truncate

The engine (:class:`~repro.search.engine.QueryEngine`) runs the
always-on prefix — retrieval, the :func:`drain_stream` dedup/budget
loop and evaluation — itself, over a whole ragged batch at once.  The
per-row tail is made of small stage classes with a uniform
``run(ctx, state)`` contract: each reads and mutates one
:class:`PipelineState` and records whatever it learned into the query's
``ExecutionContext``.  ``Stage.execute`` wraps ``run`` in an
:func:`repro.obs.span` named after the stage and stores the measured
wall time under ``ctx.stage_seconds[name]`` — so every stage is
individually visible in sampled traces and the
``repro_query_stage_seconds`` histogram without writing any
instrumentation of its own.

The two optional production stages open the hybrid-retrieval scenario:

* :class:`RerankStage` — re-scores the evaluation stage's surviving
  pool with a second, more faithful scorer: exact distances over raw
  vectors (``mode="exact"``) or PQ/OPQ asymmetric distance over fine
  codes (``mode="adc"``).  This is the "hashing is a candidate stage"
  architecture of the related-work revisit: a cheap estimator ranks the
  pool, an expensive scorer fixes the top.
* :class:`FuseStage` — linear score fusion of this engine's ranked list
  with a second engine's (two hashers, or hash + filtered linear scan):
  min-max normalise both score lists, take the weighted sum, rank
  ascending.  Candidates missing from one list get that list's worst
  normalised score (1.0).

Stages are assembled **only** by the engine from a ``QueryPlan`` —
constructing or calling them from outside ``repro/search`` is a lint
error (reprolint RL011): the engine owns execution order, span naming
and stats accounting, and a stage invoked on its own bypasses all
three.  The plan-vocabulary dataclasses (:class:`RerankSpec`,
:class:`FusionSpec`) and the fusion adapters are public API and freely
importable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import (
        Evaluator,
        ExecutionContext,
        QueryEngine,
        QueryPlan,
    )
    from repro.search.results import SearchResult

__all__ = [
    "FusableIndex",
    "FuseStage",
    "FusionPartner",
    "FusionSpec",
    "IndexFusionPartner",
    "PipelineState",
    "RerankSpec",
    "RerankStage",
    "Stage",
    "TruncateStage",
    "drain_stream",
    "linear_fusion",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)


# -- plan vocabulary ---------------------------------------------------

@dataclass(frozen=True)
class RerankSpec:
    """Parameters of the optional :class:`RerankStage`.

    Attributes
    ----------
    mode:
        ``"exact"`` (raw-vector distances) or ``"adc"`` (PQ/OPQ
        asymmetric distance over fine codes).  Which modes are
        available depends on the index — every raw-vector index offers
        ``"exact"``; indexes built with a fine quantizer also offer
        ``"adc"``.
    pool:
        How many evaluation survivors feed the re-ranker.  ``None``
        (default) re-scores the *entire* candidate set; an integer
        keeps the evaluation stage's best ``pool`` items — the matched-
        budget setting the IR report compares at.
    """

    mode: str = "exact"
    pool: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "adc"):
            raise ValueError(
                f"rerank mode must be 'exact' or 'adc', got {self.mode!r}"
            )
        if self.pool is not None and self.pool < 1:
            raise ValueError(f"rerank pool must be positive, got {self.pool}")


@dataclass(frozen=True)
class FusionSpec:
    """Parameters of the optional :class:`FuseStage`.

    Attributes
    ----------
    weight:
        Weight of the *primary* engine's normalised scores in the
        linear combination; the partner contributes ``1 - weight``.
    pool:
        Ranked-list depth requested from the fusion partner (and, when
        no rerank precedes fusion, kept from the primary evaluation).
        ``None`` defaults to the plan's ``k``.
    """

    weight: float = 0.5
    pool: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(
                f"fusion weight must be in [0, 1], got {self.weight}"
            )
        if self.pool is not None and self.pool < 1:
            raise ValueError(f"fusion pool must be positive, got {self.pool}")


class FusionPartner(Protocol):
    """What :class:`FuseStage` needs from the secondary engine."""

    def fusion_pool(
        self, query: np.ndarray, plan: QueryPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """The partner's ranked ``(ids, scores)`` pool for ``query``."""
        ...

    def fusion_identity(self) -> tuple[object, ...]:
        """Hashable identity folded into the primary engine's cache keys.

        Must change whenever the partner's answers could change (its
        engine token and generation at minimum), so fused results can
        never be served stale from the primary cache.
        """
        ...


class FusableIndex(Protocol):
    """The index surface :class:`IndexFusionPartner` adapts."""

    @property
    def engine(self) -> QueryEngine: ...

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult: ...


class IndexFusionPartner:
    """Adapt any engine-backed index as a :class:`FusionPartner`.

    Works with every front-end in :mod:`repro.search` (they all expose
    ``search(query, k, n_candidates)`` and an ``engine`` property).
    The partner runs its own full pipeline per fused query — through
    its own cache, if one is attached.

    Parameters
    ----------
    index:
        The secondary index whose ranked list is fused in.
    n_candidates:
        Candidate budget for the partner's searches; defaults to the
        primary plan's budget (matched-budget fusion).
    """

    def __init__(
        self, index: FusableIndex, n_candidates: int | None = None
    ) -> None:
        if n_candidates is not None and n_candidates < 1:
            raise ValueError(
                f"n_candidates must be positive, got {n_candidates}"
            )
        self._index = index
        self._n_candidates = n_candidates

    def fusion_pool(
        self, query: np.ndarray, plan: QueryPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        pool = plan.k
        if plan.fusion is not None and plan.fusion.pool is not None:
            pool = plan.fusion.pool
        budget = self._n_candidates
        if budget is None:
            budget = (
                plan.n_candidates if plan.n_candidates is not None else pool
            )
        result = self._index.search(query, pool, budget)
        return (
            np.asarray(result.ids, dtype=np.int64),
            np.asarray(result.distances, dtype=np.float64),
        )

    def fusion_identity(self) -> tuple[object, ...]:
        return ("index", *self._index.engine.identity(), self._n_candidates)


# -- pipeline state and the stage contract -----------------------------

@dataclass
class PipelineState:
    """One query's ranked ``(ids, scores)``, refined stage by stage.

    The engine seeds it with the evaluation stage's output; each
    later stage replaces the pair.
    """

    query: np.ndarray
    ids: np.ndarray
    scores: np.ndarray


class Stage:
    """Base class of every pipeline stage.

    Subclasses set ``name`` (the span / stats label) and implement
    :meth:`run`.  :meth:`execute` is the engine's entry point: it wraps
    ``run`` in an obs span and records the measured duration into
    ``ctx.stage_seconds`` — a stage never times itself.
    """

    name: str = "stage"

    def run(self, ctx: ExecutionContext, state: PipelineState) -> None:
        """Advance ``state``; record stage facts into ``ctx``."""
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext, state: PipelineState) -> None:
        """Run the stage under its span and account its wall time."""
        with obs.span(self.name) as span:
            self.run(ctx, state)
        ctx.stage_seconds[self.name] = span.duration


def drain_stream(
    stream: Iterable[np.ndarray],
    plan: QueryPlan,
    ctx: ExecutionContext,
) -> np.ndarray:
    """Collect candidate ids until a stopping criterion fires.

    Mirrors the retrieval loop of Algorithms 1 and 2: each yielded
    array is one probed non-empty bucket; the final bucket is taken
    whole, so slightly more than ``n_candidates`` ids may return.

    Candidates are deduplicated across (and within) buckets: an id the
    stream already yielded is dropped, so ``ctx.n_candidates`` counts
    each retrieved item exactly once — the evaluation cost actually
    paid — and the candidate budget is spent on *distinct* items.
    Dedup and budget accounting are interleaved by design (a duplicate
    must not consume budget), which is why they share one stage instead
    of two.
    """
    deadline = (
        None if plan.time_budget is None else obs.now() + plan.time_budget
    )
    found: list[np.ndarray] = []
    sampled_sizes = ctx.bucket_sizes
    seen: set[int] = set()
    total = 0
    buckets = 0
    for ids in stream:
        buckets += 1
        if len(ids):
            fresh = [
                i for i in dict.fromkeys(ids.tolist()) if i not in seen
            ]
            if len(fresh) != len(ids):
                ids = np.asarray(fresh, dtype=np.int64)
            seen.update(fresh)
        found.append(ids)
        total += len(ids)
        if sampled_sizes is not None:
            sampled_sizes.append(len(ids))
        if plan.n_candidates is not None and total >= plan.n_candidates:
            break
        if plan.max_buckets is not None and buckets >= plan.max_buckets:
            break
        if deadline is not None and obs.now() >= deadline:
            break
    ctx.n_buckets_probed = buckets
    ctx.n_candidates = total
    if not found:
        return _EMPTY_IDS
    return np.concatenate(found)


# -- the stages --------------------------------------------------------

class RerankStage(Stage):
    """Re-score the surviving pool with a second, more faithful scorer.

    The re-ranker is any :class:`~repro.search.engine.Evaluator` —
    exact distances or ADC — resolved by the engine from the plan's
    :class:`RerankSpec`.  The whole pool is re-ranked (selection to
    ``k`` is :class:`TruncateStage`'s job, so a following
    :class:`FuseStage` still sees the full re-scored pool); ties break
    by id under the engine's shared top-k rule, because the re-ranker
    *is* an evaluator.
    """

    name = "rerank"

    def __init__(self, reranker: Evaluator, spec: RerankSpec) -> None:
        self._reranker = reranker
        self._spec = spec

    def run(self, ctx: ExecutionContext, state: PipelineState) -> None:
        pool_ids = state.ids
        ctx.stage_stats[self.name] = {
            "mode": self._spec.mode,
            "pool": int(len(pool_ids)),
        }
        state.ids, state.scores = self._reranker.evaluate(
            state.query, pool_ids, len(pool_ids)
        )


class FuseStage(Stage):
    """Linear score fusion with a second engine's ranked list.

    Fetches the partner's pool (its own full pipeline, possibly
    cached), then combines both lists with :func:`linear_fusion`.  The
    resulting ``scores`` are fused rank scores in ``[0, 1]``, not
    distances.
    """

    name = "fuse"

    def __init__(
        self, partner: FusionPartner, spec: FusionSpec, plan: QueryPlan
    ) -> None:
        self._partner = partner
        self._spec = spec
        self._plan = plan

    def run(self, ctx: ExecutionContext, state: PipelineState) -> None:
        other_ids, other_scores = self._partner.fusion_pool(
            state.query, self._plan
        )
        ctx.stage_stats[self.name] = {
            "weight": self._spec.weight,
            "primary": int(len(state.ids)),
            "partner": int(len(other_ids)),
        }
        state.ids, state.scores = linear_fusion(
            state.ids, state.scores, other_ids, other_scores,
            self._spec.weight,
        )


class TruncateStage(Stage):
    """Cut the ranked list to the plan's ``k`` (a no-op when already ≤ k)."""

    name = "truncate"

    def __init__(self, k: int) -> None:
        self._k = k

    def run(self, ctx: ExecutionContext, state: PipelineState) -> None:
        if len(state.ids) > self._k:
            state.ids = state.ids[: self._k]
            state.scores = state.scores[: self._k]


# -- fusion arithmetic -------------------------------------------------

def linear_fusion(
    ids_a: np.ndarray,
    scores_a: np.ndarray,
    ids_b: np.ndarray,
    scores_b: np.ndarray,
    weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted min-max score fusion of two ranked lists, deterministic.

    Each list's scores are min-max normalised to ``[0, 1]`` (a constant
    list normalises to all zeros); a candidate missing from one list
    receives that list's *worst* normalised score (1.0).  The fused
    score is ``weight·norm_a + (1-weight)·norm_b``, ranked ascending
    with ties broken by id — the engine's shared tie rule.
    """
    ids_a = np.asarray(ids_a, dtype=np.int64)
    ids_b = np.asarray(ids_b, dtype=np.int64)
    if not len(ids_a) and not len(ids_b):
        return _EMPTY_IDS, _EMPTY_SCORES
    union = np.union1d(ids_a, ids_b)
    norm_a = np.ones(len(union), dtype=np.float64)
    norm_b = np.ones(len(union), dtype=np.float64)
    if len(ids_a):
        norm_a[np.searchsorted(union, ids_a)] = _minmax(scores_a)
    if len(ids_b):
        norm_b[np.searchsorted(union, ids_b)] = _minmax(scores_b)
    fused = weight * norm_a + (1.0 - weight) * norm_b
    order = np.lexsort((union, fused))
    return union[order], fused[order]


def _minmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        return _EMPTY_SCORES
    low = float(scores.min())
    span = float(scores.max()) - low
    if span <= 0.0:
        return np.zeros(len(scores), dtype=np.float64)
    return (scores - low) / span
