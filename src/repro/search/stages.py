"""The query pipeline's plan vocabulary and its dedup/budget loop.

The paper's two-step loop (retrieval gathers candidates, evaluation
re-ranks them exactly) runs as one pipeline::

    Retrieve → DedupBudget → Evaluate → [Rerank] → Truncate

The engine (:class:`~repro.search.engine.QueryEngine`) runs every step
itself, each under an :func:`repro.obs.span` named after it.  This
module holds the two pieces it shares with its callers:

* :class:`RerankSpec` — the plan field that switches on the optional
  rerank step: the evaluation step's surviving pool is re-scored with a
  second, more faithful scorer, exact distances over raw vectors
  (``mode="exact"``) or PQ/OPQ asymmetric distance over fine codes
  (``mode="adc"``).  This is the "hashing is a candidate stage"
  architecture of the related-work revisit: a cheap estimator ranks the
  pool, an expensive scorer fixes the top.  Public API.
* :func:`drain_stream` — the dedup/budget loop over one query's
  candidate stream.  Calling it from outside ``repro/search`` is a lint
  error (reprolint RL011): the engine owns execution order, span naming
  and stats accounting, and a step invoked on its own bypasses all
  three.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import ExecutionContext, QueryPlan

__all__ = ["RerankSpec", "drain_stream"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


# -- plan vocabulary ---------------------------------------------------

@dataclass(frozen=True)
class RerankSpec:
    """Parameters of the plan's optional rerank step.

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
        if self.pool is not None and (
            not isinstance(self.pool, (int, np.integer))
            or isinstance(self.pool, bool)
            or self.pool < 1
        ):
            raise ValueError(
                f"rerank pool must be an integer >= 1, got {self.pool!r}"
            )


# -- the dedup/budget loop ---------------------------------------------

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
