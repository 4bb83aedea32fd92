"""The query pipeline's dedup/budget loop.

The paper's two-step loop (retrieval gathers candidates, evaluation
ranks them by exact distance) runs as one pipeline::

    Retrieve → DedupBudget → Evaluate

The engine (:class:`~repro.search.engine.QueryEngine`) runs every step
itself, each under an :func:`repro.obs.span` named after it.  This
module holds :func:`drain_stream`, the dedup/budget loop over one
query's candidate stream.  Calling it from outside ``repro/search`` is a lint error
(reprolint RL011): the engine owns execution order, span naming and
stats accounting, and a step invoked on its own bypasses all three.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import ExecutionContext, QueryPlan

__all__ = ["drain_stream"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


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
