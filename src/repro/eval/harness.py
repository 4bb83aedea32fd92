"""Experiment harness: the curves and summary numbers the paper reports.

The paper's primary instrument is the *recall-time curve* (Section 2.3):
run the whole query batch at a sequence of candidate budgets ``N`` and
plot mean recall against total wall-clock time.  Derived quantities —
recall-items curves (Figure 8), time-to-recall tables (Figure 9),
speedups (Figure 11) — all come from the same sweep, so the harness
materialises one :class:`CurvePoint` list per (index, budget sweep) and
everything else is post-processing.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.eval.metrics import recall_from_candidates
from repro.search.results import SearchResult

__all__ = [
    "CurvePoint",
    "SearchableIndex",
    "StreamableIndex",
    "sweep_budgets",
    "timed_sweep",
    "recall_at_budgets",
    "time_to_recall",
    "speedup_at_recall",
]


class SearchableIndex(Protocol):
    """What the harness requires of an index: ``search`` and a size."""

    @property
    def num_items(self) -> int: ...

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult: ...


class StreamableIndex(Protocol):
    """Index exposing a raw candidate stream (recall-only sweeps)."""

    @property
    def num_items(self) -> int: ...

    def candidate_stream(self, query: np.ndarray) -> Iterator[np.ndarray]: ...


@dataclass(frozen=True)
class CurvePoint:
    """One point of a recall-time curve.

    Attributes
    ----------
    budget:
        Candidate budget ``N`` passed to ``search``.
    seconds:
        Total wall-clock time for the whole query batch at this budget.
    recall:
        Mean recall over the batch.
    items:
        Mean number of candidate items actually retrieved per query.
    buckets:
        Mean number of buckets probed per query.
    retrieval_seconds:
        Total engine-measured retrieval time across the batch, summed
        from each result's :class:`~repro.search.engine.ExecutionContext`
        (0.0 when the index does not attach stats).
    evaluation_seconds:
        Total engine-measured evaluation (re-rank) time across the
        batch; same source and convention as ``retrieval_seconds``.
    """

    budget: int
    seconds: float
    recall: float
    items: float
    buckets: float
    retrieval_seconds: float = 0.0
    evaluation_seconds: float = 0.0


def sweep_budgets(
    index: SearchableIndex,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    k: int,
    budgets: list[int],
) -> list[CurvePoint]:
    """Run the query batch once per budget and record (time, recall).

    ``index`` is any object with ``search(query, k, n_candidates)``
    returning a :class:`~repro.search.results.SearchResult` and a
    ``num_items`` property.  Timing covers the full search (hashing,
    retrieval and evaluation), matching the paper's methodology.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    truth = np.asarray(truth_ids)
    if len(truth) != len(queries):
        raise ValueError("need one truth row per query")

    curve: list[CurvePoint] = []
    for budget in budgets:
        start = time.perf_counter()
        results = [index.search(q, k, budget) for q in queries]
        elapsed = time.perf_counter() - start
        recalls = [
            recall_from_candidates(res.ids, truth_row)
            for res, truth_row in zip(results, truth)
        ]
        stats = [res.stats for res in results if res.stats is not None]
        curve.append(
            CurvePoint(
                budget=int(budget),
                seconds=elapsed,
                recall=float(np.mean(recalls)),
                items=float(np.mean([res.n_candidates for res in results])),
                buckets=float(np.mean([res.n_buckets_probed for res in results])),
                retrieval_seconds=float(
                    sum(s.retrieval_seconds for s in stats)
                ),
                evaluation_seconds=float(
                    sum(s.evaluation_seconds for s in stats)
                ),
            )
        )
    return curve


def timed_sweep(
    index: SearchableIndex,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    k: int,
    budgets: list[int],
    repeats: int = 3,
) -> list[CurvePoint]:
    """:func:`sweep_budgets` with per-point best-of-``repeats`` wall time.

    Recall is deterministic across repeats; timing on ~10 ms points is
    not, so exhibits that compare seconds keep each budget's fastest
    run, the standard way to de-noise micro-timings.  The kept point is
    that run's whole :class:`CurvePoint`, engine-measured retrieval and
    evaluation times included.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    runs = [
        sweep_budgets(index, queries, truth_ids, k, budgets)
        for _ in range(repeats)
    ]
    return [min(points, key=lambda p: p.seconds) for points in zip(*runs)]


def recall_at_budgets(
    index: StreamableIndex,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    budgets: list[int],
) -> list[float]:
    """Recall-only sweep (no timing) from a single probe trace per query.

    Cheaper than :func:`sweep_budgets` when wall-clock is irrelevant:
    each query's candidate stream is drained once up to ``max(budgets)``
    and recall is read off at every checkpoint.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    truth = np.asarray(truth_ids)
    checkpoints = sorted(set(int(b) for b in budgets))
    per_budget = np.zeros(len(checkpoints))
    for query, truth_row in zip(queries, truth):
        truth_set = set(int(t) for t in truth_row)
        found = 0
        total = 0
        checkpoint_index = 0
        stream = index.candidate_stream(query)
        for ids in stream:
            found += sum(1 for item in ids if int(item) in truth_set)
            total += len(ids)
            while (
                checkpoint_index < len(checkpoints)
                and total >= checkpoints[checkpoint_index]
            ):
                per_budget[checkpoint_index] += found / len(truth_set)
                checkpoint_index += 1
            if checkpoint_index == len(checkpoints):
                break
        # Budgets beyond the stream's total get the final recall.
        while checkpoint_index < len(checkpoints):
            per_budget[checkpoint_index] += found / len(truth_set)
            checkpoint_index += 1
    return [float(v / len(queries)) for v in per_budget]


def time_to_recall(curve: list[CurvePoint], target: float) -> float:
    """Seconds needed to reach ``target`` recall, linearly interpolated.

    Returns ``inf`` when the curve never reaches the target — the
    honest answer for a method that plateaus below it.
    """
    if not 0 < target <= 1:
        raise ValueError("target recall must be in (0, 1]")
    previous = None
    for point in curve:
        if point.recall >= target:
            if previous is None or point.recall == previous.recall:
                return point.seconds
            fraction = (target - previous.recall) / (point.recall - previous.recall)
            return previous.seconds + fraction * (point.seconds - previous.seconds)
        previous = point
    return float("inf")


def speedup_at_recall(
    baseline: list[CurvePoint], method: list[CurvePoint], target: float
) -> float:
    """How much faster ``method`` reaches ``target`` recall than ``baseline``."""
    baseline_time = time_to_recall(baseline, target)
    method_time = time_to_recall(method, target)
    if method_time == 0:
        return float("inf")
    return baseline_time / method_time
