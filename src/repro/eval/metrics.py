"""Accuracy metrics for ANN querying methods (Section 2.3).

* **recall** — fraction of the true k nearest neighbours returned.
* **precision** — fraction of *retrieved* items that are true neighbours
  (Figure 4a plots precision against recall to show the effect of code
  length).
* **recall@k** — :func:`recall_at_k` scores the top ``k`` of an
  *ordered* result list against a truth set.

Because every querying method re-ranks candidates by exact distance,
recall at a candidate budget equals the overlap between the candidate
set and the truth set — a fact the harness exploits to read a whole
recall curve off a single probe trace.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mean_recall",
    "mean_recall_at_k",
    "precision",
    "recall",
    "recall_at_k",
    "recall_from_candidates",
]


def recall(returned_ids: np.ndarray, truth_ids: np.ndarray) -> float:
    """``|returned ∩ truth| / |truth|`` for one query."""
    truth = np.asarray(truth_ids).ravel()
    if not len(truth):
        raise ValueError("truth set must be non-empty")
    returned = np.asarray(returned_ids).ravel()
    return len(np.intersect1d(returned, truth, assume_unique=False)) / len(truth)


def mean_recall(
    returned_per_query: list[np.ndarray], truth_ids: np.ndarray
) -> float:
    """Average recall over a query batch."""
    truth = np.asarray(truth_ids)
    if len(returned_per_query) != len(truth):
        raise ValueError("one returned set per query is required")
    total = sum(
        recall(returned, truth_row)
        for returned, truth_row in zip(returned_per_query, truth)
    )
    return total / len(truth)


def precision(
    returned_true_count: int | float, n_retrieved: int
) -> float:
    """True neighbours found divided by items retrieved (Figure 4a)."""
    if n_retrieved <= 0:
        return 0.0
    return returned_true_count / n_retrieved


def recall_from_candidates(
    candidate_ids: np.ndarray, truth_ids: np.ndarray
) -> float:
    """Recall after exact re-ranking of a candidate set.

    Any true neighbour present among the candidates survives exact
    re-ranking into the top-k (it beats every non-neighbour by
    definition), so recall equals the candidate/truth overlap.
    """
    return recall(candidate_ids, truth_ids)


def recall_at_k(
    returned_ids: np.ndarray, truth_ids: np.ndarray, k: int
) -> float:
    """``|top-k returned ∩ truth| / |truth|`` for one ordered result list."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    returned = np.asarray(returned_ids).ravel()[:k]
    return recall(returned, truth_ids)


def mean_recall_at_k(
    returned_per_query: list[np.ndarray], truth_ids: np.ndarray, k: int
) -> float:
    """Average :func:`recall_at_k` over a query batch."""
    truth = np.asarray(truth_ids)
    if len(returned_per_query) != len(truth):
        raise ValueError("one returned set per query is required")
    total = sum(
        recall_at_k(returned, truth_row, k)
        for returned, truth_row in zip(returned_per_query, truth)
    )
    return total / len(truth)
