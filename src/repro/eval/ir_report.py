"""IR-metric comparison of query pipelines (candidate-only vs rerank).

The stage pipeline makes "same retrieval, different post-processing"
a first-class experiment: the same candidate pool can be returned as-is
or reranked by exact or ADC distances.  Plain recall cannot separate
those variants when they return the same *set* of ids, so this report
scores the ordered lists with the rank-aware metrics (MRR@k, Recall@k,
NDCG@k from :mod:`repro.eval.metrics`) and renders them side by side.

Usage::

    report = ir_report(
        {"candidate-only": plain_results, "reranked": rr_results},
        truth_ids,
        k=10,
    )
    print(format_ir_report(report))

where each pipeline maps to one ordered id array per query.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import mean_mrr_at_k, mean_ndcg_at_k, mean_recall_at_k
from repro.eval.reporting import format_table

__all__ = ["format_ir_report", "ir_report"]


def ir_report(
    returned_per_pipeline: dict[str, list[np.ndarray]],
    truth_ids: np.ndarray,
    k: int = 10,
) -> dict[str, dict[str, float]]:
    """Score each pipeline's ordered results against the truth sets.

    Parameters
    ----------
    returned_per_pipeline:
        Pipeline name to per-query ordered id arrays.  Every pipeline
        must cover the same queries (one returned array per truth row).
    truth_ids:
        ``(n_queries, k_truth)`` exact-neighbour ids.
    k:
        Cutoff for all three metrics.

    Returns
    -------
    ``{name: {"mrr@k": ..., "recall@k": ..., "ndcg@k": ...}}`` with the
    literal ``k`` substituted (``"mrr@10"`` for ``k=10``).
    """
    if not returned_per_pipeline:
        raise ValueError("at least one pipeline is required")
    report: dict[str, dict[str, float]] = {}
    for name, returned in returned_per_pipeline.items():
        report[name] = {
            f"mrr@{k}": mean_mrr_at_k(returned, truth_ids, k),
            f"recall@{k}": mean_recall_at_k(returned, truth_ids, k),
            f"ndcg@{k}": mean_ndcg_at_k(returned, truth_ids, k),
        }
    return report


def format_ir_report(report: dict[str, dict[str, float]]) -> str:
    """Render an :func:`ir_report` result as a monospace table."""
    if not report:
        raise ValueError("report must be non-empty")
    first = next(iter(report.values()))
    metric_names = list(first)
    headers = ["pipeline", *metric_names]
    rows = [
        [name, *(round(metrics[metric], 4) for metric in metric_names)]
        for name, metrics in report.items()
    ]
    return format_table(headers, rows)
