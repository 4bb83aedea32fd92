"""Evaluation: metrics, recall-time harness, plain-text reporting."""

from repro.eval.harness import (
    CurvePoint,
    recall_at_budgets,
    speedup_at_recall,
    sweep_budgets,
    time_to_recall,
    timed_sweep,
)
from repro.eval.latency import LatencySummary, latency_summary, measure_latencies
from repro.eval.metrics import (
    mean_recall,
    mean_recall_at_k,
    precision,
    recall,
    recall_at_k,
    recall_from_candidates,
)
from repro.eval.plotting import ascii_plot, plot_recall_time
from repro.eval.reporting import format_curve_points, format_curves, format_table
from repro.eval.trace import ProbeStep, ProbeTrace, trace_query

__all__ = [
    "CurvePoint",
    "LatencySummary",
    "ProbeStep",
    "ProbeTrace",
    "ascii_plot",
    "format_curve_points",
    "format_curves",
    "format_table",
    "latency_summary",
    "mean_recall",
    "mean_recall_at_k",
    "measure_latencies",
    "plot_recall_time",
    "precision",
    "recall",
    "recall_at_budgets",
    "recall_at_k",
    "recall_from_candidates",
    "speedup_at_recall",
    "sweep_budgets",
    "time_to_recall",
    "timed_sweep",
    "trace_query",
]
