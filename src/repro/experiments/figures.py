"""Library-level reproductions of the paper's tables and figures.

Each registered exhibit is an :class:`Exhibit`: ``compute(ctx)`` returns
the structured series the paper plots, and ``render(series)`` turns them
into report texts keyed by report name.  ``python -m repro reproduce``
prints the rendered texts; the benchmark suite (``benchmarks/``) saves
them under ``benchmarks/results/<report name>.txt`` and asserts the
paper's qualitative claims on the same series, so every exhibit is
computed in this module only.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.data import Dataset, DatasetSpec
from repro.eval.harness import (
    CurvePoint,
    recall_at_budgets,
    time_to_recall,
    timed_sweep,
)
from repro.eval.plotting import plot_recall_time
from repro.eval.reporting import format_curves, format_table
from repro.experiments.context import ExperimentContext, budget_sweep
from repro.hashing import PCAHashing
from repro.index.codes import hamming_distance
from repro.index.hash_table import HashTable
from repro.index.linear_scan import LinearScan
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.probing.ghr import hamming_ring_signatures
from repro.quantization.opq import OptimizedProductQuantizer
from repro.search.searcher import HashIndex, IMISearchIndex

__all__ = [
    "EXPERIMENTS",
    "MAIN_NAMES",
    "BucketCounts",
    "Exhibit",
    "TrainingCost",
    "build_opq_imi",
    "prober_curves",
    "table1",
    "table2",
    "fig02",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig13",
    "fig15",
    "fig17",
    "fig20",
]

MAIN_NAMES = ["CIFAR60K", "GIST1M", "TINY5M", "SIFT10M"]

#: Figure 17 and Table 2 swap SIFT10M for SIFT1M, as the paper does
#: (OPQ ran out of memory on SIFT10M there).
OPQ_NAMES = ["CIFAR60K", "GIST1M", "TINY5M", "SIFT1M"]

#: Figure 20 skips SIFT10M, as the paper does (KMH training ran out of
#: memory there).
KMH_NAMES = ["CIFAR60K", "GIST1M", "TINY5M"]

#: The typical recalls of Figures 9, 14 and 16.
TARGETS = [0.80, 0.85, 0.90, 0.95]

PROBERS = {
    "GQR": GQR,
    "GHR": GenerateHammingRanking,
    "HR": HammingRanking,
}

#: One method's recall-time curve per label.
Curves = dict[str, list[CurvePoint]]

#: Item budgets and each method's mean recall at them.
RecallAtItems = tuple[list[int], dict[str, list[float]]]


@dataclass(frozen=True)
class Exhibit:
    """One paper exhibit: its series and how they read as text.

    ``compute(ctx)`` returns the series; ``render(series)`` maps report
    names (the file names under ``benchmarks/results/``) to report texts.
    """

    description: str
    compute: Callable[[ExperimentContext], Any]
    render: Callable[[Any], dict[str, str]]


class BucketCounts(NamedTuple):
    """Figure 2's series at code length 20."""

    #: ``C(20, r)`` buckets at Hamming distance ``r``, for r = 0..20.
    theoretical: list[int]
    #: Occupied SIFT10M buckets per Hamming distance from one query.
    occupied: list[int]
    #: Signatures ``hamming_ring_signatures`` emits for r = 0..5.
    enumerated: int


class TrainingCost(NamedTuple):
    """Wall time and peak traced memory of one trainer."""

    seconds: float
    peak_mb: float


def prober_curves(
    ctx: ExperimentContext,
    dataset_name: str,
    algo: str = "itq",
    probers: dict | None = None,
    k: int | None = None,
) -> Curves:
    """Best-of-2 recall-time curves of several probers on one dataset."""
    k = ctx.k if k is None else k
    dataset, truth = ctx.workload(dataset_name, k)
    hasher = ctx.hasher(dataset_name, algo)
    budgets = budget_sweep(len(dataset.data))
    probers = PROBERS if probers is None else probers
    return {
        label: timed_sweep(
            HashIndex(hasher, dataset.data, prober=factory()),
            dataset.queries, truth, k, budgets, repeats=2,
        )
        for label, factory in probers.items()
    }


def _main_curves(
    ctx: ExperimentContext, algo: str, probers: dict | None = None
) -> dict[str, Curves]:
    return {
        name: prober_curves(ctx, name, algo, probers) for name in MAIN_NAMES
    }


def _time_table(curves: Curves) -> dict[float, dict[str, float]]:
    """Seconds each method needs to reach each of :data:`TARGETS`."""
    return {
        target: {
            label: time_to_recall(curve, target)
            for label, curve in curves.items()
        }
        for target in TARGETS
    }


def _sections(parts: dict[str, list[str]], caption: str = "") -> str:
    lines = []
    for name, texts in parts.items():
        lines.append(f"--- {name}{caption} ---")
        lines.extend(texts)
    return "\n".join(lines)


def _curve_report(results: dict[str, Curves], plot: bool = True) -> str:
    return _sections({
        name: ([plot_recall_time(curves)] if plot else [])
        + [format_curves(curves)]
        for name, curves in results.items()
    })


def _time_report(tables: dict[str, dict[float, dict[str, float]]]) -> str:
    return _sections({
        name: [format_table(
            ["recall", "HR", "GHR", "GQR"],
            [
                [f"{target:.0%}"]
                + [round(times[label], 4) for label in ("HR", "GHR", "GQR")]
                for target, times in table.items()
            ],
        )]
        for name, table in tables.items()
    })


def _recall_report(
    results: dict[str, RecallAtItems], caption: str = ""
) -> str:
    return _sections(
        {
            name: [format_table(
                ["# items"] + list(series),
                [
                    [b] + [round(recalls[i], 4) for recalls in series.values()]
                    for i, b in enumerate(budgets)
                ],
            )]
            for name, (budgets, series) in results.items()
        },
        caption,
    )


def _gqr_vs_ghr(
    ctx: ExperimentContext,
    names: list[str],
    algo: str,
    n_points: int,
    ghr_label: str = "GHR",
) -> dict[str, RecallAtItems]:
    """Recall at item budgets of GQR and GHR over one fitted hasher."""
    results = {}
    for name in names:
        dataset, truth = ctx.workload(name)
        hasher = ctx.hasher(name, algo)
        budgets = budget_sweep(len(dataset.data), n_points=n_points)
        results[name] = (budgets, {
            label: recall_at_budgets(
                HashIndex(hasher, dataset.data, prober=factory()),
                dataset.queries, truth, budgets,
            )
            for label, factory in (
                ("GQR", GQR), (ghr_label, GenerateHammingRanking)
            )
        })
    return results


def build_opq_imi(dataset: Dataset) -> IMISearchIndex:
    """OPQ sized so IMI cells hold ~EP items, matching the hash tables."""
    n_centroids = max(8, int(np.sqrt(len(dataset.data) / 10)) + 1)
    opq = OptimizedProductQuantizer(
        n_subspaces=2,
        n_centroids=n_centroids,
        n_iterations=4,
        kmeans_iterations=10,
        seed=0,
    ).fit(dataset.data)
    return IMISearchIndex(opq, dataset.data)


def _measure(fit: Callable[[], object]) -> TrainingCost:
    tracemalloc.start()
    start = time.perf_counter()
    fit()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return TrainingCost(elapsed, peak / 1e6)


def _table1_series(
    ctx: ExperimentContext,
) -> dict[str, tuple[DatasetSpec, float]]:
    """Each main dataset's spec and linear-search seconds."""
    results = {}
    for name in MAIN_NAMES:
        dataset, _ = ctx.workload(name)
        scan = LinearScan(dataset.data)
        start = time.perf_counter()
        scan.search(dataset.queries, ctx.k)
        results[name] = (dataset.spec, time.perf_counter() - start)
    return results


def _table1_render(
    results: dict[str, tuple[DatasetSpec, float]],
) -> dict[str, str]:
    rows = [
        [name, spec.paper_dims, f"{spec.paper_items:,}", spec.scaled_dims,
         f"{spec.scaled_items:,}", spec.code_length, f"{elapsed:.3f}s"]
        for name, (spec, elapsed) in results.items()
    ]
    return {"table1_datasets": format_table(
        ["Dataset", "paper dim", "paper items", "our dim", "our items",
         "m", "linear search"],
        rows,
    )}


def _fig02_series(ctx: ExperimentContext) -> BucketCounts:
    m = 20
    dataset, _ = ctx.workload("SIFT10M")
    hasher = ctx.hasher("SIFT10M", "itq")
    table = HashTable(hasher.encode(dataset.data))
    signature, _ = hasher.probe_info(dataset.queries[0])
    buckets = np.fromiter(table.signatures(), dtype=np.int64)
    dists = hamming_distance(buckets, np.int64(signature))
    occupied = np.bincount(dists, minlength=m + 1)
    return BucketCounts(
        theoretical=[math.comb(m, r) for r in range(m + 1)],
        occupied=[int(count) for count in occupied[: m + 1]],
        enumerated=sum(
            sum(1 for _ in hamming_ring_signatures(0, m, r)) for r in range(6)
        ),
    )


def _fig02_render(counts: BucketCounts) -> dict[str, str]:
    rows = [
        [r, count, counts.occupied[r]]
        for r, count in enumerate(counts.theoretical)
    ]
    return {"fig02_bucket_counts": format_table(
        ["hamming r", "C(20, r) buckets", "occupied (SIFT10M)"], rows
    )}


def _fig07_render(results: dict[str, Curves]) -> dict[str, str]:
    summary = [
        [name] + [
            round(time_to_recall(curves[label], 0.8), 4)
            for label in ("HR", "GHR", "GQR")
        ]
        for name, curves in results.items()
    ]
    return {
        "fig07_gqr_vs_hr_itq": _curve_report(results),
        "fig07_summary_time_to_80": format_table(
            ["dataset", "HR@80%", "GHR@80%", "GQR@80%"], summary
        ),
    }


def _dominance_render(figure: str, table: str, algo: str):
    """Figures 13/15's curves and Figures 14/16's time-at-recall tables."""

    def render(results: dict[str, Curves]) -> dict[str, str]:
        return {
            f"{figure}_gqr_vs_hr_{algo}": _curve_report(results),
            f"{table}_time_at_recall_{algo}": _time_report(
                {name: _time_table(curves) for name, curves in results.items()}
            ),
        }

    return render


def _fig17_series(ctx: ExperimentContext) -> dict[str, RecallAtItems]:
    results = {}
    for name, (budgets, series) in _gqr_vs_ghr(
        ctx, OPQ_NAMES, "pcah", n_points=5
    ).items():
        dataset, truth = ctx.workload(name)
        results[name] = (budgets, {
            "PCAH+GQR": series["GQR"],
            "PCAH+GHR": series["GHR"],
            "OPQ+IMI": recall_at_budgets(
                build_opq_imi(dataset), dataset.queries, truth, budgets
            ),
        })
    return results


def _table2_series(
    ctx: ExperimentContext,
) -> dict[str, dict[str, TrainingCost]]:
    """OPQ (with its IMI build) and PCAH training cost per dataset."""
    results = {}
    for name in OPQ_NAMES:
        dataset, _ = ctx.workload(name)
        results[name] = {
            "OPQ": _measure(lambda ds=dataset: build_opq_imi(ds)),
            "PCAH": _measure(
                lambda ds=dataset: PCAHashing(ds.code_length).fit(ds.data)
            ),
        }
    return results


def _table2_render(
    results: dict[str, dict[str, TrainingCost]],
) -> dict[str, str]:
    rows = [
        [name, round(cost["OPQ"].seconds, 3), round(cost["PCAH"].seconds, 3),
         round(cost["OPQ"].peak_mb, 1), round(cost["PCAH"].peak_mb, 1),
         round(cost["OPQ"].seconds / cost["PCAH"].seconds, 1)]
        for name, cost in results.items()
    ]
    return {"table2_training_cost": format_table(
        ["Dataset", "OPQ wall (s)", "PCAH wall (s)", "OPQ peak MB",
         "PCAH peak MB", "OPQ/PCAH time"],
        rows,
    )}


table1 = Exhibit(
    "dataset statistics + linear-search time", _table1_series, _table1_render
)
fig02 = Exhibit("buckets per Hamming ring", _fig02_series, _fig02_render)
fig06 = Exhibit(
    "GQR vs QR (slow start)",
    lambda ctx: _main_curves(ctx, "itq", {"GQR": GQR, "QR": QDRanking}),
    lambda results: {"fig06_qr_vs_gqr": _curve_report(results, plot=False)},
)
fig07 = Exhibit(
    "GQR vs GHR/HR, ITQ", lambda ctx: _main_curves(ctx, "itq"), _fig07_render
)
fig08 = Exhibit(
    "recall vs retrieved items",
    lambda ctx: _gqr_vs_ghr(ctx, MAIN_NAMES, "itq", 8, ghr_label="GHR & HR"),
    lambda results: {"fig08_recall_items": _recall_report(results)},
)
fig09 = Exhibit(
    "time at typical recalls",
    lambda ctx: {
        name: _time_table(curves)
        for name, curves in _main_curves(ctx, "itq").items()
    },
    lambda tables: {"fig09_time_at_recall": _time_report(tables)},
)
fig13 = Exhibit(
    "GQR vs GHR/HR, PCAH (Figs. 13-14)",
    lambda ctx: _main_curves(ctx, "pcah"),
    _dominance_render("fig13", "fig14", "pcah"),
)
fig15 = Exhibit(
    "GQR vs GHR/HR, SH (Figs. 15-16)",
    lambda ctx: _main_curves(ctx, "sh"),
    _dominance_render("fig15", "fig16", "sh"),
)
fig17 = Exhibit(
    "PCAH+GQR vs OPQ+IMI",
    _fig17_series,
    lambda results: {"fig17_opq_imi": _recall_report(
        results, " (recall at item budget)"
    )},
)
table2 = Exhibit(
    "training cost, OPQ vs PCAH", _table2_series, _table2_render
)
fig20 = Exhibit(
    "GQR vs GHR on KMH",
    lambda ctx: _gqr_vs_ghr(ctx, KMH_NAMES, "kmh", 5),
    lambda results: {"fig20_kmh": _recall_report(
        results, " (recall at item budget, KMH)"
    )},
)

#: Experiment registry: id -> exhibit.
EXPERIMENTS = {
    "table1": table1,
    "fig02": fig02,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig13": fig13,
    "fig15": fig15,
    "fig17": fig17,
    "table2": table2,
    "fig20": fig20,
}
