"""Shared machinery for the per-figure/table benchmarks.

Every file in this directory regenerates one table or figure from the
paper.  Conventions:

* heavy artefacts (datasets, ground truth, fitted hashers) come from the
  module-level :data:`CONTEXT`, so figures sharing a dataset do not refit;
* the paper's registered exhibits are computed by
  :mod:`repro.experiments` alone: :func:`run_exhibit` times an exhibit's
  ``compute`` once and saves its rendered reports, and the bench asserts
  the paper's claim on the returned series;
* each benchmark times its core computation exactly once via
  ``benchmark.pedantic(..., rounds=1, iterations=1)`` — the numbers of
  interest are the *within-figure comparisons*, not re-run statistics;
* each benchmark writes the series the paper plots to
  ``benchmarks/results/<name>.txt`` (and stdout) via :func:`save_report`.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.eval.harness import CurvePoint
from repro.experiments import EXPERIMENTS, ExperimentContext

RESULTS_DIR = Path(__file__).parent / "results"

#: Default number of target neighbours, as in the paper.
K = 20

#: Global scale knob for quick runs (REPRO_BENCH_SCALE=0.2 etc.).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Datasets, ground truth and fitted hashers for every bench in a session.
CONTEXT = ExperimentContext(scale=SCALE, k=K)


def run_exhibit(benchmark, name: str):
    """Compute a registered exhibit once, save its reports, return its series."""
    exhibit = EXPERIMENTS[name]
    series = benchmark.pedantic(
        exhibit.compute, args=(CONTEXT,), rounds=1, iterations=1
    )
    for report, text in exhibit.render(series).items():
        save_report(report, text)
    return series


def save_report(name: str, text: str) -> None:
    """Write a figure/table report file and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def curves_recall_at_items(
    curves: dict[str, list[CurvePoint]], items: float
) -> dict[str, float]:
    """Interpolated recall of each method at a fixed #retrieved items."""
    out = {}
    for method, curve in curves.items():
        xs = [p.items for p in curve]
        ys = [p.recall for p in curve]
        out[method] = float(np.interp(items, xs, ys))
    return out
