"""Figure 4: Hamming ranking behaviour versus code length.

Paper (CIFAR-10, HR-16/32/64): (a) precision at a given recall improves
with code length — longer codes distinguish buckets better; (b) the
recall-*time* curve worsens with code length — retrieval cost grows.
We sweep HR with three code lengths on the CIFAR60K stand-in and print
both series.
"""

from repro.eval.harness import sweep_budgets
from repro.eval.metrics import precision
from repro.eval.reporting import format_table
from repro.experiments import budget_sweep
from repro.probing import HammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, K, save_report

CODE_LENGTHS = [12, 24, 48]  # the paper doubles 16/32/64; 48 < our 63-bit cap


def test_fig04_hr_code_length(benchmark):
    dataset, truth = CONTEXT.workload("CIFAR60K")
    budgets = budget_sweep(len(dataset.data), top_fraction=0.5)

    curves = {}

    def run_all():
        for m in CODE_LENGTHS:
            hasher = CONTEXT.hasher("CIFAR60K", "itq", code_length=m)
            index = HashIndex(hasher, dataset.data, prober=HammingRanking())
            curves[m] = sweep_budgets(
                index, dataset.queries, truth, K, budgets
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # (a) recall-precision pairs: precision = k·recall / items retrieved.
    rows_a = []
    for m, curve in curves.items():
        for p in curve:
            rows_a.append(
                [f"HR-{m}", round(p.recall, 3),
                 round(precision(p.recall * K, p.items), 4)]
            )
    # (b) recall-time pairs.
    rows_b = [
        [f"HR-{m}", round(p.recall, 3), round(p.seconds, 4)]
        for m, curve in curves.items()
        for p in curve
    ]
    save_report(
        "fig04_hr_code_length",
        "Figure 4a (recall, precision):\n"
        + format_table(["method", "recall", "precision"], rows_a)
        + "\n\nFigure 4b (recall, seconds):\n"
        + format_table(["method", "recall", "seconds"], rows_b),
    )

    # Claim (a): at matched mid-range recall, precision grows with m.
    def precision_at(curve, target):
        for p in curve:
            if p.recall >= target:
                return precision(p.recall * K, p.items)
        return 0.0

    target = min(max(c[-1].recall for c in curves.values()) - 0.05, 0.85)
    p_short = precision_at(curves[CODE_LENGTHS[0]], target)
    p_long = precision_at(curves[CODE_LENGTHS[-1]], target)
    assert p_long >= p_short
