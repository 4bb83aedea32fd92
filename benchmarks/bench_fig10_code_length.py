"""Figure 10: effect of code length (time to reach 90% recall).

Paper (TINY5M, SIFT10M): all methods trade retrieval cost against
evaluation cost as m grows — performance improves, then degrades — and
even at GHR/HR's *optimal* code length, GQR still wins.  We sweep m
around each stand-in's default and print time-to-90% per method.
"""

from repro.core.gqr import GQR
from repro.eval.harness import time_to_recall, timed_sweep
from repro.eval.reporting import format_table
from repro.experiments import budget_sweep
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, K, save_report

DATASETS = ["TINY5M", "SIFT10M"]
TARGET = 0.90


def test_fig10_code_length_effect(benchmark):
    results = {}

    def run_all():
        for name in DATASETS:
            dataset, truth = CONTEXT.workload(name)
            base = dataset.code_length
            per_m = {}
            for m in (base - 3, base, base + 3):
                hasher = CONTEXT.hasher(name, "itq", code_length=m)
                budgets = budget_sweep(len(dataset.data), top_fraction=0.5)
                times = {}
                for label, prober in (
                    ("HR", HammingRanking()),
                    ("GHR", GenerateHammingRanking()),
                    ("GQR", GQR()),
                ):
                    index = HashIndex(hasher, dataset.data, prober=prober)
                    curve = timed_sweep(
                        index, dataset.queries, truth, K, budgets
                    )
                    times[label] = time_to_recall(curve, TARGET)
                per_m[m] = times
            results[name] = per_m

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sections = []
    for name, per_m in results.items():
        rows = [
            [m, round(t["HR"], 4), round(t["GHR"], 4), round(t["GQR"], 4)]
            for m, t in per_m.items()
        ]
        sections.append(f"--- {name} (seconds to {TARGET:.0%} recall) ---")
        sections.append(format_table(["m", "HR", "GHR", "GQR"], rows))
    save_report("fig10_code_length", "\n".join(sections))

    # Even at GHR's best code length, GQR is at least comparable.
    for name, per_m in results.items():
        best_m = min(per_m, key=lambda m: per_m[m]["GHR"])
        assert per_m[best_m]["GQR"] <= per_m[best_m]["GHR"] * 1.3, name
