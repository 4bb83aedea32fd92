"""Figure 11: speedup over HR for various k (number of target neighbours).

Paper (TINY5M, SIFT10M): GQR is significantly faster than HR and GHR at
90% recall for k in {1, 10, 50, 100}, with the largest speedups at small
k.  We print the speedup series for both stand-ins.
"""

from repro.core.gqr import GQR
from repro.eval.harness import speedup_at_recall, timed_sweep
from repro.eval.reporting import format_table
from repro.experiments import budget_sweep
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, save_report

DATASETS = ["TINY5M", "SIFT10M"]
KS = [1, 10, 50, 100]
TARGET = 0.90


def test_fig11_speedup_vs_k(benchmark):
    results = {}

    def run_all():
        for name in DATASETS:
            per_k = {}
            for k in KS:
                dataset, truth = CONTEXT.workload(name, k)
                hasher = CONTEXT.hasher(name, "itq")
                budgets = budget_sweep(len(dataset.data), top_fraction=0.5)
                curves = {}
                for label, prober in (
                    ("HR", HammingRanking()),
                    ("GHR", GenerateHammingRanking()),
                    ("GQR", GQR()),
                ):
                    index = HashIndex(hasher, dataset.data, prober=prober)
                    curves[label] = timed_sweep(
                        index, dataset.queries, truth, k, budgets
                    )
                per_k[k] = {
                    "GHR": speedup_at_recall(curves["HR"], curves["GHR"], TARGET),
                    "GQR": speedup_at_recall(curves["HR"], curves["GQR"], TARGET),
                }
            results[name] = per_k

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sections = []
    for name, per_k in results.items():
        rows = [
            [k, round(v["GHR"], 2), round(v["GQR"], 2)]
            for k, v in per_k.items()
        ]
        sections.append(f"--- {name} (speedup over HR at {TARGET:.0%}) ---")
        sections.append(format_table(["k", "GHR", "GQR"], rows))
    save_report("fig11_speedup_k", "\n".join(sections))

    # GQR's speedup over HR beats GHR's for most k on each dataset.
    for name, per_k in results.items():
        wins = sum(1 for v in per_k.values() if v["GQR"] >= v["GHR"] * 0.9)
        assert wins >= len(KS) - 1, name
