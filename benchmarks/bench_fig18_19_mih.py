"""Figures 18-19 (appendix): GQR versus GHR versus Multi-Index Hashing.

Paper: MIH probes the same Hamming rings as GHR but pays extra
de-duplication/filtering cost, so it performs slightly worse than GHR
at the short code lengths L2H uses — an efficient Hamming-space search
does not fix Hamming distance's coarseness; GQR beats both.  We run
ITQ (Fig. 18) and PCAH (Fig. 19) on two datasets each.
"""

from repro.core.gqr import GQR
from repro.eval.harness import time_to_recall, timed_sweep
from repro.eval.reporting import format_curves
from repro.experiments import budget_sweep
from repro.probing import GenerateHammingRanking
from repro.search.searcher import HashIndex, MIHSearchIndex
from repro_bench import CONTEXT, K, curves_recall_at_items, save_report

DATASETS = ["GIST1M", "SIFT10M"]


def _run(algo):
    results = {}
    for name in DATASETS:
        dataset, truth = CONTEXT.workload(name)
        hasher = CONTEXT.hasher(name, algo)
        budgets = budget_sweep(len(dataset.data), n_points=5)
        curves = {
            "GQR": timed_sweep(
                HashIndex(hasher, dataset.data, prober=GQR()),
                dataset.queries, truth, K, budgets, repeats=2,
            ),
            "GHR": timed_sweep(
                HashIndex(
                    hasher, dataset.data, prober=GenerateHammingRanking()
                ),
                dataset.queries, truth, K, budgets, repeats=2,
            ),
            "MIH": timed_sweep(
                MIHSearchIndex(hasher, dataset.data, num_blocks=2),
                dataset.queries, truth, K, budgets, repeats=2,
            ),
        }
        results[name] = curves
    return results


def _check_and_report(results, report_name):
    sections = []
    for name, curves in results.items():
        sections.append(f"--- {name} ---")
        sections.append(format_curves(curves))
    save_report(report_name, "\n".join(sections))

    for name, curves in results.items():
        # MIH visits whole Hamming rings, so at matched *items* its
        # candidate quality equals GHR's (same rings, more of them per
        # step)...
        items = curves["GHR"][len(curves["GHR"]) // 2].items
        at_items = curves_recall_at_items(curves, items)
        assert abs(at_items["MIH"] - at_items["GHR"]) < 0.08, name
        # ...while GQR dominates both.
        assert at_items["GQR"] >= at_items["MIH"] - 0.02, name
        # And MIH's de-duplication/filtering makes it no faster than GHR.
        target = 0.9
        if curves["MIH"][-1].recall >= target:
            assert time_to_recall(curves["MIH"], target) >= (
                time_to_recall(curves["GHR"], target) * 0.8
            ), name


def test_fig18_mih_itq(benchmark):
    results = benchmark.pedantic(
        lambda: _run("itq"), rounds=1, iterations=1
    )
    _check_and_report(results, "fig18_mih_itq")


def test_fig19_mih_pcah(benchmark):
    results = benchmark.pedantic(
        lambda: _run("pcah"), rounds=1, iterations=1
    )
    _check_and_report(results, "fig19_mih_pcah")
