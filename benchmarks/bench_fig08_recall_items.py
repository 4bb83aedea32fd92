"""Figure 8: recall versus number of retrieved items.

Paper: for the same number of retrieved (evaluated) items, GQR always
finds more true neighbours than GHR/HR — direct evidence that QD sends
evaluation to better buckets.  This is a wall-clock-free claim, so it is
the most robust of the paper's comparisons.
"""

from repro.experiments.figures import MAIN_NAMES
from repro_bench import run_exhibit


def test_fig08_recall_vs_items(benchmark):
    results = run_exhibit(benchmark, "fig08")

    # GQR >= GHR at every item budget, on every dataset.
    for name, (_, series) in results.items():
        for g, h in zip(series["GQR"], series["GHR & HR"]):
            assert g >= h - 0.02, name

    # The quality gap widens with dataset size: compare the mid-budget
    # advantage on the smallest vs the largest dataset.
    def mid_gap(entry):
        _, series = entry
        gqr, ghr = series["GQR"], series["GHR & HR"]
        mid = len(gqr) // 2
        return gqr[mid] - ghr[mid]

    assert mid_gap(results[MAIN_NAMES[-1]]) >= mid_gap(results[MAIN_NAMES[0]])
