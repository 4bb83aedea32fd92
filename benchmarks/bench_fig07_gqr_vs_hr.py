"""Figure 7: GQR versus GHR and HR (ITQ hash functions).

Paper: GQR's recall-time curve dominates both Hamming-based methods on
all four datasets, because QD directs probing to better buckets and
generate-to-probe removes the sort-everything start-up cost.
"""

from repro.eval.harness import time_to_recall
from repro_bench import run_exhibit


def assert_gqr_dominates(results):
    """Shared qualitative checks for Figures 7/13/15."""
    for name, curves in results.items():
        # GQR reaches equal-or-higher recall at every shared budget.
        for gqr_point, ghr_point in zip(curves["GQR"], curves["GHR"]):
            assert gqr_point.recall >= ghr_point.recall - 0.02, name

    # Wall-clock claim on the two largest datasets, where QD's better
    # probe order translates into far fewer evaluated items at 90%
    # recall (the smallest dataset's ~10 ms points are timing noise).
    for name in list(results)[-2:]:
        curves = results[name]
        if curves["GQR"][-1].recall >= 0.9 and curves["GHR"][-1].recall >= 0.9:
            assert time_to_recall(curves["GQR"], 0.9) <= (
                time_to_recall(curves["GHR"], 0.9) * 1.2
            ), name


def test_fig07_gqr_vs_hamming(benchmark):
    assert_gqr_dominates(run_exhibit(benchmark, "fig07"))
