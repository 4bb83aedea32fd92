"""Figure 6: GQR versus QR (slow start) on the four main datasets.

Paper: both probe identical bucket orders, but QR sorts *all* buckets up
front while GQR generates them on demand, so GQR wins at low budgets and
the gap widens with dataset size (more buckets to sort).  We sweep both
and compare time at the smallest budget.
"""

from repro.experiments.figures import MAIN_NAMES
from repro_bench import run_exhibit


def test_fig06_qr_vs_gqr(benchmark):
    results = run_exhibit(benchmark, "fig06")

    # Identical probe order => identical recall at every budget.
    for curves in results.values():
        for gqr_point, qr_point in zip(curves["GQR"], curves["QR"]):
            assert abs(gqr_point.recall - qr_point.recall) < 0.03

    # Slow start: at the smallest budget GQR must not be slower than QR
    # on the larger datasets (where the sorted bucket list is big).
    big = MAIN_NAMES[-1]
    assert (
        results[big]["GQR"][0].seconds <= results[big]["QR"][0].seconds * 1.10
    )
