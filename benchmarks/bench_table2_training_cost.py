"""Table 2: training cost — OPQ versus PCAH.

Paper: OPQ training costs 3.7x-45x more wall time (and more memory)
than PCAH, which is why "PCAH + GQR matches OPQ + IMI" (Figure 17) is
significant.  We measure wall time and peak traced memory of both
trainers on the four Figure-17 datasets.
"""

from repro_bench import run_exhibit


def test_table2_training_cost(benchmark):
    results = run_exhibit(benchmark, "table2")

    # The table's point: OPQ training is substantially more expensive.
    assert all(
        cost["OPQ"].seconds / cost["PCAH"].seconds > 1.5
        for cost in results.values()
    )
