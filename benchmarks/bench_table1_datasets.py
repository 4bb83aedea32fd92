"""Table 1: dataset statistics and linear-search time.

Paper: four datasets (CIFAR60K, GIST1M, TINY5M, SIFT10M) with linear
search taking 31s–1978s for 1000 queries.  We report the same columns
for our scaled synthetic stand-ins (plus the paper's originals for
reference) — absolute times shrink with the scale, but linear-scan cost
must grow with dataset cardinality, which is the property the table
motivates hashing with.
"""

from repro_bench import run_exhibit


def test_table1_linear_search(benchmark):
    results = run_exhibit(benchmark, "table1")

    # The table's point: exact search cost scales with dataset size.
    ordered = [elapsed for _, elapsed in results.values()]
    assert ordered[0] < ordered[-1]
