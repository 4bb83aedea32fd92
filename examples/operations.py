"""Operations walkthrough: latency percentiles and a probe trace.

Builds an index at a fixed code length and candidate budget, reports
per-query latency percentiles, and explains one query by tracing the
buckets it probed.

Run:  python examples/operations.py
"""

import numpy as np

from repro import GQR, ITQ, HashIndex
from repro.data import gaussian_mixture, ground_truth_knn, sample_queries
from repro.eval import format_table, latency_summary, measure_latencies
from repro.eval.trace import trace_query

CODE_LENGTH = 10  # log2(12000 / 10) ≈ 10.2
BUDGET = 500


def main() -> None:
    data = gaussian_mixture(12_000, 32, n_clusters=48,
                            cluster_spread=1.0, seed=4)
    validation = sample_queries(data, 30, seed=5)
    truth = ground_truth_knn(validation, data, 10)
    index = HashIndex(ITQ(code_length=CODE_LENGTH, seed=0), data, prober=GQR())
    print(f"index: {index.num_items} items, m = {index.code_length}, "
          f"budget = {BUDGET} candidates")

    # 1. Latency percentiles at the fixed budget.
    live_queries = sample_queries(data, 100, seed=6)
    latencies = measure_latencies(
        index, live_queries, k=10, n_candidates=BUDGET
    )
    summary = latency_summary(latencies)
    print(format_table(
        ["mean ms", "p50", "p95", "p99", "worst"], [summary.row()]
    ))

    # 2. Explain one query: which buckets were probed, with what QD?
    trace = trace_query(index, validation[0], truth[0])
    print("\nprobe trace of one query:")
    print(trace.to_table(max_rows=6))

    result = index.search(validation[0], 10, BUDGET)
    overlap = len(np.intersect1d(result.ids, truth[0]))
    print(f"\nrecall on the traced query: {overlap}/10")


if __name__ == "__main__":
    main()
