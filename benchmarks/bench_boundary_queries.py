"""Extension bench: the boundary-query workload.

The coarse-grain argument of Section 3 predicts *where* GQR's advantage
concentrates: queries whose projections land near quantization
thresholds, because Hamming ranking cannot tell which side of the
boundary to probe first while QD can.  We split an in-distribution
query pool into boundary (smallest margin) and interior (largest
margin) halves and measure the GQR-vs-GHR recall gap on each.
"""

import numpy as np

from repro.core.gqr import GQR
from repro.data.ground_truth import ground_truth_knn
from repro.data.workloads import boundary_margin, in_distribution_queries
from repro.eval.harness import recall_at_budgets
from repro.eval.reporting import format_table
from repro.probing import GenerateHammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, K, save_report

DATASET = "SIFT10M"
N_QUERIES = 60


def test_boundary_vs_interior_queries(benchmark):
    dataset, _ = CONTEXT.workload(DATASET)
    hasher = CONTEXT.hasher(DATASET, "itq")
    data = dataset.data

    pool = in_distribution_queries(data, 4 * N_QUERIES, seed=5)
    margins = boundary_margin(hasher, pool)
    order = np.argsort(margins, kind="stable")
    splits = {
        "boundary": pool[order[:N_QUERIES]],
        "interior": pool[order[-N_QUERIES:]],
    }
    budget = max(100, len(data) // 100)

    gaps = {}
    rows = []

    def run_all():
        for name, queries in splits.items():
            truth = ground_truth_knn(queries, data, K)
            gqr = recall_at_budgets(
                HashIndex(hasher, data, prober=GQR()),
                queries, truth, [budget],
            )[0]
            ghr = recall_at_budgets(
                HashIndex(hasher, data, prober=GenerateHammingRanking()),
                queries, truth, [budget],
            )[0]
            gaps[name] = gqr - ghr
            rows.append([name, round(gqr, 4), round(ghr, 4),
                         round(gqr - ghr, 4)])

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    save_report(
        "boundary_queries",
        f"{DATASET}, recall@{K} at {budget} candidates by query margin:\n"
        + format_table(["workload", "GQR", "GHR", "gap"], rows),
    )

    # The advantage must concentrate on boundary traffic.
    assert gaps["boundary"] > 0
    assert gaps["boundary"] >= gaps["interior"]
