"""Extension bench: per-query latency tails of the querying methods.

The paper's batch curves show mean behaviour; a serving deployment
cares about p95/p99.  Sorting methods (HR, QR) pay their full
sort-everything cost on every query, while generate-to-probe methods'
retrieval cost scales with the number of buckets actually needed — so
the tails tell the slow-start story per query rather than per batch.
"""

from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.eval.latency import latency_summary, measure_latencies
from repro.eval.reporting import format_table
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, K, save_report

DATASET = "SIFT10M"
BUDGET = 400


def test_latency_tail(benchmark):
    dataset, _ = CONTEXT.workload(DATASET)
    hasher = CONTEXT.hasher(DATASET, "itq")
    probers = {
        "HR": HammingRanking(),
        "QR": QDRanking(),
        "GHR": GenerateHammingRanking(),
        "GQR": GQR(),
    }

    summaries = {}

    def run_all():
        for label, prober in probers.items():
            index = HashIndex(hasher, dataset.data, prober=prober)
            latencies = measure_latencies(
                index, dataset.queries, K, BUDGET
            )
            summaries[label] = latency_summary(latencies)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [[label] + summary.row() for label, summary in summaries.items()]
    save_report(
        "latency_tail",
        f"{DATASET}, per-query latency at budget {BUDGET} "
        "(milliseconds):\n"
        + format_table(
            ["prober", "mean", "p50", "p95", "p99", "worst"], rows
        ),
    )

    # Generate-to-probe median must not exceed the sorting methods'.
    assert summaries["GQR"].p50 <= summaries["QR"].p50 * 1.3
    assert summaries["GHR"].p50 <= summaries["HR"].p50 * 1.3
