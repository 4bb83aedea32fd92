"""Extension bench: retrieval I/O cost (buckets probed at matched recall).

The external-memory LSH literature (LSB-tree, SK-LSH — the paper's
related work) evaluates methods by page accesses, and a bucket fetch is
the natural page unit for hash-table search.  We compare the number of
buckets each querying method must probe to reach fixed recall levels —
a hardware-independent cost measure that complements the wall-clock
curves, and directly shows QD's probe-ordering quality.
"""

import numpy as np

from repro.core.gqr import GQR
from repro.eval.reporting import format_table
from repro.probing import GenerateHammingRanking
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, save_report

DATASET = "SIFT10M"
TARGETS = [0.5, 0.8, 0.9, 0.95]


def buckets_to_recall(index, queries, truth, targets):
    """Mean #non-empty buckets probed to reach each recall target."""
    per_target = np.zeros(len(targets))
    for query, truth_row in zip(queries, truth):
        truth_set = set(int(t) for t in truth_row)
        found = 0
        buckets = 0
        target_index = 0
        for ids in index.candidate_stream(query):
            buckets += 1
            found += sum(1 for item in ids if int(item) in truth_set)
            while (
                target_index < len(targets)
                and found / len(truth_set) >= targets[target_index]
            ):
                per_target[target_index] += buckets
                target_index += 1
            if target_index == len(targets):
                break
        while target_index < len(targets):  # unreached: full probe count
            per_target[target_index] += buckets
            target_index += 1
    return per_target / len(queries)


def test_io_cost_buckets_at_recall(benchmark):
    dataset, truth = CONTEXT.workload(DATASET)
    hasher = CONTEXT.hasher(DATASET, "itq")
    queries = dataset.queries[:60]
    truth = truth[:60]

    probers = {
        "GQR": GQR(),
        "GHR": GenerateHammingRanking(),
    }
    results = {}

    def run_all():
        for label, prober in probers.items():
            index = HashIndex(hasher, dataset.data, prober=prober)
            results[label] = buckets_to_recall(index, queries, truth, TARGETS)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [f"{target:.0%}"]
        + [round(float(results[label][i]), 1) for label in probers]
        for i, target in enumerate(TARGETS)
    ]
    save_report(
        "io_cost",
        f"{DATASET}, mean buckets probed (page I/Os) to reach recall:\n"
        + format_table(["recall"] + list(probers), rows),
    )

    # QD needs the fewest bucket fetches at every target.
    for i in range(len(TARGETS)):
        assert results["GQR"][i] <= results["GHR"][i] * 1.05, TARGETS[i]
