"""Ablation: Theorem 2 early stop — exact search without a full scan.

Section 4.1 observes that because µ·dist(q, b) lower-bounds the true
distance of every item in bucket b, probing can stop (exactly!) once
the next bucket's bound exceeds the current k-th nearest distance.

The bound's usefulness depends on the data: µ uses the *global*
spectral norm, so pruning kicks in only when true neighbourhoods are
tight relative to the projection scale.  We measure both regimes:

* tight clusters (spread 0.25) — the bound prunes most of the dataset;
* the GIST1M stand-in (spread 1.0) — the bound is too loose to help,
  which we report honestly rather than hide.

Exactness must hold in both.
"""

import time

import numpy as np

from repro.core.gqr import GQR
from repro.data.synthetic import gaussian_mixture, sample_queries
from repro.eval.reporting import format_table
from repro.hashing import ITQ
from repro.index.linear_scan import knn_linear_scan
from repro.search.searcher import HashIndex
from repro_bench import CONTEXT, K, save_report


def _run_early_stop(index, queries, k):
    start = time.perf_counter()
    results = [index.search_early_stop(q, k=k) for q in queries]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_ablation_early_stop(benchmark):
    # Tight regime: synthetic clusters where neighbourhoods are narrow.
    tight_data = gaussian_mixture(
        8000, 24, n_clusters=40, cluster_spread=0.25, seed=21
    )
    tight_queries = sample_queries(tight_data, 25, perturbation=0.02, seed=22)
    tight_index = HashIndex(
        ITQ(code_length=10, seed=0), tight_data, prober=GQR()
    )

    tight_results, tight_time = benchmark.pedantic(
        lambda: _run_early_stop(tight_index, tight_queries, K),
        rounds=1,
        iterations=1,
    )
    tight_truth, _ = knn_linear_scan(tight_queries, tight_data, K)

    # Loose regime: the wide-cluster GIST1M stand-in.
    dataset, _ = CONTEXT.workload("GIST1M")
    loose_index = HashIndex(
        CONTEXT.hasher("GIST1M", "itq"), dataset.data, prober=GQR()
    )
    loose_queries = dataset.queries[:10]
    loose_results, _ = _run_early_stop(loose_index, loose_queries, K)
    loose_truth, _ = knn_linear_scan(loose_queries, dataset.data, K)

    # Exactness in both regimes — the theorem's guarantee.
    for results, truth in (
        (tight_results, tight_truth),
        (loose_results, loose_truth),
    ):
        for res, truth_row in zip(results, truth):
            assert np.array_equal(np.sort(res.ids), np.sort(truth_row))

    tight_fraction = np.mean(
        [r.n_candidates for r in tight_results]
    ) / len(tight_data)
    loose_fraction = np.mean(
        [r.n_candidates for r in loose_results]
    ) / loose_index.num_items

    save_report(
        "ablation_early_stop",
        format_table(
            ["regime", "exact", "fraction of dataset evaluated"],
            [
                ["tight clusters (spread 0.25)",
                 f"{len(tight_results)}/{len(tight_results)}",
                 f"{tight_fraction:.1%}"],
                ["GIST1M stand-in (spread 1.0)",
                 f"{len(loose_results)}/{len(loose_results)}",
                 f"{loose_fraction:.1%}"],
            ],
        ),
    )
    # Wall-clock time varies run to run, so it stays out of the report.
    print(f"(tight-regime batch time: {tight_time:.4f}s)")

    # In the tight regime the bound must prune most of the dataset.
    assert tight_fraction < 0.5
