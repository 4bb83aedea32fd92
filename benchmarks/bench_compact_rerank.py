"""Extension bench: codes-only re-ranking (compact index).

When raw vectors cannot stay in RAM, candidates must be ranked from
codes alone.  This bench measures the three re-ranking modes on an
unclustered workload (the regime where code-ranking is meaningful):

* exact (full vectors, the ceiling),
* asymmetric QD over long rerank codes (the paper's distance per item),
* symmetric Hamming over the same codes,

across rerank-code lengths, together with each index's memory.  The
expected shape: recall grows with code length, asymmetric ≥ symmetric
(margins break Hamming ties), and memory stays ~an order of magnitude
below the raw vectors.
"""

import numpy as np

from repro.data import correlated_gaussian, ground_truth_knn
from repro.eval.reporting import format_table
from repro.hashing import ITQ
from repro.search.compact_index import CompactHashIndex
from repro.search.searcher import HashIndex
from repro_bench import save_report

N_ITEMS = 6000
DIMS = 48
K = 10
BUDGET = 600


def test_compact_rerank(benchmark):
    data = correlated_gaussian(N_ITEMS, DIMS, correlation=0.5, seed=7)
    queries = data[:60]
    truth = ground_truth_knn(queries, data, K)
    probe = ITQ(code_length=9, seed=0).fit(data)

    def mean_recall(index):
        hits = 0
        for query, truth_row in zip(queries, truth):
            result = index.search(query, K, BUDGET)
            hits += len(np.intersect1d(result.ids, truth_row))
        return hits / (K * len(queries))

    rows = []
    gains = []

    def run_all():
        full = HashIndex(probe, data)
        rows.append(
            ["exact (raw vectors)", "-", round(mean_recall(full), 4),
             f"{data.nbytes / 1e6:.1f} MB"]
        )
        for m_rerank in (12, 24, 48):
            rerank_hasher = ITQ(code_length=m_rerank, seed=1).fit(data)
            asym = CompactHashIndex(probe, rerank_hasher, data)
            sym = CompactHashIndex(
                probe, rerank_hasher, data, rerank="symmetric"
            )
            asym_recall = mean_recall(asym)
            sym_recall = mean_recall(sym)
            gains.append(asym_recall - sym_recall)
            rows.append(
                [f"asymmetric QD, {m_rerank}b", m_rerank,
                 round(asym_recall, 4),
                 f"{asym.memory_bytes() / 1e6:.2f} MB"]
            )
            rows.append(
                [f"symmetric Hamming, {m_rerank}b", m_rerank,
                 round(sym_recall, 4),
                 f"{sym.memory_bytes() / 1e6:.2f} MB"]
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    save_report(
        "compact_rerank",
        f"unclustered {N_ITEMS}x{DIMS}, recall@{K} at {BUDGET} candidates:\n"
        + format_table(["re-ranker", "rerank bits", "recall", "memory"], rows),
    )

    # Recall grows with rerank-code length (asymmetric rows: 1, 3, 5).
    asym_recalls = [rows[1][2], rows[3][2], rows[5][2]]
    assert asym_recalls[2] > asym_recalls[0]
    # Asymmetric never loses to symmetric, and wins somewhere.
    assert all(g >= -0.01 for g in gains)
    assert max(g for g in gains) > 0
    # Memory stays far below raw vectors.
    assert CompactHashIndex(
        probe, ITQ(code_length=48, seed=1).fit(data), data
    ).memory_bytes() < data.nbytes / 4

