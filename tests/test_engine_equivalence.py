"""Engine-vs-oracle equivalence for the unified query pipeline.

The refactor's contract: routing retrieval→evaluation through
:mod:`repro.search.engine` must not change a single result.  The oracle
here re-implements the original per-query loop — drain the candidate
stream to the budget, re-rank exactly, tie-break by id — independently
of the engine, and every prober/table configuration is checked against
it for both ``search`` and ``search_batch``.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.probing import HammingRanking
from repro.search.searcher import HashIndex

K = 10
BUDGET = 120

PROBERS = {
    "hr": HammingRanking,
    "qr": QDRanking,
    "gqr": GQR,
}


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(800, 16, n_clusters=10, seed=7)


@pytest.fixture(scope="module")
def queries(data):
    return sample_queries(data, 12, seed=8)


def build_index(data, prober_name, n_tables):
    hashers = [ITQ(code_length=8, seed=s) for s in range(n_tables)]
    return HashIndex(
        hashers if n_tables > 1 else hashers[0],
        data,
        prober=PROBERS[prober_name](),
    )


def oracle_search(index, query, k, budget):
    """The seed per-query loop, written without the engine.

    Drains ``candidate_stream`` until the candidate budget is met, then
    exact-re-ranks with an independent distance formulation and breaks
    ties by id — the evaluation rule of the paper's Algorithm 1.
    """
    collected = []
    total = buckets = 0
    for ids in index.candidate_stream(query):
        buckets += 1
        collected.append(ids)
        total += len(ids)
        if total >= budget:
            break
    if not collected:
        return (np.empty(0, np.int64), np.empty(0, np.float64), 0, 0)
    candidates = np.concatenate(collected)
    dists = np.linalg.norm(index.data[candidates] - query, axis=1)
    order = np.lexsort((candidates, dists))[:k]
    return candidates[order], dists[order], total, buckets


CONFIGS = [
    ("hr", 1),
    ("qr", 1),
    ("gqr", 1),
    ("hr", 2),
    ("qr", 2),
    ("gqr", 2),
]


# Tables are probed round-robin, the paper's multi-table order; the ids
# name it.
@pytest.mark.parametrize(
    "prober_name,n_tables",
    CONFIGS,
    ids=[f"{p}-{t}table-round_robin" for p, t in CONFIGS],
)
class TestEngineMatchesOracle:
    def test_search(self, data, queries, prober_name, n_tables):
        index = build_index(data, prober_name, n_tables)
        for query in queries:
            result = index.search(query, k=K, n_candidates=BUDGET)
            ids, dists, total, buckets = oracle_search(
                index, query, K, BUDGET
            )
            assert np.array_equal(result.ids, ids)
            assert np.allclose(result.distances, dists)
            assert result.n_candidates == total
            assert result.n_buckets_probed == buckets

    def test_search_batch(self, data, queries, prober_name, n_tables):
        index = build_index(data, prober_name, n_tables)
        results = index.search_batch(queries, k=K, n_candidates=BUDGET)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            ids, dists, total, buckets = oracle_search(
                index, query, K, BUDGET
            )
            assert np.array_equal(result.ids, ids)
            assert np.allclose(result.distances, dists)
            assert result.n_candidates == total
            assert result.n_buckets_probed == buckets

    def test_stats_attached(self, data, queries, prober_name, n_tables):
        index = build_index(data, prober_name, n_tables)
        for result in [index.search(queries[0], k=K, n_candidates=BUDGET)] + (
            index.search_batch(queries[:3], k=K, n_candidates=BUDGET)
        ):
            stats = result.stats
            assert stats is not None
            assert stats.total_seconds >= 0.0
            assert stats.n_candidates == result.n_candidates


class TestBatchEncodesOncePerTable:
    @pytest.mark.parametrize("n_tables", [1, 2, 3])
    def test_one_probe_info_batch_call_per_table(self, data, queries, n_tables):
        index = build_index(data, "gqr", n_tables)
        with mock.patch.object(
            type(index._hashers[0]),
            "probe_info_batch",
            autospec=True,
            side_effect=type(index._hashers[0]).probe_info_batch,
        ) as batched, mock.patch.object(
            type(index._hashers[0]),
            "probe_info",
            autospec=True,
            side_effect=type(index._hashers[0]).probe_info,
        ) as single:
            index.search_batch(queries, k=K, n_candidates=BUDGET)
        # One encode per table for the whole batch, and no stray
        # per-query projections on any path.
        assert batched.call_count == n_tables
        assert single.call_count == 0


class TestUniformValidation:
    def test_non_finite_query_rejected(self, data):
        index = build_index(data, "gqr", 1)
        bad = np.full(data.shape[1], np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            index.search(bad, k=K, n_candidates=BUDGET)
        with pytest.raises(ValueError, match="non-finite"):
            index.search_batch(np.stack([data[0], bad]), k=K,
                               n_candidates=BUDGET)

    def test_empty_batch_returns_empty_list(self, data):
        index = build_index(data, "gqr", 1)
        assert index.search_batch(
            np.empty((0, data.shape[1])), k=K, n_candidates=BUDGET
        ) == []

