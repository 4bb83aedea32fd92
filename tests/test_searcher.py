"""Tests for the high-level search indexes."""

from itertools import islice

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.data import gaussian_mixture
from repro.hashing import ITQ, SpectralHashing
from repro.index.linear_scan import knn_linear_scan
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.quantization.opq import OptimizedProductQuantizer
from repro.search.engine import ExactEvaluator
from repro.search.searcher import (
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
)


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(1500, 24, n_clusters=12, seed=3)


@pytest.fixture(scope="module")
def index(data):
    return HashIndex(ITQ(code_length=8, seed=0), data)


class TestEvaluateCandidates:
    def test_exact_rerank(self, data):
        query = data[0]
        candidates = np.arange(100, dtype=np.int64)
        ids, dists = ExactEvaluator(data).evaluate(query, candidates, 5)
        truth, tdists = knn_linear_scan(query[None, :], data[:100], 5)
        assert np.array_equal(ids, truth[0])
        assert np.allclose(dists, tdists[0])

    def test_empty_candidates(self, data):
        ids, dists = ExactEvaluator(data).evaluate(
            data[0], np.empty(0, dtype=np.int64), 5
        )
        assert len(ids) == 0 and len(dists) == 0

    def test_fewer_candidates_than_k(self, data):
        ids, _ = ExactEvaluator(data).evaluate(
            data[0], np.array([3, 7], dtype=np.int64), 10
        )
        assert len(ids) == 2

    def test_distances_ascending(self, data):
        evaluator = ExactEvaluator(data)
        ids, dists = evaluator.evaluate(
            data[0], np.arange(200, dtype=np.int64), 20
        )
        assert (np.diff(dists) >= 0).all()
        # The ranked distances are the evaluator's own, bit for bit.
        assert np.array_equal(evaluator.distances(data[0], ids), dists)


class TestHashIndex:
    def test_search_returns_k_results(self, index, data):
        result = index.search(data[10], k=10, n_candidates=300)
        assert len(result.ids) == 10
        assert result.n_candidates >= 300 or result.n_candidates == index.num_items

    def test_full_budget_equals_linear_scan(self, index, data):
        """With budget = N the result must be the exact kNN."""
        query = data[77]
        result = index.search(query, k=10, n_candidates=index.num_items)
        truth, _ = knn_linear_scan(query[None, :], data, 10)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))

    def test_unfitted_hasher_fitted_on_data(self, data):
        hasher = ITQ(code_length=8, seed=1)
        assert not hasher.is_fitted
        HashIndex(hasher, data)
        assert hasher.is_fitted

    def test_prefitted_hasher_reused(self, data):
        hasher = ITQ(code_length=8, seed=1).fit(data)
        weights_before = hasher.hashing_matrix.copy()
        HashIndex(hasher, data)
        assert np.array_equal(hasher.hashing_matrix, weights_before)

    def test_prober_swap(self, index, data):
        index_b = HashIndex(
            ITQ(code_length=8, seed=0), data, prober=HammingRanking()
        )
        index_b.prober = QDRanking()
        assert isinstance(index_b.prober, QDRanking)

    def test_mixed_code_lengths_rejected(self, data):
        with pytest.raises(ValueError):
            HashIndex([ITQ(code_length=8), ITQ(code_length=9)], data)

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError):
            HashIndex(ITQ(code_length=4), np.zeros(10))

    def test_rejects_empty_hasher_list(self, data):
        with pytest.raises(ValueError):
            HashIndex([], data)

    def test_works_with_nonlinear_hasher(self, data):
        index = HashIndex(SpectralHashing(code_length=8), data)
        result = index.search(data[4], k=5, n_candidates=200)
        assert len(result.ids) == 5


class TestMultiTable:
    def test_candidate_stream_deduplicates(self, data):
        hashers = [ITQ(code_length=8, seed=s) for s in (0, 1, 2)]
        index = HashIndex(hashers, data, prober=GenerateHammingRanking())
        seen = set()
        total = 0
        for ids in index.candidate_stream(data[0]):
            batch = set(ids.tolist())
            assert not batch & seen
            seen |= batch
            total += len(ids)
            if total > 600:
                break
        assert len(seen) == total

    def test_multi_table_covers_all_items(self, data):
        hashers = [ITQ(code_length=8, seed=s) for s in (0, 1)]
        index = HashIndex(hashers, data, prober=GenerateHammingRanking())
        found = np.concatenate(list(index.candidate_stream(data[0])))
        assert sorted(found.tolist()) == list(range(len(data)))

    def test_multi_table_recall_at_least_single(self, data):
        """More tables can only add candidates at a budget (Fig. 12)."""
        truth, _ = knn_linear_scan(data[:10], data, 10)
        single = HashIndex(
            ITQ(code_length=8, seed=0), data, prober=GenerateHammingRanking()
        )
        multi = HashIndex(
            [ITQ(code_length=8, seed=s) for s in range(3)],
            data,
            prober=GenerateHammingRanking(),
        )
        budget = 150

        def mean_recall(index):
            hits = 0
            for qi in range(10):
                res = index.search(data[qi], 10, budget)
                hits += len(np.intersect1d(res.ids, truth[qi]))
            return hits / 100

        # Not a strict theorem per query, but holds on average.
        assert mean_recall(multi) >= mean_recall(single) - 0.05

    def test_num_tables(self, data):
        index = HashIndex([ITQ(code_length=8, seed=s) for s in range(4)], data)
        assert index.num_tables == 4


class TestEarlyStop:
    def test_early_stop_is_exact(self, data):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        truth, _ = knn_linear_scan(data[:5], data, 10)
        for qi in range(5):
            result = index.search_early_stop(data[qi], k=10)
            assert np.array_equal(np.sort(result.ids), np.sort(truth[qi]))

    def test_early_stop_probes_fewer_than_everything(self, data):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        result = index.search_early_stop(data[3], k=5)
        assert result.n_candidates < index.num_items

    def test_early_stop_requires_gqr(self, data):
        index = HashIndex(
            ITQ(code_length=8, seed=0), data, prober=HammingRanking()
        )
        with pytest.raises(TypeError):
            index.search_early_stop(data[0], k=5)

    def test_early_stop_requires_linear_hasher(self, data):
        index = HashIndex(SpectralHashing(code_length=8), data, prober=GQR())
        with pytest.raises(TypeError):
            index.search_early_stop(data[0], k=5)

    def test_early_stop_rejects_multi_table(self, data):
        index = HashIndex(
            [ITQ(code_length=8, seed=s) for s in (0, 1)], data, prober=GQR()
        )
        with pytest.raises(ValueError):
            index.search_early_stop(data[0], k=5)

    def test_max_candidates_cap(self, data):
        hasher = ITQ(code_length=8, seed=0)
        index = HashIndex(hasher, data, prober=GQR())
        result = index.search_early_stop(data[0], k=5, max_candidates=50)
        table = index.tables[0]
        signature, costs = hasher.probe_info(data[0])
        probed = [
            len(table.get(bucket))
            for bucket, _ in islice(
                GQR().probe_scored(table, signature, costs),
                result.n_buckets_probed,
            )
        ]
        assert result.n_candidates == sum(probed)
        assert not result.stats.early_stop_triggered
        # The cap stops probing right after the bucket that reaches it,
        # so it is overshot by at most that last bucket.
        last = [size for size in probed if size][-1]
        assert result.n_candidates - last < 50 <= result.n_candidates


class TestMIHSearchIndex:
    def test_search_matches_exact_at_full_budget(self, data):
        index = MIHSearchIndex(ITQ(code_length=8, seed=0), data, num_blocks=2)
        query = data[9]
        result = index.search(query, k=10, n_candidates=len(data))
        truth, _ = knn_linear_scan(query[None, :], data, 10)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))

    def test_candidate_stream_covers_items(self, data):
        index = MIHSearchIndex(ITQ(code_length=8, seed=0), data)
        found = np.concatenate(list(index.candidate_stream(data[0])))
        assert sorted(found.tolist()) == list(range(len(data)))


class TestIMISearchIndex:
    def test_search_matches_exact_at_full_budget(self, data):
        opq = OptimizedProductQuantizer(
            2, n_centroids=8, n_iterations=2, seed=0
        ).fit(data)
        index = IMISearchIndex(opq, data)
        query = data[14]
        result = index.search(query, k=10, n_candidates=len(data))
        truth, _ = knn_linear_scan(query[None, :], data, 10)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))
