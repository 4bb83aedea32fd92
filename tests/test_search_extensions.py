"""Tests for the search-layer extensions: metrics, range search and
batch search."""

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ, RandomProjectionLSH
from repro.index.distance import knn_exact
from repro.search.searcher import HashIndex


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(1500, 16, n_clusters=10, seed=17)


class TestMetricSupport:
    def test_angular_index_full_budget_exact(self, data):
        """SRP-LSH + angular metric: full budget equals exact angular kNN."""
        index = HashIndex(
            RandomProjectionLSH(code_length=8, seed=0),
            data,
            prober=GQR(),
            metric="angular",
        )
        query = data[3]
        result = index.search(query, k=10, n_candidates=len(data))
        truth, _ = knn_exact(query[None, :], data, 10, "angular")
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))

    def test_angular_recall_reasonable_at_budget(self, data):
        index = HashIndex(
            RandomProjectionLSH(code_length=10, seed=0),
            data,
            prober=GQR(),
            metric="angular",
        )
        truth, _ = knn_exact(data[:20], data, 10, "angular")
        hits = 0
        for qi in range(20):
            result = index.search(data[qi], k=10, n_candidates=300)
            hits += len(np.intersect1d(result.ids, truth[qi]))
        assert hits / 200 > 0.5

    def test_unknown_metric_rejected(self, data):
        with pytest.raises(KeyError):
            HashIndex(ITQ(code_length=6, seed=0), data, metric="hamming")

    def test_early_stop_rejects_non_euclidean(self, data):
        index = HashIndex(
            ITQ(code_length=6, seed=0), data, prober=GQR(), metric="cosine"
        )
        with pytest.raises(ValueError):
            index.search_early_stop(data[0], k=5)


class TestRangeSearch:
    @pytest.fixture(scope="class")
    def index(self, data):
        return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())

    def test_exactness_vs_bruteforce(self, index, data):
        rng = np.random.default_rng(0)
        for qi in rng.choice(len(data), 5, replace=False):
            query = data[qi]
            radius = 1.5
            result = index.search_range(query, radius)
            dists = np.linalg.norm(data - query, axis=1)
            expected = np.flatnonzero(dists <= radius)
            assert np.array_equal(np.sort(result.ids), expected)

    def test_results_sorted_by_distance(self, index, data):
        result = index.search_range(data[0], 2.0)
        assert (np.diff(result.distances) >= 0).all()

    def test_zero_radius_finds_exact_copies(self, index, data):
        result = index.search_range(data[5], 0.0)
        assert 5 in result.ids

    def test_zero_radius_finds_every_indexed_row(self, index, data):
        # Distances come from the difference form, so an indexed row's
        # distance to itself is exactly zero, never a rounding residue.
        for row in range(100):
            result = index.search_range(data[row], 0.0)
            assert row in result.ids
            assert (result.distances == 0.0).all()

    def test_negative_radius_rejected(self, index, data):
        with pytest.raises(ValueError):
            index.search_range(data[0], -1.0)

    def test_small_radius_prunes(self, index, data):
        result = index.search_range(data[0], 0.05)
        assert result.n_candidates < index.num_items


class TestBatchSearch:
    def test_matches_individual_searches(self, data):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        queries = data[:5]
        batch = index.search_batch(queries, k=5, n_candidates=200)
        for query, result in zip(queries, batch):
            single = index.search(query, k=5, n_candidates=200)
            assert np.array_equal(result.ids, single.ids)

    def test_single_query_promoted(self, data):
        index = HashIndex(ITQ(code_length=8, seed=0), data)
        batch = index.search_batch(data[0], k=3, n_candidates=100)
        assert len(batch) == 1
