"""Tests for the inverted multi-index and multi-sequence algorithm."""

import numpy as np
import pytest

from repro.quantization.imi import InvertedMultiIndex, multi_sequence
from repro.quantization.opq import OptimizedProductQuantizer
from repro.quantization.pq import ProductQuantizer
from repro.search.searcher import IMISearchIndex


class TestMultiSequence:
    def test_costs_non_decreasing(self):
        rng = np.random.default_rng(0)
        a = np.sort(rng.uniform(size=6))
        b = np.sort(rng.uniform(size=5))
        costs = [c for _, _, c in multi_sequence(a, b)]
        assert costs == sorted(costs)

    def test_visits_every_cell_once(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.5])
        cells = [(i, j) for i, j, _ in multi_sequence(a, b)]
        assert sorted(cells) == [(i, j) for i in range(3) for j in range(2)]
        assert len(set(cells)) == len(cells)

    def test_cost_is_sum(self):
        a = np.array([0.0, 3.0])
        b = np.array([1.0, 2.0])
        for i, j, cost in multi_sequence(a, b):
            assert cost == pytest.approx(a[i] + b[j])

    def test_empty_input(self):
        assert list(multi_sequence(np.array([]), np.array([1.0]))) == []

    def test_ties_all_emitted(self):
        a = np.zeros(3)
        b = np.zeros(3)
        assert len(list(multi_sequence(a, b))) == 9


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1)
    return rng.standard_normal((300, 8))


@pytest.fixture(scope="module")
def pq(data):
    return ProductQuantizer(2, n_centroids=8, seed=0).fit(data)


@pytest.fixture(scope="module")
def imi(pq, data):
    return InvertedMultiIndex(pq, data)


class TestInvertedMultiIndex:
    def test_requires_two_subspaces(self, data):
        pq = ProductQuantizer(4, n_centroids=4, seed=0).fit(data)
        with pytest.raises(ValueError):
            InvertedMultiIndex(pq, data)

    def test_probe_covers_all_items(self, imi, data):
        found = np.concatenate(list(imi.probe(data[0])))
        assert sorted(found.tolist()) == list(range(300))

    def test_probe_no_duplicates(self, imi, data):
        found = np.concatenate(list(imi.probe(data[1])))
        assert len(found) == len(set(found.tolist()))

    def test_first_cell_contains_query_cell(self, imi, data):
        """The query's own cell has cost d1min+d2min and is visited first
        among occupied cells when it is occupied."""
        query = data[5]
        first = next(iter(imi.probe(query)))
        assert 5 in first.tolist()

    def test_collect_respects_budget(self, pq, data):
        index = IMISearchIndex(pq, data)
        result = index.search(data[2], k=300, n_candidates=40)
        assert result.n_candidates >= 40

    def test_collect_all(self, pq, data):
        index = IMISearchIndex(pq, data)
        result = index.search(data[3], k=300, n_candidates=10_000)
        assert sorted(result.ids.tolist()) == list(range(300))

    def test_works_with_opq(self, data):
        opq = OptimizedProductQuantizer(
            2, n_centroids=8, n_iterations=3, seed=0
        ).fit(data)
        imi = InvertedMultiIndex(opq, data)
        found = np.concatenate(list(imi.probe(data[0])))
        assert len(found) == 300

    def test_num_cells_bounded(self, imi):
        assert 1 <= imi.num_cells <= 64
