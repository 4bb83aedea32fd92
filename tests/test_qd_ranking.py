"""Tests for QD ranking (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.qd_ranking import QDRanking
from repro.core.quantization_distance import quantization_distances
from repro.index.hash_table import HashTable
from repro.search.searcher import HashIndex


@pytest.fixture()
def probe_inputs(fitted_itq, small_data):
    query = small_data[11]
    signature, costs = fitted_itq.probe_info(query)
    return signature, costs


@pytest.fixture()
def qr_index(fitted_itq, small_data):
    return HashIndex(fitted_itq, small_data, prober=QDRanking())


class TestQDRanking:
    def test_probes_every_occupied_bucket_once(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        order = list(QDRanking().probe(small_table, signature, costs))
        assert sorted(order) == sorted(small_table.signatures())

    def test_order_is_ascending_qd(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        order = list(QDRanking().probe(small_table, signature, costs))
        qds = quantization_distances(signature, np.asarray(order), costs)
        assert (np.diff(qds) >= -1e-12).all()

    def test_query_bucket_first_when_occupied(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        if signature in small_table:
            first = next(QDRanking().probe(small_table, signature, costs))
            assert first == signature

    def test_empty_table(self, probe_inputs):
        signature, costs = probe_inputs
        table = HashTable(np.empty((0, 8), dtype=np.uint8))
        assert list(QDRanking().probe(table, signature, costs)) == []

    def test_collect_reaches_budget(self, qr_index, small_data):
        result = qr_index.search(small_data[11], k=10, n_candidates=100)
        assert result.n_candidates >= 100

    def test_collect_all_items(self, qr_index, small_data):
        n = len(small_data)
        result = qr_index.search(small_data[11], k=n, n_candidates=n)
        assert sorted(result.ids.tolist()) == list(range(n))

    def test_collect_rejects_zero_budget(self, qr_index, small_data):
        with pytest.raises(ValueError):
            qr_index.search(small_data[11], k=10, n_candidates=0)
