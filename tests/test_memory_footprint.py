"""Tests for index memory accounting."""

import pytest

from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search.searcher import HashIndex


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(800, 16, n_clusters=8, seed=31)


class TestMemoryFootprint:
    def test_tables_scale_with_count(self, data):
        single = HashIndex(ITQ(code_length=6, seed=0), data)
        triple = HashIndex(
            [ITQ(code_length=6, seed=s) for s in range(3)], data
        )
        mem_single = single.memory_footprint()
        mem_triple = triple.memory_footprint()
        assert mem_triple["tables"] > 2 * mem_single["tables"]
        assert mem_triple["data"] == mem_single["data"]
        assert mem_triple["num_tables"] == 3

    def test_table_bytes_positive_and_bounded(self, data):
        index = HashIndex(ITQ(code_length=6, seed=0), data)
        table_bytes = index.tables[0].memory_bytes()
        assert table_bytes > len(data) * 8  # at least the id arrays
        assert table_bytes < len(data) * 8 + 70_000  # bounded overhead

    def test_screen_is_a_float32_copy_of_a_fixed_euclidean_corpus(self, data):
        index = HashIndex(ITQ(code_length=6, seed=0), data)
        mem = index.memory_footprint()
        assert mem["screen"] == data.size * 4 == mem["data"] // 2

    def test_no_screen_for_angular_metrics(self, data):
        for metric in ("cosine", "angular"):
            index = HashIndex(ITQ(code_length=6, seed=0), data, metric=metric)
            assert index.memory_footprint()["screen"] == 0
