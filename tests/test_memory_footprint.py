"""Tests for index memory accounting."""

import numpy as np
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
        # The float32 copy (half of data), its int32 id -> row map and
        # each row's float64 squared norm.
        assert mem["screen"] == data.size * 4 + 4 * len(data) + 8 * len(data)
        assert data.size * 4 == mem["data"] // 2

    def test_no_screen_for_angular_metrics(self, data):
        for metric in ("cosine", "angular"):
            index = HashIndex(ITQ(code_length=6, seed=0), data, metric=metric)
            assert index.memory_footprint()["screen"] == 0

    def test_ranking_caches_count_after_the_first_ranked_read(self):
        # Unclustered items fill most of the 1,024 buckets, so a batch
        # ranks from the tree prefix (slot table) and scores the rows at
        # the data mean, whose flip costs are all 0 (bucket bits).
        data = np.random.default_rng(8).standard_normal((6000, 16))
        index = HashIndex(ITQ(code_length=10, seed=0), data)
        before = index.memory_footprint()
        assert before["ranking"] == 0
        queries = np.vstack([data[:8] + 0.01, data.mean(axis=0)])
        index.search_batch(queries, 5, 100)
        after = index.memory_footprint()
        table = index.tables[0]
        cached = (
            sum(a.nbytes for a in table.dense_layout()[:3])
            + sum(a.nbytes for a in table.bucket_bits()[1:])
            + table.slot_table().nbytes
        )
        assert after["ranking"] == cached
        # The layout's id array is the table's own, not a second copy.
        assert np.shares_memory(table.dense_layout()[3], table.sorted_ids)
        assert table.slot_table().nbytes == 4 << 10
        assert {key: after[key] for key in after if key != "ranking"} == {
            key: before[key] for key in before if key != "ranking"
        }
