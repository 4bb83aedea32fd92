"""Tests for the dynamic hash table and dynamic index."""

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.index.dynamic import DynamicHashTable
from repro.index.linear_scan import knn_linear_scan
from repro.search.cache import QueryResultCache
from repro.search.dynamic_index import DynamicHashIndex


class TestDynamicHashTable:
    def test_add_and_get(self):
        table = DynamicHashTable(code_length=3)
        table.add(7, np.array([1, 0, 1], dtype=np.uint8))
        assert table.get(0b101).tolist() == [7]
        assert table.num_items == 1

    def test_add_by_signature(self):
        table = DynamicHashTable(code_length=4)
        table.add(1, 9)
        assert 9 in table

    def test_duplicate_id_rejected(self):
        table = DynamicHashTable(code_length=2)
        table.add(0, 1)
        with pytest.raises(KeyError):
            table.add(0, 2)

    def test_signature_range_checked(self):
        table = DynamicHashTable(code_length=2)
        with pytest.raises(ValueError):
            table.add(0, 4)

    def test_remove_tombstones(self):
        table = DynamicHashTable(code_length=2)
        table.add_batch(np.arange(4), np.array(
            [[0, 0], [0, 0], [0, 0], [1, 1]], dtype=np.uint8))
        table.remove(1)
        assert table.num_items == 3
        assert table.get(0).tolist() == [0, 2]

    def test_remove_absent_raises(self):
        table = DynamicHashTable(code_length=2)
        with pytest.raises(KeyError):
            table.remove(5)
        table.add(5, 0)
        table.remove(5)
        with pytest.raises(KeyError):
            table.remove(5)

    def test_lazy_compaction_frees_bucket(self):
        table = DynamicHashTable(code_length=2)
        table.add(0, 3)
        table.remove(0)
        assert len(table.get(3)) == 0
        assert 3 not in table
        # After compaction the id can be reused.
        table.add(0, 3)
        assert table.get(3).tolist() == [0]

    def test_signatures_skips_emptied_buckets(self):
        table = DynamicHashTable(code_length=2)
        table.add(0, 1)
        table.add(1, 2)
        table.remove(0)
        assert list(table.signatures()) == [2]

    def test_probers_work_on_dynamic_table(self):
        """Duck-typed interface: GQR probes a dynamic table directly."""
        table = DynamicHashTable(code_length=4)
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 2, size=(50, 4)).astype(np.uint8)
        table.add_batch(np.arange(50), codes)
        costs = np.abs(rng.standard_normal(4))
        buckets = list(GQR().probe(table, 0, costs))
        assert sorted(buckets) == list(range(16))

    def test_expected_population(self):
        table = DynamicHashTable(code_length=1)
        table.add_batch(np.arange(4), np.array(
            [[0], [0], [1], [1]], dtype=np.uint8))
        assert table.expected_population() == 2.0

    def test_gather_overlapping_a_write_sees_one_instant(self):
        # A write that lands between a gather's bucket reads (another
        # thread, in production) must not make the gather see an id in
        # both its old and its new bucket.
        table = DynamicHashTable(code_length=2)
        for item, signature in enumerate((0, 1, 2)):
            table.add(item, signature)
        layout = table.layout()
        moves = []

        class MovingList(list):
            def __getitem__(self, slot):
                if slot == 1 and not moves:
                    moves.append(slot)
                    table.remove(0)
                    table.add(0, 2)
                return super().__getitem__(slot)

        layout.buckets = MovingList(layout.buckets)
        ids, lengths = layout.gather(np.arange(3))
        assert moves
        assert sorted(ids.tolist()) == [0, 1, 2]
        assert lengths.tolist() == [0, 1, 2]

    def test_misaligned_batch(self):
        table = DynamicHashTable(code_length=2)
        with pytest.raises(ValueError):
            table.add_batch(np.arange(3), np.zeros((2, 2), dtype=np.uint8))


@pytest.fixture(scope="module")
def stream_data():
    return gaussian_mixture(2000, 16, n_clusters=12, seed=9)


@pytest.fixture()
def dynamic_index(stream_data):
    hasher = ITQ(code_length=7, seed=0).fit(stream_data)
    return DynamicHashIndex(hasher, dim=16)


class TestDynamicHashIndex:
    def test_requires_fitted_hasher(self):
        with pytest.raises(ValueError):
            DynamicHashIndex(ITQ(code_length=4), dim=8)

    def test_add_assigns_sequential_ids(self, dynamic_index, stream_data):
        ids = dynamic_index.add(stream_data[:10])
        assert ids.tolist() == list(range(10))
        assert dynamic_index.num_items == 10

    def test_search_matches_static_ground_truth(self, dynamic_index, stream_data):
        dynamic_index.add(stream_data[:500])
        query = stream_data[3]
        result = dynamic_index.search(query, k=5, n_candidates=500)
        truth, _ = knn_linear_scan(query[None, :], stream_data[:500], 5)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))

    def test_removed_items_never_returned(self, dynamic_index, stream_data):
        ids = dynamic_index.add(stream_data[:100])
        query = stream_data[0]
        dynamic_index.remove(ids[:50])
        result = dynamic_index.search(query, k=10, n_candidates=100)
        assert not set(result.ids.tolist()) & set(ids[:50].tolist())

    def test_id_recycling(self, dynamic_index, stream_data):
        ids = dynamic_index.add(stream_data[:5])
        dynamic_index.remove(ids[2])
        new_id = dynamic_index.add(stream_data[5:6])
        assert new_id[0] == ids[2]  # recycled
        result = dynamic_index.search(stream_data[5], k=1, n_candidates=50)
        assert result.ids[0] == new_id[0]

    def test_dimension_validated(self, dynamic_index):
        with pytest.raises(ValueError):
            dynamic_index.add(np.zeros((1, 3)))

    def test_churn_consistency(self, dynamic_index, stream_data):
        """Interleaved adds/removes keep search exact over live items."""
        rng = np.random.default_rng(1)
        live = {}
        cursor = 0
        for _ in range(20):
            batch = stream_data[cursor : cursor + 30]
            cursor += 30
            for item_id, row in zip(dynamic_index.add(batch), batch):
                live[int(item_id)] = row
            if len(live) > 50:
                victims = rng.choice(list(live), size=10, replace=False)
                dynamic_index.remove(victims)
                for victim in victims:
                    del live[int(victim)]
        query = stream_data[0]
        result = dynamic_index.search(
            query, k=5, n_candidates=dynamic_index.num_items
        )
        live_ids = np.asarray(sorted(live), dtype=np.int64)
        live_rows = np.asarray([live[int(i)] for i in live_ids])
        dists = np.linalg.norm(live_rows - query, axis=1)
        expected = live_ids[np.lexsort((live_ids, dists))[:5]]
        assert np.array_equal(np.sort(result.ids), np.sort(expected))


class TestAllOrNothingWrites:
    """A write that raises leaves the index (and its cache) untouched."""

    @pytest.fixture()
    def cached_index(self, stream_data):
        hasher = ITQ(code_length=7, seed=0).fit(stream_data)
        index = DynamicHashIndex(hasher, dim=16, cache=QueryResultCache())
        index.add(stream_data[:100])
        return index

    def test_remove_with_an_absent_id_removes_nothing(
        self, cached_index, stream_data
    ):
        query = stream_data[0]
        before = cached_index.search(query, k=5, n_candidates=100)
        live = int(before.ids[0])
        with pytest.raises(KeyError):
            cached_index.remove([live, 10**6])
        assert cached_index.num_items == 100
        after = cached_index.search(query, k=5, n_candidates=100)
        np.testing.assert_array_equal(after.ids, before.ids)
        # The id was not freed: the next add gets a fresh one.
        assert cached_index.add(stream_data[100:101]).tolist() == [100]
        # And it can still be removed, which the cache sees at once.
        cached_index.remove(live)
        fresh = cached_index.search(query, k=5, n_candidates=100)
        assert live not in fresh.ids.tolist()

    def test_remove_with_a_repeated_id_removes_nothing(self, cached_index):
        with pytest.raises(KeyError, match="repeated"):
            cached_index.remove([5, 5])
        assert cached_index.num_items == 100
        cached_index.remove(5)
        assert cached_index.num_items == 99

    def test_add_rejects_non_finite_items(self, cached_index, stream_data):
        for bad in (np.nan, np.inf, -np.inf):
            items = stream_data[100:103].copy()
            items[1, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                cached_index.add(items)
        assert cached_index.num_items == 100
        assert cached_index.add(stream_data[100:101]).tolist() == [100]

    def test_table_batches_are_all_or_nothing(self):
        table = DynamicHashTable(code_length=3)
        table.add_batch(np.arange(4), np.eye(4, 3, dtype=np.uint8))
        with pytest.raises(KeyError):
            table.remove_batch(np.array([0, 9]))
        with pytest.raises(KeyError):
            table.add_batch(np.array([7, 2]), np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(KeyError):
            table.add_batch(np.array([7, 7]), np.zeros((2, 3), dtype=np.uint8))
        assert table.num_items == 4
        assert sorted(table.bucket_sizes().items()) == [
            (0, 1), (1, 1), (2, 1), (4, 1)
        ]
