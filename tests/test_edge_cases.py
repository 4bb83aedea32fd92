"""Cross-cutting edge cases and failure-injection tests.

Inputs a production system will eventually see: NaN vectors, tiny
datasets, k larger than the candidate pool, duplicate items, extreme
code lengths, and queries far outside the trained distribution.
"""

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ, PCAHashing
from repro.index.hash_table import HashTable
from repro.quantization.pq import ProductQuantizer
from repro.search import DynamicHashIndex
from repro.search.searcher import HashIndex, IMISearchIndex, MIHSearchIndex


class TestNaNAndInfinity:
    def test_fit_rejects_nan(self):
        data = np.zeros((10, 4))
        data[3, 2] = np.nan
        with pytest.raises(ValueError):
            ITQ(code_length=3).fit(data)

    def test_fit_rejects_infinity(self):
        data = np.zeros((10, 4))
        data[0, 0] = np.inf
        with pytest.raises(ValueError):
            PCAHashing(code_length=3).fit(data)


class TestNonFiniteItemsRejected:
    """A NaN or inf row would be stored but could never be returned."""

    @pytest.fixture(scope="class")
    def clean(self):
        return gaussian_mixture(300, 8, seed=2)

    @pytest.fixture(scope="class")
    def dirty(self, clean):
        data = clean.copy()
        data[7, 3] = np.nan
        data[9, 0] = np.inf
        return data

    def test_hash_index_over_a_fitted_hasher(self, clean, dirty):
        hasher = ITQ(code_length=4, seed=0).fit(clean)
        with pytest.raises(ValueError, match="non-finite"):
            HashIndex(hasher, dirty)

    def test_mih_index_over_a_fitted_hasher(self, clean, dirty):
        hasher = ITQ(code_length=4, seed=0).fit(clean)
        with pytest.raises(ValueError, match="non-finite"):
            MIHSearchIndex(hasher, dirty)

    def test_imi_index(self, clean, dirty):
        pq = ProductQuantizer(2, n_centroids=4, seed=0).fit(clean)
        with pytest.raises(ValueError, match="non-finite"):
            IMISearchIndex(pq, dirty)

    def test_dynamic_index_add(self, clean, dirty):
        index = DynamicHashIndex(ITQ(code_length=4, seed=0).fit(clean), 8)
        for row in (7, 9):
            with pytest.raises(ValueError, match="non-finite"):
                index.add(dirty[row])
        assert index.num_items == 0


class TestTinyDatasets:
    def test_index_over_three_items(self):
        data = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        index = HashIndex(ITQ(code_length=1, seed=0), data, prober=GQR())
        result = index.search(np.array([0.1, 0.1]), k=2, n_candidates=3)
        assert len(result.ids) == 2

    def test_k_exceeds_dataset(self):
        data = gaussian_mixture(50, 8, seed=0)
        index = HashIndex(ITQ(code_length=4, seed=0), data)
        result = index.search(data[0], k=100, n_candidates=50)
        # Returns everything it has, not an error.
        assert len(result.ids) == 50


class TestDuplicates:
    def test_all_identical_items(self):
        data = np.ones((100, 6)) + 1e-9 * np.random.default_rng(0).standard_normal((100, 6))
        index = HashIndex(ITQ(code_length=3, seed=0), data, prober=GQR())
        result = index.search(data[0], k=5, n_candidates=100)
        assert len(result.ids) == 5

    def test_duplicate_rows_all_retrievable(self):
        base = gaussian_mixture(100, 6, seed=1)
        data = np.concatenate([base, base])  # every point twice
        index = HashIndex(ITQ(code_length=4, seed=0), data, prober=GQR())
        result = index.search(base[0], k=2, n_candidates=len(data))
        # Both copies of the nearest point come back first.
        assert set(result.ids.tolist()) == {0, 100}


class TestExtremeCodeLengths:
    def test_one_bit_code(self):
        data = gaussian_mixture(200, 8, seed=2)
        index = HashIndex(ITQ(code_length=1, seed=0), data, prober=GQR())
        result = index.search(data[0], k=5, n_candidates=200)
        assert len(result.ids) == 5

    def test_code_length_equal_to_dims(self):
        data = gaussian_mixture(300, 8, seed=3)
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        result = index.search(data[0], k=3, n_candidates=100)
        assert 0 in result.ids


class TestOutOfDistributionQueries:
    def test_far_query_still_answers(self):
        data = gaussian_mixture(500, 8, seed=4)
        index = HashIndex(ITQ(code_length=5, seed=0), data, prober=GQR())
        far = np.full(8, 100.0)
        result = index.search(far, k=5, n_candidates=500)
        assert len(result.ids) == 5
        # Exactness at full budget even off-distribution.
        dists = np.linalg.norm(data - far, axis=1)
        expected = np.lexsort((np.arange(len(data)), dists))[:5]
        assert np.array_equal(np.sort(result.ids), np.sort(expected))

    def test_zero_query_vector(self):
        data = gaussian_mixture(300, 8, seed=5)
        index = HashIndex(ITQ(code_length=5, seed=0), data, prober=GQR())
        result = index.search(np.zeros(8), k=3, n_candidates=300)
        assert len(result.ids) == 3


class TestHashTableDegenerateShapes:
    def test_empty_table_search(self):
        table = HashTable(np.empty((0, 4), dtype=np.uint8))
        assert table.num_items == 0
        assert list(table.signatures()) == []
        assert table.expected_population() == 0.0

    def test_single_item_table(self):
        table = HashTable(np.asarray([[1, 0, 1]], dtype=np.uint8))
        assert table.num_buckets == 1
        assert table.get(0b101).tolist() == [0]
