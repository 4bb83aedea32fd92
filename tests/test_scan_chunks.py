"""How the Theorem 2 scan sizes its chunks.

After each chunk, when the limit is finite and above the bound of the
bucket that reaches the cap, ``HashIndex._theorem2_scan`` takes every
remaining bucket up to the cap as one chunk; otherwise chunks double
from ``searcher._FIRST_CHUNK``.  Each test counts the scan's
``ExactEvaluator.distances`` calls (one per chunk) and checks the answer
and counters against the per-bucket reference loops of
``test_theorem2_scan.py``:

* a loose-regime kNN query with a cap takes its first chunk, then the
  rest up to the cap in one more;
* a tight-regime query whose limit falls inside that last chunk stops
  there, with the reference's counters;
* a range search whose radius clears every bound takes one chunk.
"""

from functools import lru_cache

import numpy as np
import pytest
from test_theorem2_scan import (
    _index,
    _probe,
    _query,
    assert_same,
    reference_early_stop,
    reference_range,
)

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search import searcher
from repro.search.engine import ExactEvaluator
from repro.search.searcher import HashIndex


@lru_cache(maxsize=None)
def _loose_index() -> tuple[HashIndex, ITQ]:
    # Wide clusters: the bound certifies nothing, so a capped query
    # probes up to its cap, as bulk-recall's exact queries do.
    data = gaussian_mixture(3000, 12, n_clusters=20, cluster_spread=1.0, seed=1)
    hasher = ITQ(code_length=8, seed=0)
    return HashIndex(hasher, data, prober=GQR()), hasher


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Candidates of each ``ExactEvaluator.distances`` call, in order."""
    sizes: list[int] = []
    distances = ExactEvaluator.distances

    def spy(self, query, candidates, *args, **kwargs):
        sizes.append(len(candidates))
        return distances(self, query, candidates, *args, **kwargs)

    monkeypatch.setattr(ExactEvaluator, "distances", spy)
    return sizes


def test_loose_query_takes_the_rest_of_the_cap_in_one_chunk(chunk_sizes):
    index, hasher = _loose_index()
    k, cap, fired = 10, 1500, 0
    for row in range(0, 3000, 150):
        rng = np.random.default_rng(row)
        query = index.data[row] + 0.02 * rng.standard_normal(12)
        expected = reference_early_stop(index, hasher, query, k, cap)
        chunk_sizes.clear()
        result = index.search_early_stop(query, k, cap)
        assert_same(result, expected)
        assert chunk_sizes[0] < 2 * searcher._FIRST_CHUNK
        # The limit after the first chunk against the bound of the
        # bucket that reaches the cap.
        probed = list(_probe(index, hasher, query))
        ends = np.cumsum([len(ids) for _, ids in probed])
        first = np.concatenate(
            [ids for _, ids in probed[:np.searchsorted(ends, chunk_sizes[0]) + 1]]
        )
        limit = np.sort(np.linalg.norm(index.data[first] - query, axis=1))[k - 1]
        if probed[np.searchsorted(ends, cap)][0] < limit:
            # The second chunk reaches the cap, unless a stop came
            # first inside it.
            fired += 1
            assert len(chunk_sizes) == 2
            assert sum(chunk_sizes) >= cap
        else:
            assert len(chunk_sizes) > 2 or expected[4]
    # Bulk-recall's case: the rule fires after most first chunks.
    assert fired >= 12


@pytest.mark.parametrize(
    ("row", "k", "cap"), [(112, 1, 400), (112, 5, 400), (196, 5, 400)]
)
def test_tight_query_stops_inside_the_last_chunk(
    row, k, cap, chunk_sizes, monkeypatch
):
    # A small first chunk leaves a loose limit; the cap's chunk then
    # brings distances that fall below its later buckets' bounds.
    monkeypatch.setattr(searcher, "_FIRST_CHUNK", 2)
    index, hasher = _index(6, True)
    query = _query(index, row, 0.3)
    expected = reference_early_stop(index, hasher, query, k, cap)
    chunk_sizes.clear()
    result = index.search_early_stop(query, k, cap)
    assert_same(result, expected)
    assert result.stats.early_stop_triggered
    assert len(chunk_sizes) == 2
    assert sum(chunk_sizes) >= cap
    # The stop lies well inside the last chunk, not at its end.
    assert result.n_candidates - chunk_sizes[0] < 0.8 * chunk_sizes[1]


@pytest.mark.parametrize("code_length", [6, 8, 10])
@pytest.mark.parametrize("tight", [False, True])
def test_range_clearing_every_bound_takes_one_chunk(
    code_length, tight, chunk_sizes
):
    index, hasher = _index(code_length, tight)
    query = _query(index, 5, 0.02)
    # Just above the largest bucket bound: nothing stops at it.
    radius = max(bound for bound, _ in _probe(index, hasher, query))
    radius *= 1 + 1e-9
    expected = reference_range(index, hasher, query, radius)
    chunk_sizes.clear()
    result = index.search_range(query, radius)
    assert_same(result, expected)
    assert chunk_sizes == [index.num_items]
