"""Batch-path facts the bit-identity suites do not cover.

* ``execute_batch_streams`` drains each query's stream on its own, so
  each query's ``retrieval_seconds`` is that query's own drain span —
  not the batch's retrieval span split evenly across the rows.
* ``search_batch`` over an index with no items (a pre-fitted hasher
  over an empty array) answers every row with an empty result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search import HashIndex

SLOW_SECONDS = 0.2


def _slow(stream):
    time.sleep(SLOW_SECONDS)
    yield from stream


def test_slow_stream_is_charged_to_its_own_query():
    data = gaussian_mixture(300, 8, n_clusters=4, seed=5)
    index = HashIndex(ITQ(code_length=6, seed=0), data)
    queries = data[:4]
    streams = [index.candidate_stream(q) for q in queries]
    streams[1] = _slow(streams[1])
    results = index.engine.execute_batch_streams(
        queries, index.plan(5, 50), streams
    )
    seconds = [result.stats.retrieval_seconds for result in results]
    assert seconds[1] >= 0.75 * SLOW_SECONDS
    assert max(seconds[0], seconds[2], seconds[3]) < 0.25 * SLOW_SECONDS


def test_empty_index_batch_returns_empty_results():
    data = gaussian_mixture(100, 8, n_clusters=4, seed=6)
    hasher = ITQ(code_length=4, seed=0).fit(data)
    index = HashIndex(hasher, np.empty((0, 8)))
    results = index.search_batch(data[:3], k=2, n_candidates=5)
    assert len(results) == 3
    for result in results:
        assert len(result.ids) == 0
        assert len(result.distances) == 0
        assert result.n_candidates == 0
