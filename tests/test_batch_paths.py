"""Batch-path facts the bit-identity suites do not cover.

* ``execute_batch_streams`` drains each query's stream on its own, so
  each query's ``retrieval_seconds`` is that query's own drain span —
  not the batch's retrieval span split evenly across the rows.
* ``search_batch`` over an index with no items (a pre-fitted hasher
  over an empty array) answers every row with an empty result.
* The ordered kernel ranks buckets in blocks of ``engine._SCORE_BLOCK``
  rows: batches on either side of a block edge answer every row as
  that row alone does, counters included.  Each block is ranked from
  one generation-tree prefix, and only the rows it leaves uncertified
  are scored, in one bucket-scoring call; with the certificate
  defeated that is one call per block over all its rows.  A 256-row
  batch never holds a whole-batch score matrix.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core.tree_prefix import TreePrefix
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.search import HashIndex
from repro.search.engine import _SCORE_BLOCK

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


@pytest.fixture(scope="module")
def block_index():
    # Unclustered items fill most of the 1,024 buckets, so blocks rank
    # from a generation-tree prefix.  At the data mean every flip cost
    # is 0 and every QD ties: those rows fall back to score rows.
    data = np.random.default_rng(8).standard_normal((6000, 16))
    index = HashIndex(ITQ(code_length=10, seed=0), data)
    queries = sample_queries(data, 256, seed=2)
    queries[[5, 70, 71, 200]] = data.mean(axis=0)
    return index, queries


def _spy_ranking(index, monkeypatch, defeat=False):
    """Record each block's uncertified rows and each scoring call's rows.

    With ``defeat`` the tree prefix certifies no row.
    """
    uncertified, scored = [], []
    rank = TreePrefix.rank

    def spy_rank(self, query_signatures, *args):
        ranked = rank(self, query_signatures, *args)
        if defeat:
            ranked = ranked._replace(
                certified=np.zeros_like(ranked.certified)
            )
        uncertified.append(query_signatures[~ranked.certified].tolist())
        return ranked

    batch_scores = index.prober.batch_scores

    def spy_scores(*args):
        scored.append(args[2].tolist())  # the scored rows' signatures
        return batch_scores(*args)

    monkeypatch.setattr(TreePrefix, "rank", spy_rank)
    monkeypatch.setattr(index.prober, "batch_scores", spy_scores)
    return uncertified, scored


def _assert_rows_alone(index, queries, batch):
    for query, got in zip(queries, batch, strict=True):
        [alone] = index.search_batch(query[np.newaxis], k=7, n_candidates=120)
        assert got.ids.tobytes() == alone.ids.tobytes()
        assert got.distances.tobytes() == alone.distances.tobytes()
        assert got.n_candidates == alone.n_candidates
        assert got.n_buckets_probed == alone.n_buckets_probed


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 256])
def test_score_blocks_match_rows_run_alone(block_index, rows, monkeypatch):
    index, queries = block_index
    uncertified, scored = _spy_ranking(index, monkeypatch)
    batch = index.search_batch(queries[:rows], k=7, n_candidates=120)
    # One tree ranking per block; a scoring call only for the rows it
    # left uncertified, which include every row at the data mean.
    assert len(uncertified) == len(range(0, rows, _SCORE_BLOCK))
    assert scored == [block for block in uncertified if block]
    infos = index._hashers[0].probe_info_batch(queries[:rows])
    at_mean = {infos[row][0] for row in (5, 70, 71, 200) if row < rows}
    assert at_mean <= {sig for block in uncertified for sig in block}
    assert sum(map(len, scored)) < rows / 2  # the tree ranks most rows
    _assert_rows_alone(index, queries[:rows], batch)


@pytest.mark.parametrize("rows", [63, 65, 256])
def test_defeated_certificate_scores_every_row(block_index, rows, monkeypatch):
    index, queries = block_index
    uncertified, scored = _spy_ranking(index, monkeypatch, defeat=True)
    batch = index.search_batch(queries[:rows], k=7, n_candidates=120)
    assert [len(block) for block in scored] == [
        min(_SCORE_BLOCK, rows - lo) for lo in range(0, rows, _SCORE_BLOCK)
    ]
    assert scored == uncertified
    _assert_rows_alone(index, queries[:rows], batch)


def test_batch_transient_stays_below_one_score_matrix():
    # Unclustered items occupy most of the 4,096 buckets, so a
    # whole-batch (256, buckets) float64 score matrix would be 8 MB.
    data = np.random.default_rng(9).standard_normal((20_000, 16))
    index = HashIndex(ITQ(code_length=12, seed=0), data)
    queries = sample_queries(data, 256, seed=4)
    index.search_batch(queries, 10, 200)
    n_buckets = len(index.tables[0].dense_layout()[0])
    tracemalloc.start()
    try:
        index.search_batch(queries, 10, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(queries) * n_buckets * 8
