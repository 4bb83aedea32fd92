"""Top-k selection keeps the ``k`` smallest ``(score, id)`` pairs.

The one selection kernel, :func:`repro.search.engine.top_k`, narrows
with ``argpartition`` before sorting, and the engine's one body ranks
every segment of a ragged candidate block with it.  When a run of tied
scores straddles the k-th place, ``argpartition`` keeps an arbitrary
member of the run; the rule every path promises is "ties broken by id",
so the kernel and the block ranking must return exactly what a full
``(score, id)`` lexsort does.  Integer-valued scores tie most, so they
are checked on them too.

The second half pins the user-visible consequence: on an index whose
rows are each stored many times over, ``search``, ``search_batch`` and
``execute_batch_streams`` must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.search import HashIndex
from repro.search.engine import (
    ExactEvaluator,
    QueryEngine,
    QueryPlan,
    top_k,
)


def _reference(ids: np.ndarray, scores: np.ndarray, k: int):
    order = np.lexsort((ids, scores))[:k]
    return ids[order], scores[order]


@st.composite
def _segments(draw):
    n_segments = draw(st.integers(1, 6))
    counts = draw(
        st.lists(st.integers(0, 40), min_size=n_segments, max_size=n_segments)
    )
    total = sum(counts)
    # Few distinct integer values so ties at the cut are the norm.
    scores = np.asarray(
        draw(st.lists(st.integers(0, 4), min_size=total, max_size=total)),
        dtype=np.float64,
    )
    ids = np.asarray(draw(st.permutations(range(total))), dtype=np.int64)
    k = draw(st.integers(1, 45))
    return ids, scores, np.asarray(counts, dtype=np.int64), k


class TestKernelsMatchFullLexsort:
    @given(_segments())
    @settings(max_examples=200, deadline=None)
    def test_top_k(self, block):
        ids, scores, counts, k = block
        bounds = np.cumsum(counts)[:-1]
        for seg_ids, seg_scores in zip(
            np.split(ids, bounds), np.split(scores, bounds)
        ):
            got_ids, got_scores = top_k(seg_ids, seg_scores, k)
            want_ids, want_scores = _reference(seg_ids, seg_scores, k)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_scores, want_scores)

    @given(_segments())
    @settings(max_examples=200, deadline=None)
    def test_block_top_k(self, block):
        """The engine ranks a pre-scored ragged block segment by segment."""
        ids, scores, counts, k = block
        bounds = np.cumsum(counts)[:-1]
        engine = QueryEngine(ExactEvaluator(np.zeros((1, 1))))
        ranked = engine.run(
            np.zeros((len(counts), 1)),
            QueryPlan(k=k, n_candidates=1),
            lambda contexts: (ids, counts, scores),
        )
        assert len(ranked) == len(counts)
        for result, seg_ids, seg_scores in zip(
            ranked, np.split(ids, bounds), np.split(scores, bounds)
        ):
            want_ids, want_scores = _reference(seg_ids, seg_scores, k)
            np.testing.assert_array_equal(result.ids, want_ids)
            np.testing.assert_array_equal(result.distances, want_scores)


class TestRepeatedRowsIndex:
    """Every row stored 25 times: each distance is a 25-way tie."""

    def test_all_paths_agree(self):
        base = gaussian_mixture(80, 16, n_clusters=4, seed=3)
        data = np.repeat(base, 25, axis=0)
        index = HashIndex(ITQ(code_length=8, seed=0), data)
        queries = sample_queries(base, 32, seed=4)
        k, budget = 10, 300
        batched = index.search_batch(queries, k=k, n_candidates=budget)
        streamed = index.engine.execute_batch_streams(
            queries,
            index.plan(k, budget),
            [index.candidate_stream(q) for q in queries],
        )
        for query, from_batch, from_streams in zip(
            queries, batched, streamed
        ):
            single = index.search(query, k=k, n_candidates=budget)
            for other in (from_batch, from_streams):
                np.testing.assert_array_equal(other.ids, single.ids)
                np.testing.assert_array_equal(
                    other.distances, single.distances
                )
