"""Bit-identity of the staged pipeline.

``QueryEngine`` runs every query as Retrieve → DedupBudget → Evaluate.
Its contract: every index type returns *bit-identical*
results to the classic inline loop.  The reference here re-implements
that loop — drain the candidate stream with interleaved dedup/budget
accounting, score once with the engine's own evaluator, cut to k —
without touching any stage machinery, and hypothesis drives (k,
budget, query) across all five index front-ends.  Batches must equal
singles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.quantization.pq import ProductQuantizer
from repro.search import (
    DynamicHashIndex,
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
    QueryPlan,
)

DATA = gaussian_mixture(600, 16, n_clusters=8, seed=11)
QUERIES = sample_queries(DATA, 16, seed=12)


def _build_hash():
    return HashIndex(ITQ(code_length=8, seed=0), DATA)


def _build_mih():
    return MIHSearchIndex(ITQ(code_length=8, seed=0), DATA, num_blocks=2)


def _build_imi():
    coarse = ProductQuantizer(n_subspaces=2, n_centroids=8, seed=0).fit(DATA)
    return IMISearchIndex(coarse, DATA)


def _build_dynamic():
    hasher = ITQ(code_length=8, seed=0).fit(DATA)
    index = DynamicHashIndex(hasher, DATA.shape[1])
    index.add(DATA)
    return index


def _build_multi():
    # Two tables yield overlapping ids; the round-robin stream drops
    # the repeats before the drain sees them.
    return HashIndex([ITQ(code_length=8, seed=0), ITQ(code_length=8, seed=1)], DATA)


BUILDERS = {
    "hash": _build_hash,
    "mih": _build_mih,
    "imi": _build_imi,
    "dynamic": _build_dynamic,
    "multi": _build_multi,
}

_INDEXES: dict[str, object] = {}


def get_index(name: str):
    if name not in _INDEXES:
        _INDEXES[name] = BUILDERS[name]()
    return _INDEXES[name]


def reference_search(index, query, k, budget):
    """The classic inline loop, stage-machinery-free.

    Same accounting as the seed engine: dedup within and across
    buckets, spend the budget on distinct ids, take the final bucket
    whole, then one evaluator call and a cut to k.
    """
    seen: set[int] = set()
    found: list[np.ndarray] = []
    total = 0
    for ids in index.candidate_stream(query):
        fresh = [i for i in dict.fromkeys(ids.tolist()) if i not in seen]
        if len(fresh) != len(ids):
            ids = np.asarray(fresh, dtype=np.int64)
        seen.update(fresh)
        found.append(ids)
        total += len(ids)
        if total >= budget:
            break
    if found:
        candidates = np.concatenate(found)
    else:
        candidates = np.empty(0, dtype=np.int64)
    ids, scores = index.engine.evaluator.evaluate(query, candidates, k)
    return ids, scores, total


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestStagedMatchesInlineReference:
    @given(
        k=st.integers(1, 30),
        budget=st.integers(1, 400),
        query_index=st.integers(0, len(QUERIES) - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_search_bit_identical(self, name, k, budget, query_index):
        index = get_index(name)
        query = QUERIES[query_index]
        result = index.search(query, k=k, n_candidates=budget)
        want_ids, want_scores, want_total = reference_search(
            index, query, k, budget
        )
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.distances, want_scores)
        assert result.n_candidates == want_total

    def test_stage_timing_totals_are_consistent(self, name):
        index = get_index(name)
        result = index.search(QUERIES[0], k=5, n_candidates=100)
        stats = result.stats
        assert set(stats.stage_seconds) == {
            "retrieve", "dedup_budget", "evaluate"
        }
        assert stats.retrieval_seconds == pytest.approx(
            stats.stage_seconds["retrieve"]
            + stats.stage_seconds["dedup_budget"]
        )
        assert stats.evaluation_seconds == pytest.approx(
            stats.stage_seconds["evaluate"]
        )


class TestBatchMatchesSerial:
    """The batched fast paths skip the per-row stages; they must match
    the single-query pipeline bit-for-bit."""

    def test_plain_batch_matches_singles(self):
        index = get_index("hash")
        results = index.search_batch(QUERIES, k=10, n_candidates=120)
        for query, batched in zip(QUERIES, results):
            single = index.search(query, k=10, n_candidates=120)
            np.testing.assert_array_equal(batched.ids, single.ids)
            np.testing.assert_array_equal(
                batched.distances, single.distances
            )


class TestStreamsBatch:
    """``execute_batch_streams`` over every front-end's engine — the
    MIH, IMI, dynamic and multi-table engines included — must equal
    per-query ``engine.execute`` over the same candidate streams."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_execute(self, name):
        index = get_index(name)
        engine = index.engine
        plan = QueryPlan(k=10, n_candidates=200)
        streams = [index.candidate_stream(q) for q in QUERIES]
        batched = engine.execute_batch_streams(QUERIES, plan, streams)
        assert len(batched) == len(QUERIES)
        for query, got in zip(QUERIES, batched):
            want = engine.execute(query, plan, index.candidate_stream(query))
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)
            assert got.n_candidates == want.n_candidates
            assert got.n_buckets_probed == want.n_buckets_probed

    @pytest.mark.parametrize("n_queries,n_streams", [(6, 4), (4, 6)])
    def test_rejects_query_stream_mismatch(self, n_queries, n_streams):
        # Regression: more queries than streams silently dropped the
        # extra queries; fewer raised a numpy IndexError mid-batch.
        index = get_index("hash")
        streams = [index.candidate_stream(q) for q in QUERIES[:n_streams]]
        with pytest.raises(ValueError, match="align"):
            index.engine.execute_batch_streams(
                QUERIES[:n_queries], index.plan(5, 100), streams
            )
