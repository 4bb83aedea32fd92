"""Bit-identity of the staged pipeline for rerank-free plans.

The tentpole refactor decomposed ``QueryEngine.execute`` into typed
stages (Retrieve → DedupBudget → Evaluate → Truncate for plain plans).
Its contract: for any plan without rerank, every index type
returns *bit-identical* results to the classic inline loop.  The
reference here re-implements that loop — drain the candidate stream
with interleaved dedup/budget accounting, score once with the engine's
own evaluator, cut to k — without touching any stage machinery, and
hypothesis drives (k, budget, query) across all six index front-ends.
Reranked batches must equal reranked singles, and exact rerank must
beat the candidate-only ranking's recall at the same budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import gaussian_mixture, ground_truth_knn, sample_queries
from repro.eval.metrics import mean_recall
from repro.hashing import ITQ
from repro.quantization.pq import ProductQuantizer
from repro.search import (
    CompactHashIndex,
    DynamicHashIndex,
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
    QueryPlan,
    RerankSpec,
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


def _build_compact():
    probe = ITQ(code_length=6, seed=0).fit(DATA)
    rerank = ITQ(code_length=12, seed=1).fit(DATA)
    return CompactHashIndex(probe, rerank, DATA)


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
    "compact": _build_compact,
    "dynamic": _build_dynamic,
    "multi": _build_multi,
}

_INDEXES: dict[str, object] = {}


def get_index(name: str):
    if name not in _INDEXES:
        _INDEXES[name] = BUILDERS[name]()
    return _INDEXES[name]


def _reranking_hash_index():
    """A hash index with both rerank modes (exact and ADC) registered."""
    if "hash+pq" not in _INDEXES:
        _INDEXES["hash+pq"] = HashIndex(
            ITQ(code_length=8, seed=0), DATA,
            rerank_quantizer=ProductQuantizer(n_subspaces=4, seed=0),
        )
    return _INDEXES["hash+pq"]


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
            "retrieve", "dedup_budget", "evaluate", "truncate"
        }
        assert stats.retrieval_seconds == pytest.approx(
            stats.stage_seconds["retrieve"]
            + stats.stage_seconds["dedup_budget"]
        )
        assert stats.evaluation_seconds == pytest.approx(
            stats.stage_seconds["evaluate"]
        )


class TestBatchMatchesSerial:
    """The batched fast paths skip stage objects entirely for plain
    plans; rerank plans apply post stages per row.  Both must match the
    single-query pipeline bit-for-bit."""

    def test_plain_batch_matches_singles(self):
        index = get_index("hash")
        results = index.search_batch(QUERIES, k=10, n_candidates=120)
        for query, batched in zip(QUERIES, results):
            single = index.search(query, k=10, n_candidates=120)
            np.testing.assert_array_equal(batched.ids, single.ids)
            np.testing.assert_array_equal(
                batched.distances, single.distances
            )

    @pytest.mark.parametrize(
        "mode,pool",
        [("exact", None), ("exact", 40), ("adc", None), ("adc", 40)],
    )
    def test_reranked_batch_matches_singles(self, mode, pool):
        index = _reranking_hash_index()
        spec = RerankSpec(mode=mode, pool=pool)
        results = index.search_batch(
            QUERIES, k=10, n_candidates=120, rerank=spec
        )
        for query, batched in zip(QUERIES, results):
            single = index.search(
                query, k=10, n_candidates=120, rerank=spec
            )
            np.testing.assert_array_equal(batched.ids, single.ids)
            np.testing.assert_array_equal(
                batched.distances, single.distances
            )


#: Every front-end with a plain plan, and with an exact rerank plan
#: wherever one is registered (compact has no exact reranker).
_STREAMS_CASES = [(name, None) for name in sorted(BUILDERS)] + [
    (name, "exact") for name in sorted(BUILDERS) if name != "compact"
]


class TestStreamsBatch:
    """``execute_batch_streams`` over every front-end's engine — the
    MIH, IMI, compact, dynamic and multi-table engines included — must equal
    per-query ``engine.execute`` over the same candidate streams."""

    @pytest.mark.parametrize("name,rerank", _STREAMS_CASES)
    def test_matches_execute(self, name, rerank):
        index = get_index(name)
        engine = index.engine
        plan = QueryPlan(
            k=10,
            n_candidates=200,
            rerank=(
                RerankSpec(mode=rerank, pool=40)
                if rerank is not None else None
            ),
        )
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


def test_exact_rerank_beats_candidate_only_recall():
    """At a matched candidate budget, exact reranking strictly beats
    the candidate-only ranking of a code-evaluated index on Recall@10:
    code distances keep that ranking coarse, and the exact stage
    re-scores the same candidates with true distances."""
    data = gaussian_mixture(2_000, 32, n_clusters=40, cluster_spread=1.0,
                            seed=7)
    queries = sample_queries(data, 40, seed=8)
    truth = ground_truth_knn(queries, data, 10)
    index = HashIndex(
        ITQ(code_length=12, seed=0), data,
        evaluation="code",
        rerank_quantizer=ProductQuantizer(n_subspaces=8, seed=0),
    )

    def recall(rerank):
        returned = [
            index.search(q, k=10, n_candidates=200, rerank=rerank).ids
            for q in queries
        ]
        return mean_recall(returned, truth)

    assert recall(RerankSpec(mode="exact")) > recall(None)
