"""Bit-identity of the staged pipeline for rerank-free plans.

The tentpole refactor decomposed ``QueryEngine.execute`` into typed
stages (Retrieve → DedupBudget → Evaluate → Truncate for plain plans).
Its contract: for any plan without rerank/fusion, every index type
returns *bit-identical* results to the classic inline loop.  The
reference here re-implements that loop — drain the candidate stream
with interleaved dedup/budget accounting, score once with the engine's
own evaluator, cut to k — without touching any stage machinery, and
hypothesis drives (k, budget, query) across all six index front-ends
plus the distributed coordinator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import gaussian_mixture, sample_queries
from repro.distributed.cluster import DistributedHashIndex, _split_budget
from repro.hashing import ITQ
from repro.index.qalsh import QALSH
from repro.quantization.pq import ProductQuantizer
from repro.search import (
    CompactHashIndex,
    DynamicHashIndex,
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
    QueryPlan,
    RerankSpec,
    StreamSearchIndex,
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


def _build_stream():
    return StreamSearchIndex(QALSH(DATA, n_projections=12, seed=0), DATA)


BUILDERS = {
    "hash": _build_hash,
    "mih": _build_mih,
    "imi": _build_imi,
    "compact": _build_compact,
    "dynamic": _build_dynamic,
    "stream": _build_stream,
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

    def test_reranked_batch_matches_singles(self):
        from repro.search import RerankSpec

        index = get_index("hash")
        spec = RerankSpec(mode="exact", pool=40)
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
    MIH, IMI, compact, dynamic and stream engines included — must equal
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


class TestDistributedCoordinator:
    """Rerank-free coordinator results match an inline scatter-gather
    reference (per-partition sub-search + sorted merge, no stages)."""

    @pytest.fixture(scope="class")
    def dist(self):
        hasher = ITQ(code_length=8, seed=0).fit(DATA)
        return DistributedHashIndex(hasher, DATA, num_workers=3, seed=0)

    @given(
        k=st.integers(1, 20),
        budget=st.integers(3, 300),
        query_index=st.integers(0, len(QUERIES) - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_rerank_free_matches_reference(
        self, dist, k, budget, query_index
    ):
        query = QUERIES[query_index]
        result = dist.search(query, k=k, n_candidates=budget)
        probe_info = dist._hasher.probe_info(query)
        merged = []
        budgets = _split_budget(budget, dist.num_partitions)
        for worker, sub_budget in zip(dist.workers, budgets):
            partial = worker.search_local(query, k, sub_budget, probe_info)
            merged.extend(
                (float(d), int(i))
                for d, i in zip(partial.distances, partial.ids)
            )
        merged.sort()
        del merged[k:]
        np.testing.assert_array_equal(
            result.ids, np.asarray([i for _, i in merged], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            result.distances,
            np.asarray([d for d, _ in merged], dtype=np.float64),
        )

    def test_post_merge_rerank_rescores_the_merged_pool(self, dist):
        from repro.search import ExactEvaluator, RerankSpec

        query = QUERIES[0]
        k, budget = 10, 150
        probe_info = dist._hasher.probe_info(query)
        merged = []
        budgets = _split_budget(budget, dist.num_partitions)
        for worker, sub_budget in zip(dist.workers, budgets):
            partial = worker.search_local(query, k, sub_budget, probe_info)
            merged.extend(
                (float(d), int(i))
                for d, i in zip(partial.distances, partial.ids)
            )
        merged.sort()
        pool = np.asarray([i for _, i in merged], dtype=np.int64)
        exact = ExactEvaluator(DATA, "euclidean")
        want_ids, want_dists = exact.evaluate(query, pool, k)
        result = dist.search(
            query, k=k, n_candidates=budget, rerank=RerankSpec()
        )
        assert result.extras["reranked"] is True
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.distances, want_dists)

    def test_non_exact_rerank_rejected(self, dist):
        from repro.search import RerankSpec

        with pytest.raises(ValueError, match="exact"):
            dist.search(
                QUERIES[0], k=5, n_candidates=60,
                rerank=RerankSpec(mode="adc"),
            )

    def test_shard_cache_shared_between_plain_and_reranked(self):
        from repro.search import QueryResultCache, RerankSpec

        hasher = ITQ(code_length=8, seed=0).fit(DATA)
        dist = DistributedHashIndex(
            hasher, DATA, num_workers=3, seed=0,
            shard_cache=QueryResultCache(capacity=64, name="shard"),
        )
        query = QUERIES[0]
        plain = dist.search(query, k=10, n_candidates=150)
        reranked = dist.search(
            query, k=10, n_candidates=150, rerank=RerankSpec()
        )
        # The sub-plans are rerank-agnostic, so the reranked query hits
        # every per-partition entry the plain query stored.
        assert reranked.extras["shard_cache_hits"] == dist.num_partitions
        assert plain.extras["shard_cache_hits"] == 0
