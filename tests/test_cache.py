"""Query-result cache: identity, invalidation, eviction, telemetry.

The serving-layer guarantees under test:

* a hit returns the *same* ``SearchResult`` object the uncached
  execution produced — bit-identical ids and distances by construction;
* mutation (dynamic add/remove) can never serve a stale
  entry — generation numbers participate in every key;
* time-budgeted plans are never cached;
* hit/miss/eviction counters and the occupancy gauge are visible
  through :mod:`repro.obs`.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.search import (
    DynamicHashIndex,
    HashIndex,
    QueryPlan,
    QueryResultCache,
    cache_token,
    query_fingerprint,
)
from repro.search.cache import query_fingerprints


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(600, 16, n_clusters=6, seed=11)


@pytest.fixture(scope="module")
def queries(data):
    return sample_queries(data, 8, seed=3)


def make_index(data, cache=None):
    return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR(), cache=cache)


class TestFingerprint:
    def test_signed_zero_collapses(self):
        a = query_fingerprint(np.array([-0.0, 1.0]))
        b = query_fingerprint(np.array([0.0, 1.0]))
        assert a == b

    def test_sub_precision_noise_collapses(self):
        base = np.array([0.25, 0.5, 0.75])
        noisy = base + 1e-14
        assert query_fingerprint(base) == query_fingerprint(noisy)

    def test_distinct_values_differ(self):
        assert query_fingerprint(np.array([1.0, 2.0])) != query_fingerprint(
            np.array([1.0, 2.5])
        )

    def test_shape_participates(self):
        flat = np.array([1.0, 2.0])
        assert query_fingerprint(flat) != query_fingerprint(
            flat.reshape(1, 2)
        )

    def test_decimals_control_granularity(self):
        a, b = np.array([0.123456]), np.array([0.123457])
        assert query_fingerprint(a, decimals=4) == query_fingerprint(
            b, decimals=4
        )
        assert query_fingerprint(a, decimals=8) != query_fingerprint(
            b, decimals=8
        )

    def test_batch_matches_each_row(self):
        rows = np.random.default_rng(4).standard_normal((6, 8))
        rows[2] = -0.0
        rows[4] = rows[1] + 1e-14
        for block in (rows, np.asfortranarray(rows), rows[:, ::2]):
            assert query_fingerprints(block) == [
                query_fingerprint(row) for row in block
            ]
        assert query_fingerprints(np.empty((0, 8))) == []


class TestCacheCore:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryResultCache(capacity=0)
        with pytest.raises(ValueError, match="ttl_seconds"):
            QueryResultCache(ttl_seconds=0.0)
        with pytest.raises(ValueError, match="ttl_seconds"):
            QueryResultCache(ttl_seconds=math.nan)

    def test_time_budget_plans_not_cacheable(self):
        assert not QueryResultCache.cacheable(QueryPlan(k=1, time_budget=0.1))
        assert QueryResultCache.cacheable(QueryPlan(k=1, n_candidates=10))

    def test_tokens_are_process_unique(self):
        assert cache_token("hash") != cache_token("hash")

    def test_generation_changes_the_key(self):
        cache = QueryResultCache()
        plan = QueryPlan(k=2, n_candidates=10)
        query = np.array([1.0, 2.0])
        old = cache.key_for("t#0", 0, plan, query)
        new = cache.key_for("t#0", 1, plan, query)
        assert old != new

    def test_lru_eviction_order(self):
        cache = QueryResultCache(capacity=2)
        a, b, c = (("t", 0, 1, n, None, "euclidean", "round_robin", b"f")
                   for n in (1, 2, 3))
        cache.store(a, "ra")
        cache.store(b, "rb")
        assert cache.lookup(a) == "ra"  # refresh a; b is now LRU
        cache.store(c, "rc")
        assert cache.lookup(b) is None
        assert cache.lookup(a) == "ra"
        assert cache.lookup(c) == "rc"
        assert cache.stats["evictions"] == 1

    def test_ttl_expiry_with_injected_clock(self):
        clock = [0.0]
        cache = QueryResultCache(ttl_seconds=5.0, clock=lambda: clock[0])
        key = ("t", 0, 1, 1, None, "euclidean", "round_robin", b"f")
        cache.store(key, "r")
        clock[0] = 4.9
        assert cache.lookup(key) == "r"
        clock[0] = 10.0
        assert cache.lookup(key) is None
        stats = cache.stats
        assert stats["evictions"] == 1 and stats["occupancy"] == 0

    def test_invalidate_drops_everything(self):
        cache = QueryResultCache()
        for n in range(4):
            cache.store(("t", 0, 1, n, None, "e", "r", b"f"), n)
        assert cache.invalidate() == 4
        assert len(cache) == 0


class TestIndexIntegration:
    def test_hit_returns_the_stored_object(self, data, queries):
        index = make_index(data, cache=QueryResultCache())
        first = index.search(queries[0], k=5, n_candidates=100)
        second = index.search(queries[0], k=5, n_candidates=100)
        assert second is first
        assert index.cache.stats["hits"] == 1

    def test_cached_results_bit_identical_to_uncached(self, data, queries):
        cached = make_index(data, cache=QueryResultCache())
        plain = make_index(data)
        for query in queries:
            for _ in range(2):  # second pass is all cache hits
                got = cached.search(query, k=10, n_candidates=200)
                want = plain.search(query, k=10, n_candidates=200)
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.distances, want.distances)
        assert cached.cache.stats["hits"] == len(queries)

    def test_different_plans_do_not_collide(self, data, queries):
        index = make_index(data, cache=QueryResultCache())
        a = index.search(queries[0], k=5, n_candidates=50)
        b = index.search(queries[0], k=5, n_candidates=400)
        assert index.cache.stats["hits"] == 0
        assert b.n_candidates >= a.n_candidates

    def test_time_budget_searches_bypass_the_cache(self, data, queries):
        index = make_index(data, cache=QueryResultCache())
        index.search(queries[0], k=5, time_budget=10.0)
        index.search(queries[0], k=5, time_budget=10.0)
        stats = index.cache.stats
        assert stats["hits"] == stats["misses"] == stats["occupancy"] == 0


class TestMutationInvalidation:
    def build(self, data, cache):
        hasher = ITQ(code_length=8, seed=0).fit(data)
        index = DynamicHashIndex(hasher, dim=data.shape[1], cache=cache)
        index.add(data)
        return index

    def test_add_invalidates(self, data):
        cache = QueryResultCache()
        index = self.build(data[:-1], cache)
        query = data[-1]
        stale = index.search(query, k=3, n_candidates=600)
        # Insert the query point itself: it must show up immediately.
        (new_id,) = index.add(query[None, :])
        fresh = index.search(query, k=3, n_candidates=600)
        assert fresh is not stale
        assert fresh.ids[0] == new_id
        assert fresh.distances[0] == 0.0

    def test_remove_invalidates(self, data):
        cache = QueryResultCache()
        index = self.build(data, cache)
        query = data[0]
        before = index.search(query, k=3, n_candidates=600)
        nearest = int(before.ids[0])
        index.remove(nearest)
        after = index.search(query, k=3, n_candidates=600)
        assert nearest not in after.ids

    def test_unmutated_repeat_still_hits(self, data):
        cache = QueryResultCache()
        index = self.build(data, cache)
        first = index.search(data[0], k=3, n_candidates=100)
        assert index.search(data[0], k=3, n_candidates=100) is first


class TestTelemetry:
    def test_counters_and_gauge_exported(self, data, queries):
        index = make_index(data, cache=QueryResultCache(name="hash"))
        with obs.telemetry_session() as t:
            index.search(queries[0], k=5, n_candidates=100)
            index.search(queries[0], k=5, n_candidates=100)
            hits = t.registry.get("repro_cache_hits_total")
            misses = t.registry.get("repro_cache_misses_total")
            occupancy = t.registry.get("repro_cache_occupancy")
            latency = t.registry.get("repro_cache_hit_seconds")
            assert hits.labels(cache="hash").value == 1
            assert misses.labels(cache="hash").value == 1
            assert occupancy.labels(cache="hash").value == 1
            assert latency.labels(cache="hash").count == 1

    def test_silent_without_session(self, data, queries):
        index = make_index(data, cache=QueryResultCache())
        index.search(queries[0], k=5, n_candidates=100)
        index.search(queries[0], k=5, n_candidates=100)
        assert index.cache.stats["hits"] == 1  # no telemetry, no crash

    def test_ttl_eviction_counted_under_telemetry(self):
        # Injected clock + live session: a TTL expiry must surface in
        # the eviction counter and pull the occupancy gauge back down,
        # without any real time passing.
        clock = [0.0]
        cache = QueryResultCache(
            ttl_seconds=5.0, name="ttl", clock=lambda: clock[0]
        )
        key = ("t", 0, 1, 1, None, "euclidean", "round_robin", b"f")
        with obs.telemetry_session() as t:
            cache.store(key, "r")
            clock[0] = 10.0
            assert cache.lookup(key) is None
            evictions = t.registry.get("repro_cache_evictions_total")
            occupancy = t.registry.get("repro_cache_occupancy")
            misses = t.registry.get("repro_cache_misses_total")
            assert evictions.labels(cache="ttl").value == 1
            assert occupancy.labels(cache="ttl").value == 0
            assert misses.labels(cache="ttl").value == 1


class TestBatchCache:
    """``search_batch`` reads and fills the cache through the engine's
    one cache path, against an uncached twin built from the same hasher
    seed and data."""

    @staticmethod
    def same_answers(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.n_candidates == b.n_candidates
            assert a.n_buckets_probed == b.n_buckets_probed

    @staticmethod
    def spy(monkeypatch, obj, name):
        """Record the row count of every call to ``obj.name``."""
        calls = []
        original = getattr(obj, name)

        def recording(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(obj, name, recording)
        return calls

    def test_all_hit_batch_skips_hashing_and_scoring(
        self, data, queries, monkeypatch
    ):
        hasher, prober = ITQ(code_length=8, seed=0), GQR()
        index = HashIndex(
            hasher, data, prober=prober, cache=QueryResultCache()
        )
        first = index.search_batch(queries, k=5, n_candidates=100)
        hashed = self.spy(monkeypatch, hasher, "probe_info_batch")
        scored = self.spy(monkeypatch, prober, "batch_scores")
        second = index.search_batch(queries, k=5, n_candidates=100)
        assert all(a is b for a, b in zip(first, second))
        assert hashed == [] and scored == []
        stats = index.cache.stats
        assert stats["hits"] == stats["misses"] == len(queries)
        # A fresh row does reach the spies.
        index.search_batch(queries[:1] + 1.0, k=5, n_candidates=100)
        assert hashed == [1] and len(scored) == 1

    def test_mixed_batch_bit_identical_to_twin_and_single(
        self, data, queries
    ):
        cached = make_index(data, cache=QueryResultCache())
        plain = make_index(data)
        cached.search_batch(queries[:3], k=10, n_candidates=200)
        # Rows 0-2 hit, rows 3-4 miss, rows 5 and 6 are equal misses.
        mixed = np.vstack([queries[:5], queries[6], queries[6]])
        got = cached.search_batch(mixed, k=10, n_candidates=200)
        self.same_answers(
            got, plain.search_batch(mixed, k=10, n_candidates=200)
        )
        self.same_answers(
            got, [plain.search(q, 10, n_candidates=200) for q in mixed]
        )
        assert got[5] is got[6]
        assert cached.cache.stats["hits"] == 3

    def test_equal_rows_computed_once(self, data, queries, monkeypatch):
        index = make_index(data, cache=QueryResultCache())
        index.search_batch(queries[:1], k=5, n_candidates=100)
        rows = self.spy(monkeypatch, index.engine, "execute_batch_ordered")
        batch = np.vstack([queries[0], queries[1], queries[2], queries[1]])
        got = index.search_batch(batch, k=5, n_candidates=100)
        assert rows == [2]  # queries[1] and queries[2]; queries[0] hit
        assert got[1] is got[3]
        assert index.cache.stats["misses"] == 1 + 3

    def test_multi_table_streams_path_hits(self, data, queries, monkeypatch):
        def build(cache=None):
            hashers = [ITQ(code_length=8, seed=s) for s in (0, 1)]
            return HashIndex(hashers, data, prober=GQR(), cache=cache)

        cached, plain = build(QueryResultCache()), build()
        first = cached.search_batch(queries, k=5, n_candidates=100)
        self.same_answers(
            first, plain.search_batch(queries, k=5, n_candidates=100)
        )
        streamed = self.spy(
            monkeypatch, cached.engine, "execute_batch_streams"
        )
        second = cached.search_batch(queries, k=5, n_candidates=100)
        assert all(a is b for a, b in zip(first, second))
        assert streamed == []
        assert cached.cache.stats["hits"] == len(queries)
