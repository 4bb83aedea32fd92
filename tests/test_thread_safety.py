"""Regression tests for races found by reprolint RL012.

The compaction test was written when ``DynamicHashTable.get``
compacted tombstones lazily — a *read* that mutated the table — and
worker threads probing the same bucket raced the compaction and
double-``del``ed entries.  Reads no longer mutate the table; the test
still pins that concurrent ``get`` calls see the survivors.  The
layout test failed on the code before its fix: racing first calls to
``HashTable.dense_layout`` built distinct tuples instead of one cached
layout.

The counter tests (``TraceSampler._seen``, ``QueryEngine.generation``)
pin the locked invariants for unlocked ``+=`` races that RL012 flags
statically.  They do not reproduce on current CPython — 3.11's eval
breaker has no preemption point between the LOAD_ATTR and STORE_ATTR
of these particular statements — but that is an implementation
accident, not a contract, and it does not survive free-threaded
builds.

The hammer tests force thread interleaving with a tiny
``sys.setswitchinterval`` and a start barrier; they assert invariants
that must hold under the per-child-lock contract, not timing.  The
batch-cache test hammers ``search_batch`` on one cached index from
many threads, as ``AsyncFrontDoor(max_workers>1)`` workers do.  The
dynamic-index hammer runs lock-free readers against one writer that
adds, removes and recycles ids.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.index.dynamic import DynamicHashTable
from repro.index.hash_table import HashTable
from repro.obs.sampling import TraceSampler
from repro.probing.ghr import GenerateHammingRanking
from repro.search import DynamicHashIndex, HashIndex, QueryResultCache
from repro.search.engine import ExactEvaluator, QueryEngine


@pytest.fixture(autouse=True)
def _aggressive_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    errors = []

    def run():
        barrier.wait()
        try:
            fn()
        except BaseException as exc:  # noqa: B036  # reprolint: disable=RL005 -- collected across threads and re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestTraceSamplerRace:
    def test_concurrent_should_sample_loses_no_counts(self):
        sampler = TraceSampler(every_n=8, capacity=4, seed=0)
        per_thread = 2000
        n_threads = 8
        decisions = []
        lock = threading.Lock()

        def work():
            hits = sum(
                1 for _ in range(per_thread) if sampler.should_sample()
            )
            with lock:
                decisions.append(hits)

        _hammer(n_threads, work)
        total = per_thread * n_threads
        # Unlocked `+=` loses increments: seen < total pre-fix.
        assert sampler.seen == total
        # Exactly one query in every `every_n` is selected; lost counts
        # also break this (duplicate residues get sampled twice).
        assert sum(decisions) == total // sampler.every_n

    def test_concurrent_record_and_clear_keep_ring_consistent(self):
        sampler = TraceSampler(every_n=1, capacity=16, seed=0)

        def work():
            for _ in range(500):
                sampler.should_sample()
                sampler.record(spans=None, stats={"ok": 1})
                sampler.traces()

        _hammer(4, work)
        assert len(sampler.traces()) == 16


class TestDynamicTableCompactionRace:
    def test_concurrent_get_compaction_does_not_corrupt(self):
        # Repeat the race window many times: each round builds a bucket
        # whose tombstones exceed half its population, then lets every
        # thread trigger compaction at once.  Pre-fix this dies with
        # KeyError in the double `del self._bucket_of[item]`.
        for round_no in range(20):
            table = DynamicHashTable(code_length=8)
            ids = np.arange(64, dtype=np.int64)
            codes = np.zeros((64, 8), dtype=np.uint8)  # one bucket: sig 0
            table.add_batch(ids, codes)
            for item in range(40):
                table.remove(item)

            results = []
            lock = threading.Lock()

            def work():
                got = table.get(0)
                with lock:
                    results.append(got)

            _hammer(8, work)
            survivors = set(range(40, 64))
            for got in results:
                assert set(got.tolist()) == survivors
            assert table.num_items == 24

    def test_concurrent_add_keeps_alive_count(self):
        table = DynamicHashTable(code_length=10)
        n_threads, per_thread = 8, 200
        counter = iter(range(n_threads * per_thread))
        lock = threading.Lock()

        def work():
            for _ in range(per_thread):
                with lock:
                    item = next(counter)
                table.add(item, item % 1024)

        _hammer(n_threads, work)
        assert table.num_items == n_threads * per_thread


class TestDynamicIndexReadWriteHammer:
    @pytest.mark.parametrize("prober", [GQR, GenerateHammingRanking])
    def test_readers_see_whole_answers_while_a_writer_churns(self, prober):
        # Reads take no lock: they rank the published layout while one
        # writer adds and removes in place and recycles freed ids.  A
        # read may see each bucket before or after a write, but must
        # never raise, repeat an id or return one never added.
        data = gaussian_mixture(900, 16, n_clusters=6, seed=5)
        queries = sample_queries(data, 8, seed=6)
        index = DynamicHashIndex(
            ITQ(code_length=7, seed=0).fit(data), dim=16, prober=prober()
        )
        live = list(index.add(data[:300]).tolist())
        ever = set(live)
        seen: list[np.ndarray] = []
        errors: list[BaseException] = []
        done = threading.Event()
        k = 10

        def write():
            try:
                for step in range(60):
                    rows = data[300 + 8 * step:300 + 8 * (step + 1)]
                    added = index.add(rows).tolist()
                    ever.update(added)
                    index.remove(live[:8])
                    live[:8] = []
                    live.extend(added)
            except BaseException as exc:  # noqa: B036  # reprolint: disable=RL005 -- re-raised on the main thread below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    for query in queries:
                        result = index.search(query, k, 60)
                        assert len(result.ids) == k
                        assert len(set(result.ids.tolist())) == k
                        assert np.all(np.diff(result.distances) >= 0)
                        assert result.n_candidates >= k
                        seen.append(result.ids)
            except BaseException as exc:  # noqa: B036  # reprolint: disable=RL005 -- re-raised on the main thread below
                errors.append(exc)

        threads = [
            threading.Thread(target=target, daemon=True)
            for target in (read, read, read, write)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
        assert seen
        assert set(np.concatenate(seen).tolist()) <= ever
        assert index.num_items == 300


class TestDenseLayoutRace:
    def test_concurrent_dense_layout_builds_once(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 2, size=(512, 12)).astype(np.uint8)
        table = HashTable(codes)
        layouts = []
        lock = threading.Lock()

        def work():
            layout = table.dense_layout()
            with lock:
                layouts.append(layout)

        _hammer(8, work)
        # Every caller must observe the same cached tuple; pre-fix,
        # racing first calls built distinct (if equal-valued) layouts.
        first = layouts[0]
        assert all(layout is first for layout in layouts)


class TestGenerationBumpRace:
    def test_concurrent_bumps_lose_no_generations(self):
        data = np.zeros((4, 3))
        engine = QueryEngine(ExactEvaluator(data, "euclidean"))
        n_threads, per_thread = 8, 1000

        def work():
            for _ in range(per_thread):
                engine.bump_generation()

        _hammer(n_threads, work)
        assert engine.generation == n_threads * per_thread


class TestBatchCacheRace:
    def test_concurrent_batches_match_the_uncached_twin(self):
        # Front-door worker threads share one index and its cache;
        # batches overlap, so threads race to miss, compute and store
        # the same keys.
        data = gaussian_mixture(600, 16, n_clusters=6, seed=11)
        queries = sample_queries(data, 12, seed=3)
        cached = HashIndex(
            ITQ(code_length=8, seed=0), data, prober=GQR(),
            cache=QueryResultCache(),
        )
        plain = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        want = plain.search_batch(queries, 5, 100)
        n_threads, rounds, width = 8, 5, 8

        def work():
            for shift in range(rounds):
                rows = np.roll(np.arange(len(queries)), shift)[:width]
                got = cached.search_batch(queries[rows], 5, 100)
                for row, result in zip(rows, got):
                    assert np.array_equal(result.ids, want[row].ids)
                    assert np.array_equal(
                        result.distances, want[row].distances
                    )

        _hammer(n_threads, work)
        stats = cached.cache.stats
        assert stats["hits"] + stats["misses"] == n_threads * rounds * width
        assert stats["occupancy"] == len(queries)
