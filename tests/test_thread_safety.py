"""Regression tests for races found by reprolint RL012.

The compaction test fails against the pre-fix code with a ``KeyError``
(run it on the parent commit to see): ``DynamicHashTable.get``
compacts tombstones lazily — a *read* that mutates
``_buckets``/``_bucket_of``/``_dead`` — so worker threads probing
the same bucket raced the compaction and double-``del``ed entries.  The
layout test likewise failed pre-fix: racing first calls to
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
that must hold under the per-child-lock contract, not timing.
"""

import sys
import threading

import numpy as np
import pytest

from repro.index.dynamic import DynamicHashTable
from repro.index.hash_table import HashTable
from repro.obs.sampling import TraceSampler
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
