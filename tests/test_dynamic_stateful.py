"""Stateful property test: DynamicHashTable against a model dict.

Hypothesis drives random add/remove/lookup sequences and checks the
table never diverges from a trivially correct reference model —
covering the emptied-slot/compaction/recycling interactions that
example-based tests can miss.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.index.dynamic import DynamicHashTable
from repro.search import DynamicHashIndex

CODE_LENGTH = 4
MAX_SIGNATURE = (1 << CODE_LENGTH) - 1


class DynamicTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = DynamicHashTable(CODE_LENGTH)
        self.model: dict[int, int] = {}  # item_id -> signature
        self.next_id = 0

    @rule(signature=st.integers(0, MAX_SIGNATURE))
    def add_new(self, signature):
        item_id = self.next_id
        self.next_id += 1
        self.table.add(item_id, signature)
        self.model[item_id] = signature

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_existing(self, data):
        item_id = data.draw(st.sampled_from(sorted(self.model)))
        self.table.remove(item_id)
        del self.model[item_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), signature=st.integers(0, MAX_SIGNATURE))
    def readd_removed(self, data, signature):
        item_id = data.draw(st.sampled_from(sorted(self.model)))
        self.table.remove(item_id)
        self.table.add(item_id, signature)
        self.model[item_id] = signature

    @rule(signature=st.integers(0, MAX_SIGNATURE))
    def lookup(self, signature):
        expected = sorted(
            item for item, sig in self.model.items() if sig == signature
        )
        assert sorted(self.table.get(signature).tolist()) == expected

    @invariant()
    def counts_match(self):
        assert self.table.num_items == len(self.model)

    @invariant()
    def all_items_recoverable(self):
        recovered = []
        for signature in self.table.signatures():
            recovered.extend(self.table.get(signature).tolist())
        assert sorted(recovered) == sorted(self.model)

    @invariant()
    def bucket_count_matches_live_signatures(self):
        # Regression: counting buckets triggers lazy compaction, which
        # deletes fully-dead buckets; iterating the live dict while
        # compacting raised RuntimeError mid-count.
        assert self.table.num_buckets == len(set(self.model.values()))


DynamicTableMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestDynamicTableStateful = DynamicTableMachine.TestCase


class TestCompactionRegressions:
    def test_num_buckets_survives_compaction_of_dead_bucket(self):
        # All members of a bucket removed: counting must compact the
        # bucket away (not crash on dict mutation) and report 0.
        table = DynamicHashTable(4)
        table.add(0, 5)
        table.add(1, 5)
        table.remove(0)
        table.remove(1)
        assert table.num_buckets == 0

    def test_num_buckets_ignores_tombstone_only_buckets(self):
        table = DynamicHashTable(4)
        table.add(0, 3)
        table.add(1, 9)
        table.remove(1)
        assert table.num_buckets == 1


class TestRemoveThenAddAfterGrowth:
    """Removed items must never resurface after capacity growth.

    ``DynamicHashIndex`` recycles freed ids and reallocates its vector
    storage in ``_grow_to``; a stale slot surviving either path would
    show up as a wrong neighbour.  Pin search against brute force over
    the live set through a remove → grow → re-add cycle.
    """

    def brute_force(self, index, vectors, ids, query, k):
        order = np.lexsort(
            (ids, np.linalg.norm(vectors - query, axis=1))
        )[:k]
        return ids[order]

    def test_search_matches_brute_force_over_live_items(self):
        data = gaussian_mixture(64, 8, n_clusters=4, seed=13)
        extra = gaussian_mixture(200, 8, n_clusters=4, seed=14)
        hasher = ITQ(code_length=6, seed=0).fit(np.vstack([data, extra]))
        index = DynamicHashIndex(hasher, dim=8)

        live = {}  # id -> vector
        ids = index.add(data)
        live.update(zip(ids.tolist(), data))
        # Remove half, then add enough new items to force _grow_to to
        # reallocate storage (and recycle the freed ids).
        for item_id in ids[::2].tolist():
            index.remove(item_id)
            del live[item_id]
        new_ids = index.add(extra)
        live.update(zip(new_ids.tolist(), extra))

        live_ids = np.array(sorted(live), dtype=np.int64)
        live_vecs = np.array([live[i] for i in live_ids.tolist()])
        for query in extra[:5]:
            result = index.search(
                query, k=5, n_candidates=index.num_items
            )
            expected = self.brute_force(
                index, live_vecs, live_ids, query, k=5
            )
            assert np.array_equal(result.ids, expected)

    def test_removed_id_never_returned_after_readd(self):
        data = gaussian_mixture(40, 8, n_clusters=2, seed=15)
        hasher = ITQ(code_length=6, seed=0).fit(data)
        index = DynamicHashIndex(hasher, dim=8)
        ids = index.add(data[:20])
        victim = int(ids[0])
        index.remove(victim)
        recycled = index.add(data[20:])  # reuses freed slots, then grows
        assert victim in recycled.tolist()  # id recycled for a new vector
        result = index.search(data[0], k=20, n_candidates=index.num_items)
        # The recycled id now means a *different* vector; its reported
        # distance must be to the new vector, not the removed one.
        position = np.where(result.ids == victim)[0]
        if len(position):
            new_vector = data[20:][recycled.tolist().index(victim)]
            expected = float(np.linalg.norm(new_vector - data[0]))
            assert result.distances[position[0]] == expected
