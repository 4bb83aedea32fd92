"""Regression: candidates retrieved from several tables count once.

Multi-table retrieval can yield the same item id from more than one
table (or, for probers with overlapping probe sequences, more than one
bucket).  The drain must both deduplicate the gathered ids and count
them deduplicated — double counting inflated ``n_candidates`` (the
reported evaluation cost) and burned the candidate budget on items
already gathered, so the engine stopped before collecting the distinct
candidates the plan asked for.
"""

import numpy as np

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search import HashIndex
from repro.search.engine import ExecutionContext, QueryPlan
from repro.search.stages import drain_stream


class TestDrainDeduplication:
    def test_duplicates_across_buckets_counted_once(self):
        stream = iter(
            np.asarray(bucket, dtype=np.int64)
            for bucket in ([1, 3, 7], [3, 5], [2, 9], [7, 11])
        )
        ctx = ExecutionContext()
        ids = drain_stream(
            stream, QueryPlan(k=1, n_candidates=8), ctx
        )
        assert sorted(ids.tolist()) == [1, 2, 3, 5, 7, 9, 11]
        assert ctx.n_candidates == 7  # pre-fix: 9 (duplicates double-counted)

    def test_budget_buys_distinct_candidates(self):
        # Every bucket repeats id 0; the budget of 4 distinct candidates
        # must keep draining past the duplicates until it is met.
        stream = iter(
            np.asarray(bucket, dtype=np.int64)
            for bucket in ([0, 1], [0, 2], [0, 3], [0, 4])
        )
        ctx = ExecutionContext()
        ids = drain_stream(
            stream, QueryPlan(k=1, n_candidates=4), ctx
        )
        assert sorted(ids.tolist()) == [0, 1, 2, 3]
        assert ctx.n_candidates == 4

    def test_within_bucket_duplicates_collapse(self):
        stream = iter([np.array([5, 5, 5, 8], dtype=np.int64)])
        ctx = ExecutionContext()
        ids = drain_stream(
            stream, QueryPlan(k=1, n_candidates=10), ctx
        )
        assert sorted(ids.tolist()) == [5, 8]
        assert ctx.n_candidates == 2


class TestTwoTableFixture:
    """Hand-built worst case: two *identical* tables.

    Every bucket is yielded by both tables, so round-robin retrieval
    sees each candidate exactly twice.  With a budget of the full
    dataset the engine must still reach every item — double counting
    would exhaust the budget halfway through and miss true neighbours.
    """

    def build(self, data):
        hashers = [ITQ(code_length=6, seed=0), ITQ(code_length=6, seed=0)]
        return HashIndex(hashers, data, prober=GQR())

    def test_counts_pinned_to_distinct_items(self):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=9)
        index = self.build(data)
        result = index.search(data[0], k=5, n_candidates=len(data))
        assert result.n_candidates == len(data)

    def test_full_budget_recovers_exact_neighbours(self):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=9)
        index = self.build(data)
        for query in data[:5]:
            result = index.search(query, k=5, n_candidates=len(data))
            exact = np.lexsort(
                (np.arange(len(data)),
                 np.linalg.norm(data - query, axis=1))
            )[:5]
            assert np.array_equal(result.ids, exact)


class TestEveryEvaluatedCandidateCounted:
    """Each gathered candidate passes through one evaluator call.

    A tracer that wraps the evaluator's ``distances`` and ``evaluate``
    on one index, counting the candidates each call receives, must see
    every candidate that single queries and batch rows rank.
    """

    def test_wrapped_evaluator_sees_every_candidate(self):
        data = gaussian_mixture(2000, 16, n_clusters=8, seed=5)
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        evaluator = index.engine.evaluator
        seen = [0]

        def counting(name):
            original = getattr(evaluator, name)

            def wrapped(*args, **kwargs):
                seen[0] += len(args[1])
                return original(*args, **kwargs)

            setattr(evaluator, name, wrapped)

        counting("distances")
        counting("evaluate")
        results = index.search_batch(data[:16], k=10, n_candidates=150)
        results.append(index.search(data[20], k=10, n_candidates=150))
        assert seen[0] == sum(r.n_candidates for r in results) > 0
