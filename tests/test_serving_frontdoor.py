"""Asyncio front door: real event loop, real index, never raises.

The policy is pinned in ``test_serving_core``; these tests cover the
io shell: futures resolve, blocking execution stays off the loop, and
every failure mode (invalid query, engine error, shutdown, overload)
comes back as a ``ServedResponse`` instead of an exception.
"""

import asyncio

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.search import (
    DynamicHashIndex,
    HashIndex,
    QueryPlan,
    QueryResultCache,
)
from repro.serving import (
    REASON_EXECUTION_ERROR,
    REASON_INVALID_QUERY,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    STATUS_REJECTED,
    STATUS_SERVED,
    AsyncFrontDoor,
    FrontDoorConfig,
    LaneConfig,
    default_config,
    execute_batch,
)
from repro.serving.core import FrontDoorCore


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(600, 16, n_clusters=6, seed=29)


@pytest.fixture(scope="module")
def queries(data):
    return sample_queries(data, 12, seed=5)


@pytest.fixture(scope="module")
def index(data):
    return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())


def run(coro):
    return asyncio.run(coro)


class TestExecuteBatch:
    def batch_for(self, index, queries, plan):
        """Dispatch `queries` through a bare core to get a real Batch."""
        core = FrontDoorCore(default_config())
        for query in queries:
            core.admit("interactive", query, plan, now=0.0,
                       deadline_seconds=10.0)
        _, batch, _ = core.poll(now=1.0)
        assert batch is not None and len(batch) == len(queries)
        return batch

    def test_coalescible_matches_search_batch(self, index, queries):
        plan = index.plan(k=5, n_candidates=100)
        batch = self.batch_for(index, queries[:4], plan)
        got = execute_batch(index, batch)
        want = index.search_batch(queries[:4], 5, 100)
        for a, b in zip(got, want):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_non_coalescible_matches_per_query_search(self, index, queries):
        plan = index.plan(k=5, max_buckets=8)
        batch = self.batch_for(index, queries[:1], plan)
        (got,) = execute_batch(index, batch)
        want = index.search(queries[0], 5, max_buckets=8)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)


class TestSubmit:
    def test_served_result_matches_direct_search(self, index, queries):
        async def scenario():
            async with AsyncFrontDoor(index) as door:
                return await door.submit(
                    queries[0], index.plan(k=5, n_candidates=100)
                )

        response = run(scenario())
        assert response.status == STATUS_SERVED
        assert response.deadline_met
        assert response.payload is None  # the future never leaks out
        want = index.search(queries[0], 5, n_candidates=100)
        assert np.array_equal(response.result.ids, want.ids)
        assert np.array_equal(response.result.distances, want.distances)

    def test_concurrent_submissions_all_resolve(self, index, queries):
        plan = index.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(index) as door:
                return await asyncio.gather(*[
                    door.submit(query, plan, deadline_seconds=2.0)
                    for query in queries
                ])

        responses = run(scenario())
        assert len(responses) == len(queries)
        assert all(r.served for r in responses)  # light load
        want = index.search_batch(queries, 5, 100)
        for response, expected in zip(responses, want):
            assert np.array_equal(response.result.ids, expected.ids)

    def test_batch_lane_and_coalescing(self, index, queries):
        plan = index.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(index) as door:
                responses = await asyncio.gather(*[
                    door.submit(query, plan, lane="batch",
                                deadline_seconds=5.0)
                    for query in queries
                ])
                return responses, door.core.stats

        responses, stats = run(scenario())
        assert all(r.served and r.lane == "batch" for r in responses)
        # The 20ms batch-lane coalesce window gathers concurrent
        # arrivals into fewer dispatches than requests.
        assert stats["batches"] < len(queries)

    def test_door_over_dynamic_index_serves(self, data, queries):
        # Regression: DynamicHashIndex has no search_batch, and the
        # per-ticket fallback passed keywords its search does not take
        # (max_buckets, time_budget), so every request was rejected
        # as execution_error.
        dynamic = DynamicHashIndex(
            ITQ(code_length=8, seed=0).fit(data), dim=data.shape[1]
        )
        dynamic.add(data)
        plan = QueryPlan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(dynamic) as door:
                return await asyncio.gather(*[
                    door.submit(query, plan) for query in queries[:3]
                ])

        responses = run(scenario())
        for response, query in zip(responses, queries):
            assert response.status == STATUS_SERVED
            want = dynamic.search(query, 5, 100)
            assert np.array_equal(response.result.ids, want.ids)
            assert np.array_equal(response.result.distances, want.distances)

    def test_plan_the_target_cannot_run_is_rejected_at_submit(
        self, data, queries
    ):
        # Regression: DynamicHashIndex.search takes no max_buckets or
        # time_budget, and such a plan was admitted, queued and failed
        # in the worker as an execution_error TypeError.
        dynamic = DynamicHashIndex(
            ITQ(code_length=8, seed=0).fit(data), dim=data.shape[1]
        )
        dynamic.add(data)
        plans = [
            QueryPlan(k=5, max_buckets=4),
            QueryPlan(k=5, n_candidates=100, time_budget=1.0),
        ]

        async def scenario():
            async with AsyncFrontDoor(dynamic) as door:
                responses = [await door.submit(queries[0], p) for p in plans]
                return responses, door.core.stats

        responses, stats = run(scenario())
        for response in responses:
            assert response.status == STATUS_REJECTED
            assert response.reason == REASON_INVALID_QUERY
        assert stats["batches"] == 0

    def test_bucket_budget_plan_served_over_hash_index(self, index, queries):
        plan = index.plan(k=5, max_buckets=4)

        async def scenario():
            async with AsyncFrontDoor(index) as door:
                return await door.submit(queries[0], plan)

        response = run(scenario())
        assert response.status == STATUS_SERVED
        want = index.search(queries[0], 5, max_buckets=4)
        assert np.array_equal(response.result.ids, want.ids)
        assert np.array_equal(response.result.distances, want.distances)

    @pytest.mark.parametrize("deadline", [float("nan"), 0.0, -1.0])
    def test_meaningless_deadline_is_rejected_at_submit(
        self, index, queries, deadline
    ):
        # Regression: a NaN deadline was served and then recorded as
        # missed; zero or below queued and then expired.
        async def scenario():
            async with AsyncFrontDoor(index) as door:
                response = await door.submit(
                    queries[0], index.plan(k=5, n_candidates=100),
                    deadline_seconds=deadline,
                )
                return response, door.core.stats

        response, stats = run(scenario())
        assert response.status == STATUS_REJECTED
        assert response.reason == REASON_INVALID_QUERY
        assert stats["batches"] == 0

    def test_wrong_dimension_query_fails_only_itself(self, index, queries):
        # Regression: without an admission lookup the 8-dim query was
        # coalesced with its 16-dim batch-mates, and the batch that
        # could not be stacked failed all three.
        class Forwarder:
            """Only `search` / `search_batch`, forwarded to the index."""

            def search_batch(self, *args, **kwargs):
                return index.search_batch(*args, **kwargs)

            def search(self, *args, **kwargs):
                return index.search(*args, **kwargs)

        plan = index.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(Forwarder()) as door:
                return await asyncio.gather(
                    door.submit(queries[0], plan),
                    door.submit(np.zeros(8), plan),
                    door.submit(queries[1], plan),
                )

        first, bad, second = run(scenario())
        assert bad.status == STATUS_REJECTED
        want = index.search_batch(queries[:2], 5, 100)
        for response, expected in zip((first, second), want):
            assert response.status == STATUS_SERVED
            assert np.array_equal(response.result.ids, expected.ids)
            assert np.array_equal(
                response.result.distances, expected.distances
            )

    def test_invalid_query_rejected_not_raised(self, index):
        async def scenario():
            async with AsyncFrontDoor(index) as door:
                bad_shape = await door.submit(
                    np.zeros((2, 16)), index.plan(k=5, n_candidates=100)
                )
                non_finite = await door.submit(
                    np.full(16, np.nan), index.plan(k=5, n_candidates=100)
                )
                return bad_shape, non_finite

        bad_shape, non_finite = run(scenario())
        assert bad_shape.reason == REASON_INVALID_QUERY
        assert non_finite.reason == REASON_INVALID_QUERY

    def test_queue_full_overflow_rejected(self, index, queries):
        config = FrontDoorConfig(lanes=(
            LaneConfig(name="interactive", max_depth=1,
                       deadline_seconds=0.5, coalesce_seconds=0.05),
        ))

        async def scenario():
            async with AsyncFrontDoor(index, config) as door:
                return await asyncio.gather(*[
                    door.submit(query, index.plan(k=5, n_candidates=100))
                    for query in queries[:6]
                ])

        responses = run(scenario())
        rejected = [r for r in responses if not r.served]
        assert rejected, "depth-1 queue must overflow under a 6-way burst"
        assert all(r.reason == REASON_QUEUE_FULL for r in rejected)

    def test_submit_requires_running_door(self, index, queries):
        door = AsyncFrontDoor(index)

        async def scenario():
            await door.submit(
                queries[0], index.plan(k=5, n_candidates=100)
            )

        with pytest.raises(RuntimeError, match="start"):
            run(scenario())


class TestFailureAndShutdown:
    def test_engine_error_resolves_as_execution_error(self, data, queries):
        class ExplodingIndex:
            def search_batch(self, *args, **kwargs):
                raise RuntimeError("engine down")

            def search(self, *args, **kwargs):
                raise RuntimeError("engine down")

        plan = HashIndex(
            ITQ(code_length=8, seed=0), data, prober=GQR()
        ).plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(ExplodingIndex()) as door:
                return await door.submit(queries[0], plan)

        response = run(scenario())
        assert response.reason == REASON_EXECUTION_ERROR
        assert "engine down" in response.detail

    def test_close_resolves_queued_tickets_as_shutdown(self, index, queries):
        # A week-long coalesce window guarantees the ticket is still
        # queued when the door closes.
        config = FrontDoorConfig(lanes=(
            LaneConfig(name="interactive", deadline_seconds=1e6,
                       coalesce_seconds=1e5),
        ))

        async def scenario():
            door = AsyncFrontDoor(index, config)
            await door.start()
            pending = asyncio.ensure_future(door.submit(
                queries[0], index.plan(k=5, n_candidates=100)
            ))
            await asyncio.sleep(0.01)  # let the submission queue
            await door.close()
            return await pending

        response = run(scenario())
        assert response.reason == REASON_SHUTDOWN

    def test_double_start_rejected_and_restart_allowed(self, index, queries):
        async def scenario():
            door = AsyncFrontDoor(index)
            await door.start()
            with pytest.raises(RuntimeError, match="already started"):
                await door.start()
            await door.close()

        run(scenario())

    def test_restarted_door_serves_a_request(self, index, queries):
        plan = index.plan(k=5, n_candidates=100)

        async def restart_on_one_loop():
            door = AsyncFrontDoor(index)
            await door.start()
            await door.close()
            await door.start()
            try:
                return door, await door.submit(queries[0], plan)
            finally:
                await door.close()

        async def serve(door):
            async with door:
                return await door.submit(queries[1], plan)

        door, response = run(restart_on_one_loop())
        assert response.status == STATUS_SERVED
        # A door closed on one event loop also restarts on another.
        again = run(serve(door))
        assert again.status == STATUS_SERVED
        want = index.search(queries[1], 5, n_candidates=100)
        assert np.array_equal(again.result.ids, want.ids)

    def test_max_workers_validated(self, index):
        with pytest.raises(ValueError, match="max_workers"):
            AsyncFrontDoor(index, max_workers=0)


class TestAdmissionLookup:
    """Requests the result cache can answer are served at submission."""

    @pytest.fixture
    def cached(self, data):
        return HashIndex(
            ITQ(code_length=8, seed=0), data, prober=GQR(),
            cache=QueryResultCache(),
        )

    def test_repeat_is_answered_at_admission(self, cached, queries):
        plan = cached.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(cached) as door:
                first = await door.submit(queries[0], plan)
                again = await door.submit(queries[0], plan)
                return first, again, door.core.stats

        first, again, stats = run(scenario())
        assert first.status == again.status == STATUS_SERVED
        assert again.result is first.result
        assert again.queue_seconds == 0.0 and again.degrade_level == 0
        assert again.payload is None
        assert stats["cache_hits"]["interactive"] == 1
        assert stats["served"]["interactive"] == 2
        assert stats["batches"] == 1

    def test_wrong_dimension_query_never_joins_a_batch(self, index, queries):
        # Regression: the 8-dim query used to be admitted and coalesced
        # with its 16-dim batch-mates, failing all three with
        # execution_error when the batch could not be stacked.
        plan = index.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(index) as door:
                return await asyncio.gather(
                    door.submit(queries[0], plan),
                    door.submit(np.zeros(8), plan),
                    door.submit(queries[1], plan),
                )

        first, bad, second = run(scenario())
        assert bad.reason == REASON_INVALID_QUERY
        assert "dimension 16" in bad.detail
        want = index.search_batch(queries[:2], 5, 100)
        for response, expected in zip((first, second), want):
            assert response.status == STATUS_SERVED
            assert np.array_equal(response.result.ids, expected.ids)

    def test_each_request_is_counted_once(self, cached, queries):
        # Repeats arrive in the same batch, in later batches and after
        # their answer is stored; bucket-budgeted plans run one ticket
        # per batch through `search`.
        coalesced = cached.plan(k=5, n_candidates=100)
        bucketed = cached.plan(k=5, max_buckets=6)
        picks = [0, 1, 0, 2, 1, 0, 3, 0]

        async def scenario():
            async with AsyncFrontDoor(cached) as door:
                for plan in (coalesced, bucketed, coalesced):
                    await asyncio.gather(*[
                        door.submit(queries[i], plan) for i in picks
                    ])
                    await door.submit(queries[4], plan)
                return door.core.stats

        stats = run(scenario())
        requests = 3 * (len(picks) + 1)
        assert stats["served"]["interactive"] == requests
        cache = cached.cache.stats
        assert cache["hits"] + cache["misses"] == requests
        assert cache["hits"] == stats["cache_hits"]["interactive"]
        # Only misses are computed: at most one stored entry each.
        assert cache["occupancy"] <= cache["misses"]

    def test_time_budgeted_plan_is_never_looked_up(self, cached, queries):
        plan = cached.plan(k=5, n_candidates=100, time_budget=10.0)

        async def scenario():
            async with AsyncFrontDoor(cached) as door:
                for _ in range(2):
                    await door.submit(queries[0], plan)
                return door.core.stats

        stats = run(scenario())
        assert stats["batches"] == 2
        assert stats["cache_hits"]["interactive"] == 0
        cache = cached.cache.stats
        assert cache["hits"] == cache["misses"] == cache["occupancy"] == 0

    def test_target_without_lookup_keeps_the_queued_path(
        self, cached, queries
    ):
        class Forwarder:
            """Only `search` / `search_batch`, forwarded to the index."""

            def search_batch(self, *args, **kwargs):
                return cached.search_batch(*args, **kwargs)

            def search(self, *args, **kwargs):
                return cached.search(*args, **kwargs)

        plan = cached.plan(k=5, n_candidates=100)

        async def scenario():
            async with AsyncFrontDoor(Forwarder()) as door:
                first = await door.submit(queries[0], plan)
                again = await door.submit(queries[0], plan)
                return first, again, door.core.stats

        first, again, stats = run(scenario())
        assert again.result is first.result  # answered by search_batch
        assert stats["batches"] == 2
        assert stats["cache_hits"]["interactive"] == 0
        cache = cached.cache.stats
        assert (cache["hits"], cache["misses"]) == (1, 1)

    def test_hit_served_while_the_lane_is_full(self, cached, queries):
        config = FrontDoorConfig(lanes=(
            LaneConfig(name="interactive", max_depth=1,
                       deadline_seconds=1e6, coalesce_seconds=1e5),
        ))
        plan = cached.plan(k=5, n_candidates=100)
        [stored] = cached.search_batch(queries[:1], 5, 100)

        async def scenario():
            async with AsyncFrontDoor(cached, config) as door:
                queued = asyncio.ensure_future(
                    door.submit(queries[1], plan)
                )
                await asyncio.sleep(0.01)  # let it take the only slot
                full = await door.submit(queries[2], plan)
                hit = await door.submit(queries[0], plan)
                stats = door.core.stats
            return queued, full, hit, stats

        queued, full, hit, stats = run(scenario())
        assert queued.result().reason == REASON_SHUTDOWN
        assert full.reason == REASON_QUEUE_FULL
        assert hit.status == STATUS_SERVED and hit.result is stored
        assert stats["cache_hits"]["interactive"] == 1
