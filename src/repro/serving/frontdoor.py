"""Asyncio front door: the :class:`FrontDoorCore` on a real event loop.

:class:`AsyncFrontDoor` wraps an index with an admission-controlled,
deadline-aware async serving surface::

    door = AsyncFrontDoor(index)
    await door.start()
    response = await door.submit(query, plan)   # a ServedResponse
    await door.close()

``submit`` never raises for overload — every request resolves to a
:class:`~repro.serving.core.ServedResponse` whose status is ``served``,
``served_degraded`` or ``rejected`` (with a machine-readable reason).
All policy lives in the sans-io core; this module only supplies the io:
the event loop's clock drives the core's timestamps, a drain task polls
the core and executes its batches, and the *blocking* engine calls run
on a thread-pool executor so the event loop never stalls (reprolint
RL015 enforces that no blocking search runs inside an ``async def``
here).

An index with a ``cached_result(query, plan)`` lookup
(:meth:`~repro.search.HashIndex.cached_result`) is asked at
submission: a request whose answer the result cache already holds is
served at once (:meth:`FrontDoorCore.serve_cached`) instead of waiting
out its lane's coalesce window, and a query the lookup rejects never
joins a batch.
"""

from __future__ import annotations

import asyncio
import inspect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any

import numpy as np

from repro.search.engine import QueryPlan, validate_query
from repro.search.results import SearchResult
from repro.serving.config import FrontDoorConfig, default_config
from repro.serving.core import (
    Batch,
    FrontDoorCore,
    ServedResponse,
    coalescible,
)

__all__ = ["AsyncFrontDoor", "execute_batch"]


def execute_batch(index: Any, batch: Batch) -> list[SearchResult]:
    """Run one coalesced batch against ``index`` — blocking.

    Coalescible plans (candidate budget only) go through the index's
    genuinely batched ``search_batch``; plans carrying bucket or time
    budgets, and indexes without ``search_batch``, fall back to
    per-ticket ``search`` calls with the effective plan's exact
    parameters.  The fallback passes only the keywords the plan sets, so
    an index whose ``search`` takes just a candidate budget
    (``DynamicHashIndex``) serves candidate-budget plans.  Either way
    the results are bit-identical to running the effective plan
    directly — degradation changes *which* plan runs, never how it runs.
    """
    plan = batch.effective_plan
    if coalescible(plan) and hasattr(index, "search_batch"):
        assert plan.n_candidates is not None
        return list(
            index.search_batch(batch.queries, plan.k, plan.n_candidates)
        )
    keywords = _search_keywords(plan)
    return [
        index.search(ticket.query, plan.k, **keywords)
        for ticket in batch.tickets
    ]


def _search_keywords(plan: QueryPlan) -> dict[str, Any]:
    """The budget keywords ``plan`` sets, for ``search``."""
    return {
        name: value
        for name, value in (
            ("n_candidates", plan.n_candidates),
            ("max_buckets", plan.max_buckets),
            ("time_budget", plan.time_budget),
        )
        if value is not None
    }


class AsyncFrontDoor:
    """Admission-controlled async serving surface over one index.

    Parameters
    ----------
    index:
        Any engine-backed index exposing ``search`` /
        ``search_batch`` (e.g. :class:`~repro.search.HashIndex`).  If
        it also has ``cached_result``, requests are looked up in its
        result cache when submitted.
    config:
        The declared serving policy; defaults to
        :func:`~repro.serving.config.default_config`.
    max_workers:
        Threads executing batches.  The default of 1 keeps batch
        completions in dispatch order, which is also the fair choice
        when the engine itself may parallelise internally.
    """

    def __init__(
        self,
        index: Any,
        config: FrontDoorConfig | None = None,
        *,
        max_workers: int = 1,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.index = index
        self.config = config or default_config()
        self.core = FrontDoorCore(self.config)
        self._max_workers = max_workers
        self._lookup = getattr(index, "cached_result", None)
        self._search = inspect.signature(index.search)
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drainer: asyncio.Task[None] | None = None
        self._wake = asyncio.Event()
        self._closing = False
        self._inflight: set[asyncio.Task[None]] = set()

    async def start(self) -> None:
        """Bind to the running loop and start the drain task.

        A closed door may be started again; each start gets a fresh
        executor, since :meth:`close` shuts the previous one down.
        """
        if self._drainer is not None:
            raise RuntimeError("front door already started")
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-serving"
        )
        self._drainer = self._loop.create_task(self._drain())

    async def close(self) -> None:
        """Stop draining; resolve still-queued tickets as ``shutdown``."""
        if self._drainer is None:
            return
        self._closing = True
        self._wake.set()
        await self._drainer
        self._drainer = None
        assert self._loop is not None
        for _, response in self.core.shutdown(self._loop.time()):
            self._resolve(response)
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> AsyncFrontDoor:
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def submit(
        self,
        query: np.ndarray,
        plan: Any,
        *,
        lane: str = "interactive",
        deadline_seconds: float | None = None,
    ) -> ServedResponse:
        """Offer one request; await its terminal response.

        Overload and malformed queries resolve as ``rejected``
        responses, never exceptions — the caller always gets a
        :class:`~repro.serving.core.ServedResponse` to inspect.  A plan
        with a bucket or time budget runs through the index's
        ``search``; one whose budgets that ``search`` does not take
        (``DynamicHashIndex`` takes only a candidate budget) is
        rejected as ``invalid_query`` here, before it queues, as is a
        ``deadline_seconds`` that is not positive (NaN included).  With
        a lookup-capable index, a request the result cache can answer
        resolves ``served`` without queueing.
        """
        if self._loop is None or self._drainer is None or self._closing:
            raise RuntimeError("front door is not running; call start()")
        if deadline_seconds is not None and not deadline_seconds > 0:
            return self.core.reject_invalid(
                lane, f"deadline_seconds must be positive, got "
                f"{deadline_seconds}"
            )
        if not coalescible(plan):
            # It will run through `search`: check that it can.
            try:
                self._search.bind(query, plan.k, **_search_keywords(plan))
            except TypeError as error:
                return self.core.reject_invalid(lane, str(error))
        try:
            query = validate_query(query)
            hit = self._lookup(query, plan) if self._lookup else None
        except ValueError as error:
            return self.core.reject_invalid(lane, str(error))
        if hit is not None:
            return self.core.serve_cached(lane, plan, hit, self._loop.time())
        future: asyncio.Future[ServedResponse] = self._loop.create_future()
        ticket, rejection = self.core.admit(
            lane, query, plan, self._loop.time(),
            deadline_seconds=deadline_seconds, payload=future,
        )
        if rejection is not None:
            return rejection
        assert ticket is not None
        self._wake.set()
        return await future

    def _resolve(self, response: ServedResponse) -> None:
        """Deliver a terminal response to its awaiting submitter."""
        future = response.payload
        if isinstance(future, asyncio.Future) and not future.done():
            # Strip the future from the response the caller sees.
            future.set_result(replace(response, payload=None))

    async def _drain(self) -> None:
        """Poll the core, execute its batches, deliver responses."""
        assert self._loop is not None
        while True:
            now = self._loop.time()
            expired, batch, next_wake = self.core.poll(now)
            for _, response in expired:
                self._resolve(response)
            if batch is not None:
                task = self._loop.create_task(self._run_batch(batch))
                self._inflight.add(task)
                task.add_done_callback(self._batch_done)
                continue
            if self._closing and not self._inflight:
                return
            timeout = None
            if next_wake is not None:
                timeout = max(0.0, next_wake - now)
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    async def _run_batch(self, batch: Batch) -> None:
        """Execute one batch off-loop and resolve its tickets."""
        assert self._loop is not None
        try:
            results = await self._loop.run_in_executor(
                self._executor, self._execute, batch
            )
            resolved = self.core.complete(
                batch, results, self._loop.time()
            )
        except Exception as error:  # reprolint: disable=RL005 -- any engine failure must resolve the batch's tickets as execution_error responses, never escape the drain loop
            resolved = self.core.fail(
                batch, self._loop.time(), detail=repr(error)
            )
        for _, response in resolved:
            self._resolve(response)

    def _execute(self, batch: Batch) -> list[SearchResult]:
        """Run ``batch`` on an executor thread, counting no lookup twice.

        Every cacheable ticket was looked up, and counted, when it was
        submitted; the batch's own lookups only re-check for answers
        stored since.
        """
        cache = getattr(self.index, "cache", None)
        if self._lookup is None or cache is None:
            return execute_batch(self.index, batch)
        with cache.rechecking():
            return execute_batch(self.index, batch)

    def _batch_done(self, task: asyncio.Task[None]) -> None:
        self._inflight.discard(task)
        self._wake.set()
