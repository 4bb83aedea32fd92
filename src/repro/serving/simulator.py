"""Virtual-time traffic simulator: the serving policy's test harness.

Runs the *same* :class:`~repro.serving.core.FrontDoorCore` the asyncio
front door serves with, but drives it as a discrete-event simulation in
virtual time: search results are real (every dispatched batch executes
against the real index), while *service times* come from a fixed cost
model, so a ten-second flash crowd simulates in however long the
actual searches take and the outcome is deterministic per seed —
timestamps never depend on machine speed.  That makes it the harness
the serving tests pin the policy's invariants with; goodput and latency
figures of the real front door come from measuring
:class:`~repro.serving.frontdoor.AsyncFrontDoor`, never from this model.

The cost model is deliberately simple and monotone in what degradation
changes::

    service = batch_overhead + n_tickets * per_query_cost * fraction

where ``fraction`` is the effective (possibly downgraded) plan's
candidate budget as a fraction of the base plan's
(:meth:`QueryPlan.budget_fraction`) — degrading genuinely buys
capacity, which is the feedback loop the overload controller's
acceptance tests exercise.

The simulator dispatches only when its single virtual server is idle
and drops tickets whose deadline cannot be met even if dispatched
immediately (:meth:`FrontDoorCore.drop_infeasible`), so every completed
request meets its deadline *by construction* — the acceptance
invariant "accepted-and-completed latencies respect deadlines" is a
property of the scheduler, not luck.

The simulator does not model the asyncio front door's admission cache
hits (:meth:`FrontDoorCore.serve_cached`): it offers every arrival to
:meth:`FrontDoorCore.admit` and never calls the index's
``cached_result``.  An index with a result cache still answers repeats
from it inside ``search_batch``, but the cost model charges them full
service time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.data.workloads import TrafficTrace, zipfian_stream
from repro.search.engine import QueryPlan
from repro.serving.config import FrontDoorConfig, default_config
from repro.serving.core import (
    STATUS_REJECTED,
    Batch,
    FrontDoorCore,
    ServedResponse,
)
from repro.serving.frontdoor import execute_batch

__all__ = [
    "SimRecord",
    "SimulationResult",
    "ServingSimulator",
]


@dataclass(frozen=True)
class SimRecord:
    """One simulated request's complete story."""

    arrival: float
    resolved: float
    response: ServedResponse


@dataclass(frozen=True)
class SimulationResult:
    """Every request a simulation run resolved, and the core's tallies."""

    records: tuple[SimRecord, ...]
    core_stats: dict[str, Any] = field(repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def by_status(self) -> dict[str, int]:
        """Request counts per terminal status."""
        counts: dict[str, int] = {}
        for record in self.records:
            status = record.response.status
            counts[status] = counts.get(status, 0) + 1
        return counts

    def by_reason(self) -> dict[str, int]:
        """Rejection counts per reason."""
        counts: dict[str, int] = {}
        for record in self.records:
            if record.response.status == STATUS_REJECTED:
                reason = record.response.reason or "unknown"
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    def served_latencies(self, lane: str) -> np.ndarray:
        """Latencies (seconds) of one lane's served requests."""
        values = [
            record.response.latency_seconds
            for record in self.records
            if record.response.served and record.response.lane == lane
        ]
        return np.asarray(values, dtype=np.float64)

    def goodput(self, start: float, end: float) -> float:
        """Served requests per second of virtual time in ``[start, end)``.

        Degraded responses count — they carried a real (reduced-
        coverage) answer; rejections do not.
        """
        if end <= start:
            raise ValueError("end must exceed start")
        served = sum(
            1 for record in self.records
            if record.response.served and start <= record.resolved < end
        )
        return served / (end - start)

    def accepted_fraction(self) -> float:
        """Fraction of offered requests that were served (even degraded)."""
        if not self.records:
            return 0.0
        served = sum(1 for r in self.records if r.response.served)
        return served / len(self.records)


#: An event on the virtual-time arrival heap.
_Arrival = tuple[float, int, str, int, Any]


class ServingSimulator:
    """Discrete-event serving simulation over a real index.

    Parameters
    ----------
    index:
        The engine-backed index batches execute against (results are
        real; only their timing is simulated).  Its result cache, if
        any, is not consulted at admission (see the module docstring).
    config:
        The front door policy under test; defaults to
        :func:`~repro.serving.config.default_config`.
    per_query_cost:
        Virtual seconds one full-fidelity query costs the server.
    batch_overhead:
        Fixed virtual seconds per dispatched batch (what coalescing
        amortises).
    """

    def __init__(
        self,
        index: Any,
        config: FrontDoorConfig | None = None,
        *,
        per_query_cost: float = 1e-3,
        batch_overhead: float = 0.0,
    ) -> None:
        # Negated comparisons so NaN fails them too.
        if not per_query_cost > 0:
            raise ValueError(
                f"per_query_cost must be positive, got {per_query_cost}"
            )
        if not batch_overhead >= 0:
            raise ValueError(
                f"batch_overhead must be >= 0, got {batch_overhead}"
            )
        self.index = index
        self.config = config or default_config()
        self.per_query_cost = per_query_cost
        self.batch_overhead = batch_overhead

    # -- entry points --------------------------------------------------

    def run_open(
        self,
        trace: TrafficTrace,
        queries: np.ndarray,
        plan: QueryPlan,
    ) -> SimulationResult:
        """Open-loop run: offer every trace arrival regardless of backlog.

        ``trace.query_ids`` index into ``queries``; ``trace.lanes`` must
        name lanes the config declares.
        """
        arrivals: list[_Arrival] = [
            (float(t), seq, trace.lanes[seq], int(qid), None)
            for seq, (t, qid) in enumerate(
                zip(trace.arrivals, trace.query_ids)
            )
        ]
        heapq.heapify(arrivals)
        return self._simulate(arrivals, queries, plan, on_resolve=None)

    def run_closed(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        *,
        n_clients: int,
        n_requests: int,
        think_seconds: float = 0.0,
        lane: str = "interactive",
        seed: int = 0,
    ) -> SimulationResult:
        """Closed-loop run: each client re-submits after its response.

        ``n_clients`` clients issue ``n_requests`` total requests; each
        waits ``think_seconds`` of virtual time after its previous
        request *resolves* (served or rejected) before issuing the next
        — the backpressure-respecting load shape, in contrast to
        :meth:`run_open`.
        """
        if n_clients < 1 or n_requests < 1:
            raise ValueError("n_clients and n_requests must be positive")
        # A negated comparison so NaN fails it too.
        if not 0 <= think_seconds < np.inf:
            raise ValueError(
                f"think_seconds must be finite and >= 0, got {think_seconds}"
            )
        query_ids = zipfian_stream(len(queries), n_requests, seed=seed)
        issued = min(n_clients, n_requests)
        arrivals: list[_Arrival] = [
            (0.0, seq, lane, int(query_ids[seq]), seq)
            for seq in range(issued)
        ]
        heapq.heapify(arrivals)
        state = {"issued": issued}

        def on_resolve(record: SimRecord) -> _Arrival | None:
            if state["issued"] >= n_requests:
                return None
            seq = state["issued"]
            state["issued"] += 1
            return (
                record.resolved + think_seconds,
                seq,
                lane,
                int(query_ids[seq]),
                record.response.payload,
            )

        return self._simulate(arrivals, queries, plan, on_resolve=on_resolve)

    # -- the event loop ------------------------------------------------

    def _service_seconds(self, n_tickets: int, fraction: float) -> float:
        return (
            self.batch_overhead
            + n_tickets * self.per_query_cost * fraction
        )

    def _simulate(
        self,
        arrivals: list[_Arrival],
        queries: np.ndarray,
        plan: QueryPlan,
        on_resolve: Callable[[SimRecord], _Arrival | None] | None,
    ) -> SimulationResult:
        core = FrontDoorCore(self.config)
        records: list[SimRecord] = []
        now = 0.0
        inflight: tuple[Batch, float, list] | None = None

        def resolve(response: ServedResponse, at: float) -> None:
            record = SimRecord(
                arrival=float(response.payload["arrival"]),
                resolved=at,
                response=replace(
                    response, payload=response.payload.get("client")
                ),
            )
            records.append(record)
            if on_resolve is not None:
                follow_up = on_resolve(record)
                if follow_up is not None:
                    heapq.heappush(arrivals, follow_up)

        while True:
            next_wake: float | None = None
            if inflight is None:
                expired, batch, next_wake = core.poll(now)
                for _, response in expired:
                    resolve(response, now)
                if batch is not None:
                    fraction = batch.plan.budget_fraction(
                        batch.effective_plan
                    )
                    estimate = self._service_seconds(len(batch), fraction)
                    batch, dropped = core.drop_infeasible(
                        batch, estimate, now
                    )
                    for _, response in dropped:
                        resolve(response, now)
                    if batch.tickets:
                        service = self._service_seconds(
                            len(batch), fraction
                        )
                        results = execute_batch(self.index, batch)
                        inflight = (batch, now + service, results)
                    continue

            next_arrival = arrivals[0][0] if arrivals else np.inf
            next_completion = inflight[1] if inflight is not None else np.inf
            wake = (
                next_wake
                if inflight is None and next_wake is not None
                else np.inf
            )
            upcoming = min(next_arrival, next_completion, wake)
            if not np.isfinite(upcoming):
                break
            now = max(now, float(upcoming))
            if next_completion <= upcoming:
                batch, _, results = inflight  # type: ignore[misc]
                inflight = None
                for _, response in core.complete(batch, results, now):
                    resolve(response, now)
            elif next_arrival <= upcoming:
                _, _, lane, query_id, client = heapq.heappop(arrivals)
                payload = {"arrival": now, "client": client}
                _, rejection = core.admit(
                    lane, queries[query_id], plan, now, payload=payload
                )
                if rejection is not None:
                    resolve(rejection, now)
            # A bare wake just re-enters the dispatch block above.

        records.sort(key=lambda record: (record.arrival, record.resolved))
        return SimulationResult(
            records=tuple(records), core_stats=core.stats
        )

