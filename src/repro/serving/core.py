"""Sans-io serving state machine: admission, scheduling, shedding.

All front-door *decisions* live here, in a class driven entirely by
explicit ``now`` timestamps: :class:`FrontDoorCore` owns the per-lane
bounded queues (admission control), the smooth-weighted-round-robin
drain order (priority lanes), plan-equality coalescing into batches
(deadline-aware batching) and the hysteretic
:class:`OverloadController` (graduated load shedding).  It never
sleeps, never spawns a thread and never calls an engine — the asyncio
front door (:mod:`repro.serving.frontdoor`) drives it with the event
loop's clock against a real index, and the traffic simulator
(:mod:`repro.serving.simulator`) drives it with virtual time, so both
exercise the *same* decision logic and the acceptance invariants can be
pinned deterministically.

The request lifecycle::

    serve_cached(now) ──▶ ServedResponse(status="served")   (cache hit)
    admit(now) ──rejected──▶ ServedResponse(status="rejected", reason=…)
       │accepted
       ▼
    queued Ticket ──deadline passes──▶ rejected (deadline_expired)
       │poll(now) picks the lane (SWRR) and coalesces a Batch
       ▼
    Batch (shared effective plan, possibly downgraded)
       │caller executes batch.effective_plan on the engine
       ▼
    complete(batch, results, now) ──▶ ServedResponse(status="served" /
                                      "served_degraded")
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro import obs
from repro.search.engine import QueryPlan
from repro.search.results import SearchResult
from repro.serving.config import FrontDoorConfig, OverloadConfig

__all__ = [
    "REASON_QUEUE_FULL",
    "REASON_SHED",
    "REASON_DEADLINE_EXPIRED",
    "REASON_DEADLINE_INFEASIBLE",
    "REASON_INVALID_QUERY",
    "REASON_EXECUTION_ERROR",
    "REASON_SHUTDOWN",
    "REJECT_REASONS",
    "STATUS_SERVED",
    "STATUS_SERVED_DEGRADED",
    "STATUS_REJECTED",
    "STATUSES",
    "Ticket",
    "ServedResponse",
    "Batch",
    "OverloadController",
    "FrontDoorCore",
    "coalescible",
]

#: Admission refused: the lane's queue is at its backlog budget.
REASON_QUEUE_FULL = "queue_full"
#: Admission refused: the overload controller is shedding.
REASON_SHED = "shed"
#: Queued past its deadline before any batch picked it up.
REASON_DEADLINE_EXPIRED = "deadline_expired"
#: Dispatch would complete after the deadline; dropped instead.
REASON_DEADLINE_INFEASIBLE = "deadline_infeasible"
#: The query failed validation before queueing.
REASON_INVALID_QUERY = "invalid_query"
#: The engine raised while executing the ticket's batch.
REASON_EXECUTION_ERROR = "execution_error"
#: The front door was closed while the ticket was queued.
REASON_SHUTDOWN = "shutdown"

REJECT_REASONS = (
    REASON_QUEUE_FULL,
    REASON_SHED,
    REASON_DEADLINE_EXPIRED,
    REASON_DEADLINE_INFEASIBLE,
    REASON_INVALID_QUERY,
    REASON_EXECUTION_ERROR,
    REASON_SHUTDOWN,
)

STATUS_SERVED = "served"
STATUS_SERVED_DEGRADED = "served_degraded"
STATUS_REJECTED = "rejected"
STATUSES = (STATUS_SERVED, STATUS_SERVED_DEGRADED, STATUS_REJECTED)


def coalescible(plan: QueryPlan) -> bool:
    """Whether ``plan`` may share a batched ``search_batch`` call.

    Batched execution needs a candidate budget and runs without
    per-query bucket or time budgets, so only plans of that shape
    coalesce; anything else dispatches as a singleton batch.
    """
    return (
        plan.n_candidates is not None
        and plan.max_buckets is None
        and plan.time_budget is None
    )


@dataclass(frozen=True)
class Ticket:
    """One admitted request waiting in a lane queue."""

    seq: int
    lane: str
    query: np.ndarray
    plan: QueryPlan
    enqueue_time: float
    deadline: float
    payload: Any = None

    def queue_delay(self, now: float) -> float:
        """Seconds this ticket has waited since admission."""
        return max(0.0, now - self.enqueue_time)


@dataclass(frozen=True)
class ServedResponse:
    """The front door's terminal answer for one request.

    Every request resolves to exactly one of these — the front door
    never raises for overload.  ``status`` partitions the outcomes:

    * ``served`` — full-fidelity result, ``result`` is set;
    * ``served_degraded`` — ``result`` is set but was produced by a
      downgraded plan; ``degrade_level`` and ``coverage`` (the degraded
      plan's candidate budget as a fraction of the requested one, see
      :meth:`QueryPlan.budget_fraction`) quantify the fidelity loss;
    * ``rejected`` — no result; ``reason`` is one of
      :data:`REJECT_REASONS`.
    """

    status: str
    lane: str
    seq: int
    result: SearchResult | None = None
    reason: str | None = None
    detail: str | None = None
    latency_seconds: float = 0.0
    queue_seconds: float = 0.0
    degrade_level: int = 0
    coverage: float = 1.0
    deadline_met: bool = True
    effective_plan: QueryPlan | None = None
    payload: Any = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_REJECTED:
            if self.reason not in REJECT_REASONS:
                raise ValueError(
                    f"rejected response needs a known reason, got "
                    f"{self.reason!r}"
                )
        elif self.result is None:
            raise ValueError(f"{self.status} response needs a result")

    @property
    def served(self) -> bool:
        """Whether a result was produced (possibly degraded)."""
        return self.status != STATUS_REJECTED


@dataclass(frozen=True)
class Batch:
    """A coalesced dispatch unit: tickets sharing one effective plan."""

    lane: str
    tickets: tuple[Ticket, ...]
    plan: QueryPlan
    effective_plan: QueryPlan
    degrade_level: int
    dispatch_time: float

    def __len__(self) -> int:
        return len(self.tickets)

    @property
    def queries(self) -> np.ndarray:
        """The batch's queries stacked ``(B, dim)`` for ``search_batch``."""
        return np.stack([ticket.query for ticket in self.tickets])


class OverloadController:
    """Hysteretic queue-delay ladder: degrade levels, then shedding.

    Tracks an EWMA of observed queue delays and maps it onto a severity
    axis ``0 .. max_level + 1``, where ``1..max_level`` are the degrade
    levels applied at dispatch and ``max_level + 1`` means admission
    shedding.  Two hysteresis mechanisms prevent flapping: a state
    exits only when the EWMA drops below ``recover_ratio`` times its
    entry threshold, and transitions step at most one severity per
    ``dwell_seconds`` (see :class:`~repro.serving.config.OverloadConfig`).
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.ewma = 0.0
        self._severity = 0
        self._last_transition = -np.inf

    @property
    def severity(self) -> int:
        """Current ladder position (0 = healthy, max_level+1 = shedding)."""
        return self._severity

    @property
    def degrade_level(self) -> int:
        """The plan-downgrade level applied to dispatches right now."""
        return min(self._severity, self.config.max_level)

    @property
    def shedding(self) -> bool:
        """Whether new admissions are currently shed."""
        return self._severity > self.config.max_level

    def observe(self, queue_delay: float, now: float) -> None:
        """Fold one observed queue delay into the ladder state."""
        alpha = self.config.ewma_alpha
        self.ewma += alpha * (queue_delay - self.ewma)
        if now - self._last_transition < self.config.dwell_seconds:
            return
        top = self.config.max_level + 1
        if (
            self._severity < top
            and self.ewma >= self.config.entry_threshold(self._severity + 1)
        ):
            self._severity += 1
            self._last_transition = now
        elif (
            self._severity > 0
            and self.ewma < self.config.entry_threshold(self._severity)
            * self.config.recover_ratio
        ):
            self._severity -= 1
            self._last_transition = now
        obs.observe_serving_overload(self.degrade_level, self.shedding)


class _Lane:
    """One priority lane's queue plus its SWRR drain credit."""

    def __init__(self, config: Any) -> None:
        self.config = config
        self.queue: deque[Ticket] = deque()
        self.credit = 0


class FrontDoorCore:
    """The serving front door's complete decision logic, sans io.

    Drive it with three calls: :meth:`admit` for each arriving request,
    :meth:`poll` whenever the clock advances (it expires overdue
    tickets and proposes at most one :class:`Batch` to execute), and
    :meth:`complete` / :meth:`fail` when the caller has run the batch.
    A caller that finds an arriving request's answer in the result
    cache resolves it with :meth:`serve_cached` instead of admitting it.
    Every path that resolves a request emits the matching
    ``repro_serving_*`` telemetry and tallies :attr:`stats`, which the
    SLO report reads without requiring telemetry to be enabled.
    """

    def __init__(self, config: FrontDoorConfig) -> None:
        self.config = config
        self.controller = OverloadController(config.overload)
        self._lanes = {
            lane.name: _Lane(lane) for lane in config.lanes
        }
        self._seq = 0
        self.stats: dict[str, Any] = {
            "offered": {name: 0 for name in self._lanes},
            "admitted": {name: 0 for name in self._lanes},
            "served": {name: 0 for name in self._lanes},
            "cache_hits": {name: 0 for name in self._lanes},
            "degraded": {name: 0 for name in self._lanes},
            "rejected": {
                name: dict.fromkeys(REJECT_REASONS, 0)
                for name in self._lanes
            },
            "batches": 0,
            "batched_tickets": 0,
        }

    # -- admission -----------------------------------------------------

    def depth(self, lane: str) -> int:
        """Current queue depth of ``lane``."""
        return len(self._lanes[lane].queue)

    def pending(self) -> int:
        """Total tickets queued across all lanes."""
        return sum(len(lane.queue) for lane in self._lanes.values())

    def _backlog_delay(self, now: float) -> float:
        """The oldest queued ticket's wait so far — the live backlog signal."""
        delay = 0.0
        for state in self._lanes.values():
            if state.queue:
                delay = max(
                    delay, now - state.queue[0].enqueue_time
                )
        return delay

    def serve_cached(
        self,
        lane: str,
        plan: QueryPlan,
        result: SearchResult,
        now: float,
    ) -> ServedResponse:
        """Answer an arriving request from the result cache, unqueued.

        The caller found ``result`` stored under the request's own plan,
        so the answer is full fidelity whatever the degrade level: it
        resolves ``served`` with no queue wait.  It needs no worker, so
        it is served even while the lane is full or admissions are
        shed.  Like every arrival it feeds the overload controller the
        live backlog delay, and it counts as offered, served and a
        cache hit.
        """
        self._seq += 1
        self.stats["offered"][lane] += 1  # unknown lane: caller bug, raise
        self.stats["served"][lane] += 1
        self.stats["cache_hits"][lane] += 1
        obs.observe_serving_request(lane)
        self.controller.observe(self._backlog_delay(now), now)
        obs.observe_serving_cache_hit(lane)
        obs.observe_serving_served(lane, 0.0, False)
        return ServedResponse(
            status=STATUS_SERVED,
            lane=lane,
            seq=self._seq,
            result=result,
            effective_plan=plan,
        )

    def admit(
        self,
        lane: str,
        query: np.ndarray,
        plan: QueryPlan,
        now: float,
        deadline_seconds: float | None = None,
        payload: Any = None,
    ) -> tuple[Ticket | None, ServedResponse | None]:
        """Decide one arriving request: queue it or reject with reason.

        Returns ``(ticket, None)`` on admission or ``(None, response)``
        on rejection — exactly one side is set.  Admission latency is
        measured with :func:`repro.obs.now` (the real monotonic clock,
        even under the simulator: the decision itself runs in real
        time).
        """
        decision_start = obs.now()
        state = self._lanes[lane]  # unknown lane: caller bug, raise
        self._seq += 1
        seq = self._seq
        self.stats["offered"][lane] += 1
        obs.observe_serving_request(lane)
        # Every arrival feeds the controller the live backlog delay.
        # Dispatch-time observations alone would freeze the ladder while
        # shedding (no admissions → no batches → no observations), so
        # shedding could never recover; arrivals over drained queues
        # observe ~0 and walk the ladder back down.
        self.controller.observe(self._backlog_delay(now), now)
        reason = None
        if self.controller.shedding:
            reason = REASON_SHED
        elif len(state.queue) >= state.config.max_depth:
            reason = REASON_QUEUE_FULL
        if reason is not None:
            self.stats["rejected"][lane][reason] += 1
            obs.observe_serving_admission(
                lane, False, reason=reason,
                seconds=obs.now() - decision_start,
            )
            return None, ServedResponse(
                status=STATUS_REJECTED,
                lane=lane,
                seq=seq,
                reason=reason,
                payload=payload,
            )
        horizon = (
            deadline_seconds
            if deadline_seconds is not None
            else state.config.deadline_seconds
        )
        ticket = Ticket(
            seq=seq,
            lane=lane,
            query=query,
            plan=plan,
            enqueue_time=now,
            deadline=now + horizon,
            payload=payload,
        )
        state.queue.append(ticket)
        self.stats["admitted"][lane] += 1
        obs.observe_serving_admission(
            lane, True, seconds=obs.now() - decision_start
        )
        obs.observe_serving_queue_depth(lane, len(state.queue))
        return ticket, None

    # -- scheduling ----------------------------------------------------

    def poll(
        self, now: float
    ) -> tuple[list[tuple[Ticket, ServedResponse]], Batch | None, float | None]:
        """Advance the scheduler to ``now``.

        Returns ``(expired, batch, next_wake)``:

        * ``expired`` — tickets whose deadline passed while queued, each
          already resolved to a ``deadline_expired`` rejection;
        * ``batch`` — at most one :class:`Batch` ready to execute (call
          :meth:`poll` again after completing it: more lanes may be
          ready);
        * ``next_wake`` — the earliest future time at which polling
          again could change anything (a coalesce window closing or a
          deadline expiring), or ``None`` when every queue is empty.
        """
        expired = self._expire(now)
        batch = self._dispatch(now)
        return expired, batch, self._next_wake(now) if batch is None else now

    def _expire(self, now: float) -> list[tuple[Ticket, ServedResponse]]:
        """Resolve every queued ticket whose deadline has passed."""
        expired: list[tuple[Ticket, ServedResponse]] = []
        for name, state in self._lanes.items():
            if not state.queue:
                continue
            survivors = deque()
            changed = False
            for ticket in state.queue:
                if ticket.deadline <= now:
                    changed = True
                    expired.append(
                        (ticket, self._reject_ticket(
                            ticket, REASON_DEADLINE_EXPIRED, now
                        ))
                    )
                else:
                    survivors.append(ticket)
            if changed:
                state.queue = survivors
                obs.observe_serving_queue_depth(name, len(state.queue))
        return expired

    def _ready(self, state: _Lane, now: float) -> bool:
        """Whether a lane's head batch should dispatch now.

        A lane is ready when its coalesce window has elapsed since the
        head ticket enqueued, when a full batch is already waiting, or
        when waiting longer would push the head past its deadline.
        """
        if not state.queue:
            return False
        head = state.queue[0]
        if len(state.queue) >= self.config.max_batch:
            return True
        # Same addition as _next_wake's candidate — comparing via
        # subtraction instead can round the other way at the exact wake
        # instant and livelock a time-stepped driver.
        if now >= head.enqueue_time + state.config.coalesce_seconds:
            return True
        return head.deadline <= now + state.config.coalesce_seconds

    def _dispatch(self, now: float) -> Batch | None:
        """Pick the next lane by SWRR and coalesce its head batch."""
        ready = [
            state for state in self._lanes.values() if self._ready(state, now)
        ]
        if not ready:
            return None
        # Smooth weighted round-robin over the lanes with work ready:
        # each gains its weight in credit, the richest dispatches and
        # pays back the total — interleaving dispatches 4:1 instead of
        # bursting.
        total = sum(state.config.weight for state in ready)
        for state in ready:
            state.credit += state.config.weight
        chosen = max(ready, key=lambda state: (state.credit,
                                               state.config.weight))
        chosen.credit -= total
        return self._coalesce(chosen, now)

    def _coalesce(self, state: _Lane, now: float) -> Batch | None:
        """Build the head batch: same-plan tickets, degraded together.

        Takes the queue head's plan and pulls every queued ticket with
        an *equal* plan (frozen-dataclass equality — the same identity
        cache keys hash) and a query of the head's shape, up to
        ``max_batch``.  Non-matching tickets keep their queue order for
        a later batch, so a query of the wrong dimension fails only its
        own batch, never its stacked batch-mates'.  The controller's
        current degrade level is applied batch-wide at dispatch time;
        tickets that cannot meet their deadline even if dispatched now
        are dropped as ``deadline_infeasible`` rather than executed and
        thrown away.
        """
        head = state.queue[0]
        taken: list[Ticket] = []
        kept = deque()
        limit = self.config.max_batch
        one_shot = not coalescible(head.plan)
        for ticket in state.queue:
            if (
                len(taken) < limit
                and ticket.plan == head.plan
                and ticket.query.shape == head.query.shape
            ):
                taken.append(ticket)
                if one_shot:
                    limit = 1
            else:
                kept.append(ticket)
        state.queue = kept
        obs.observe_serving_queue_depth(state.config.name, len(kept))
        level = self.controller.degrade_level
        effective = head.plan.downgraded(
            level, floor=self.config.downgrade_floor
        )
        delays = [ticket.queue_delay(now) for ticket in taken]
        for delay in delays:
            self.controller.observe(delay, now)
        obs.observe_serving_batch(state.config.name, len(taken), delays)
        self.stats["batches"] += 1
        self.stats["batched_tickets"] += len(taken)
        return Batch(
            lane=state.config.name,
            tickets=tuple(taken),
            plan=head.plan,
            effective_plan=effective,
            degrade_level=level,
            dispatch_time=now,
        )

    def _next_wake(self, now: float) -> float | None:
        """Earliest future instant at which :meth:`poll` could act."""
        wake: float | None = None
        for state in self._lanes.values():
            if not state.queue:
                continue
            head = state.queue[0]
            candidate = min(
                head.enqueue_time + state.config.coalesce_seconds,
                head.deadline,
            )
            wake = candidate if wake is None else min(wake, candidate)
        if wake is None:
            return None
        return max(wake, now)

    # -- completion ----------------------------------------------------

    def complete(
        self,
        batch: Batch,
        results: list[SearchResult],
        now: float,
    ) -> list[tuple[Ticket, ServedResponse]]:
        """Resolve a batch the caller executed with ``effective_plan``.

        ``results`` align with ``batch.tickets``.  Degraded batches get
        the degradation vocabulary stamped into each result's extras
        (``degraded`` / ``coverage`` / ``degrade_level``).
        """
        if len(results) != len(batch.tickets):
            raise ValueError(
                f"batch of {len(batch.tickets)} tickets got "
                f"{len(results)} results"
            )
        level = batch.degrade_level
        degraded = level > 0
        coverage = (
            batch.plan.budget_fraction(batch.effective_plan)
            if degraded else 1.0
        )
        out: list[tuple[Ticket, ServedResponse]] = []
        for ticket, result in zip(batch.tickets, results):
            if degraded:
                result = replace(result, extras={
                    **result.extras,
                    "degraded": True,
                    "coverage": coverage,
                    "degrade_level": level,
                })
            latency = max(0.0, now - ticket.enqueue_time)
            response = ServedResponse(
                status=(
                    STATUS_SERVED_DEGRADED if degraded else STATUS_SERVED
                ),
                lane=ticket.lane,
                seq=ticket.seq,
                result=result,
                latency_seconds=latency,
                queue_seconds=ticket.queue_delay(batch.dispatch_time),
                degrade_level=level,
                coverage=coverage,
                deadline_met=now <= ticket.deadline,
                effective_plan=batch.effective_plan,
                payload=ticket.payload,
            )
            self.stats["served"][ticket.lane] += 1
            if degraded:
                self.stats["degraded"][ticket.lane] += 1
            obs.observe_serving_served(ticket.lane, latency, degraded)
            out.append((ticket, response))
        return out

    def fail(
        self,
        batch: Batch,
        now: float,
        detail: str | None = None,
    ) -> list[tuple[Ticket, ServedResponse]]:
        """Resolve every ticket of a batch whose execution raised."""
        return [
            (ticket, self._reject_ticket(
                ticket, REASON_EXECUTION_ERROR, now, detail
            ))
            for ticket in batch.tickets
        ]

    def drop_infeasible(
        self, batch: Batch, service_estimate: float, now: float
    ) -> tuple[Batch, list[tuple[Ticket, ServedResponse]]]:
        """Split out tickets that cannot meet their deadline.

        Given an estimate of the batch's service time, tickets whose
        deadline falls before ``now + service_estimate`` are resolved as
        ``deadline_infeasible`` instead of being executed and discarded;
        the returned batch keeps only the feasible tickets (it may be
        empty).  The simulator uses this so that *every* completion in
        virtual time meets its deadline by construction; the asyncio
        front door, with no reliable service estimate, skips it.
        """
        feasible: list[Ticket] = []
        dropped: list[tuple[Ticket, ServedResponse]] = []
        horizon = now + service_estimate
        for ticket in batch.tickets:
            if ticket.deadline < horizon:
                dropped.append(
                    (ticket, self._reject_ticket(
                        ticket, REASON_DEADLINE_INFEASIBLE, now
                    ))
                )
            else:
                feasible.append(ticket)
        if not dropped:
            return batch, []
        return replace(batch, tickets=tuple(feasible)), dropped

    def shutdown(self, now: float) -> list[tuple[Ticket, ServedResponse]]:
        """Drain every queue, resolving the remainder as ``shutdown``."""
        drained: list[tuple[Ticket, ServedResponse]] = []
        for name, state in self._lanes.items():
            while state.queue:
                ticket = state.queue.popleft()
                drained.append(
                    (ticket, self._reject_ticket(
                        ticket, REASON_SHUTDOWN, now
                    ))
                )
            obs.observe_serving_queue_depth(name, 0)
        return drained

    def reject_invalid(
        self, lane: str, detail: str, payload: Any = None
    ) -> ServedResponse:
        """Resolve a request whose query failed validation."""
        self._seq += 1
        self.stats["offered"][lane] += 1
        self.stats["rejected"][lane][REASON_INVALID_QUERY] += 1
        obs.observe_serving_request(lane)
        obs.observe_serving_rejected(lane, REASON_INVALID_QUERY)
        return ServedResponse(
            status=STATUS_REJECTED,
            lane=lane,
            seq=self._seq,
            reason=REASON_INVALID_QUERY,
            detail=detail,
            payload=payload,
        )

    def _reject_ticket(
        self,
        ticket: Ticket,
        reason: str,
        now: float,
        detail: str | None = None,
    ) -> ServedResponse:
        self.stats["rejected"][ticket.lane][reason] += 1
        obs.observe_serving_rejected(ticket.lane, reason)
        return ServedResponse(
            status=STATUS_REJECTED,
            lane=ticket.lane,
            seq=ticket.seq,
            reason=reason,
            detail=detail,
            latency_seconds=max(0.0, now - ticket.enqueue_time),
            queue_seconds=ticket.queue_delay(now),
            deadline_met=False,
            payload=ticket.payload,
        )
