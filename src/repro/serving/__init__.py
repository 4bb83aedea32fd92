"""Async serving front door: admission, scheduling, load shedding.

The querying engine (PRs 1–7) answers one batch as fast as it can; this
package decides *which* requests get to be that batch when offered load
exceeds capacity.  Four cooperating mechanisms, declared in
:mod:`~repro.serving.config` and implemented sans-io in
:mod:`~repro.serving.core`:

* **admission control** — bounded per-lane queues; beyond the backlog
  budget requests are rejected immediately with a machine-readable
  reason instead of queueing without bound;
* **deadline-aware coalescing** — queued queries with *equal* plans
  (the same identity the result cache hashes) merge into one
  ``search_batch`` call within a per-lane latency budget;
* **priority lanes** — interactive vs. batch traffic drains under
  smooth weighted round-robin, so background work never starves the
  low-latency lane;
* **graduated load shedding** — a hysteretic controller watching queue
  delay first *degrades* admitted queries to cheaper plans
  (:meth:`QueryPlan.downgraded`; responses carry ``degraded`` and a
  ``coverage`` budget fraction) and only sheds outright beyond the
  last degrade level.

Two drivers share that core: :class:`AsyncFrontDoor` serves a real
index on an asyncio event loop, and :class:`ServingSimulator` replays
seeded traffic (:func:`repro.data.workloads.traffic_trace`) in virtual
time — the deterministic test harness of the policy.  Goodput and
latency figures come from measuring :class:`AsyncFrontDoor`, not from
the simulator's cost model.
"""

from repro.serving.config import (
    FrontDoorConfig,
    LaneConfig,
    OverloadConfig,
    default_config,
)
from repro.serving.core import (
    REASON_DEADLINE_EXPIRED,
    REASON_DEADLINE_INFEASIBLE,
    REASON_EXECUTION_ERROR,
    REASON_INVALID_QUERY,
    REASON_QUEUE_FULL,
    REASON_SHED,
    REASON_SHUTDOWN,
    REJECT_REASONS,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SERVED_DEGRADED,
    STATUSES,
    Batch,
    FrontDoorCore,
    OverloadController,
    ServedResponse,
    Ticket,
    coalescible,
)
from repro.serving.frontdoor import AsyncFrontDoor, execute_batch
from repro.serving.simulator import (
    ServingSimulator,
    SimRecord,
    SimulationResult,
)

__all__ = [
    "AsyncFrontDoor",
    "Batch",
    "FrontDoorConfig",
    "FrontDoorCore",
    "LaneConfig",
    "OverloadConfig",
    "OverloadController",
    "REASON_DEADLINE_EXPIRED",
    "REASON_DEADLINE_INFEASIBLE",
    "REASON_EXECUTION_ERROR",
    "REASON_INVALID_QUERY",
    "REASON_QUEUE_FULL",
    "REASON_SHED",
    "REASON_SHUTDOWN",
    "REJECT_REASONS",
    "STATUSES",
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "STATUS_SERVED_DEGRADED",
    "ServedResponse",
    "ServingSimulator",
    "SimRecord",
    "SimulationResult",
    "Ticket",
    "coalescible",
    "default_config",
    "execute_batch",
]
