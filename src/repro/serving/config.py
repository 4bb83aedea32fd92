"""Declared serving policy: lanes, deadlines, overload thresholds.

Everything the front door *promises* lives here as frozen dataclasses,
separated from the mechanism (:mod:`repro.serving.core`) so a config is
pure data: the asyncio front door serves with it, and the virtual-time
simulator replays traffic through the same config in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "LaneConfig",
    "OverloadConfig",
    "FrontDoorConfig",
    "default_config",
]


@dataclass(frozen=True)
class LaneConfig:
    """One priority lane: its queue budget, deadline and drain weight.

    Attributes
    ----------
    name:
        Lane label; also the ``lane`` value on every serving metric.
    weight:
        Share of drain opportunities under smooth weighted round-robin;
        a weight-4 interactive lane dispatches four batches for every
        one a weight-1 batch lane gets when both have work ready.
    max_depth:
        Backlog budget — admissions beyond this queue depth are
        rejected with reason ``queue_full``.
    deadline_seconds:
        Default per-request deadline (admission to completion) when the
        caller does not give one.
    coalesce_seconds:
        Batching latency budget: how long a queued head may wait for
        compatible queries to coalesce behind it before the lane
        becomes dispatchable.
    """

    name: str
    weight: int = 1
    max_depth: int = 256
    deadline_seconds: float = 0.05
    coalesce_seconds: float = 0.002

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("lane name must be non-empty")
        if self.weight < 1:
            raise ValueError(f"lane weight must be >= 1, got {self.weight}")
        if self.max_depth < 1:
            raise ValueError(
                f"lane max_depth must be >= 1, got {self.max_depth}"
            )
        if not self.deadline_seconds > 0:
            raise ValueError(
                f"deadline_seconds must be positive, got "
                f"{self.deadline_seconds}"
            )
        if not self.coalesce_seconds >= 0:
            raise ValueError(
                f"coalesce_seconds must be >= 0, got {self.coalesce_seconds}"
            )


@dataclass(frozen=True)
class OverloadConfig:
    """Hysteretic overload controller thresholds.

    The controller tracks an EWMA of observed queue delay (time tickets
    waited before dispatch).  Degrade level ``l`` (``1..max_level``)
    engages when the EWMA exceeds ``degrade_delay_seconds * 2**(l-1)``;
    shedding engages beyond ``shed_delay_seconds``.  Each state exits
    only when the EWMA falls below ``recover_ratio`` times its entry
    threshold, and at most one step is taken per ``dwell_seconds`` —
    the two hysteresis mechanisms that keep the controller from
    flapping on bursty delay samples.

    Degrade level ``l`` runs ``QueryPlan.downgraded(l)``: the plan's
    candidate, bucket and time budgets divided by ``2**l``; no level
    drops a stage, so every degraded answer is still exact over its
    candidates.  At the default ``max_level`` of 2 the cheapest plan
    keeps a quarter of the budgets.
    """

    degrade_delay_seconds: float = 0.010
    shed_delay_seconds: float = 0.040
    recover_ratio: float = 0.5
    ewma_alpha: float = 0.3
    max_level: int = 2
    dwell_seconds: float = 0.020

    def __post_init__(self) -> None:
        if not self.degrade_delay_seconds > 0:
            raise ValueError("degrade_delay_seconds must be positive")
        if not self.shed_delay_seconds > self.degrade_delay_seconds:
            raise ValueError(
                "shed_delay_seconds must exceed degrade_delay_seconds"
            )
        if not 0 < self.recover_ratio < 1:
            raise ValueError(
                f"recover_ratio must be in (0, 1), got {self.recover_ratio}"
            )
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")
        if not self.dwell_seconds >= 0:
            raise ValueError(
                f"dwell_seconds must be >= 0, got {self.dwell_seconds}"
            )

    def entry_threshold(self, severity: int) -> float:
        """EWMA queue delay at which severity ``severity`` engages.

        Severities ``1..max_level`` are the degrade ladder; severity
        ``max_level + 1`` is shedding.
        """
        if severity < 1 or severity > self.max_level + 1:
            raise ValueError(f"severity out of range: {severity}")
        if severity == self.max_level + 1:
            return self.shed_delay_seconds
        return self.degrade_delay_seconds * 2 ** (severity - 1)


@dataclass(frozen=True)
class FrontDoorConfig:
    """The front door's complete declared policy."""

    lanes: tuple[LaneConfig, ...]
    max_batch: int = 32
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    downgrade_floor: int = 16

    def __post_init__(self) -> None:
        if not self.lanes:
            raise ValueError("at least one lane is required")
        names = [lane.name for lane in self.lanes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lane names: {names}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.downgrade_floor < 1:
            raise ValueError(
                f"downgrade_floor must be >= 1, got {self.downgrade_floor}"
            )

    def lane(self, name: str) -> LaneConfig:
        """The lane named ``name``, or a clear error."""
        for lane in self.lanes:
            if lane.name == name:
                return lane
        raise KeyError(
            f"unknown lane {name!r}; configured: "
            f"{[lane.name for lane in self.lanes]}"
        )


def default_config(
    interactive_deadline: float = 0.05,
    batch_deadline: float = 2.0,
) -> FrontDoorConfig:
    """The two-lane default: interactive (weight 4) over batch (weight 1)."""
    return FrontDoorConfig(
        lanes=(
            LaneConfig(
                name="interactive",
                weight=4,
                max_depth=256,
                deadline_seconds=interactive_deadline,
                coalesce_seconds=0.002,
            ),
            LaneConfig(
                name="batch",
                weight=1,
                max_depth=1024,
                deadline_seconds=batch_deadline,
                coalesce_seconds=0.02,
            ),
        ),
        max_batch=32,
    )
