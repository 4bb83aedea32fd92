"""Sans-io front-door core: admission, scheduling, shedding decisions.

Everything here drives :class:`FrontDoorCore` with hand-picked virtual
timestamps — no event loop, no threads, no sleeps — because the core is
deliberately sans-io: the same decisions the asyncio front door and the
traffic simulator execute are pinned deterministically.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.search.engine import QueryPlan
from repro.search.results import SearchResult
from repro.serving import (
    REASON_DEADLINE_EXPIRED,
    REASON_DEADLINE_INFEASIBLE,
    REASON_EXECUTION_ERROR,
    REASON_INVALID_QUERY,
    REASON_QUEUE_FULL,
    REASON_SHED,
    REASON_SHUTDOWN,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SERVED_DEGRADED,
    FrontDoorConfig,
    FrontDoorCore,
    LaneConfig,
    OverloadConfig,
    OverloadController,
    ServedResponse,
    SLOTarget,
    coalescible,
    default_config,
)

QUERY = np.zeros(8)
PLAN = QueryPlan(k=5, n_candidates=64)


def two_lane_config(**overrides):
    """A small, fast two-lane config for decision tests."""
    defaults = dict(
        lanes=(
            LaneConfig(name="interactive", weight=4, max_depth=4,
                       deadline_seconds=1.0, coalesce_seconds=0.002),
            LaneConfig(name="batch", weight=1, max_depth=8,
                       deadline_seconds=10.0, coalesce_seconds=0.002),
        ),
        max_batch=32,
    )
    defaults.update(overrides)
    return FrontDoorConfig(**defaults)


def fake_results(batch):
    """Aligned placeholder results for a batch under test."""
    return [
        SearchResult(ids=np.arange(3, dtype=np.int64),
                     distances=np.zeros(3))
        for _ in batch.tickets
    ]


class TestConfigValidation:
    def test_slo_target_ordering_enforced(self):
        with pytest.raises(ValueError, match="p50"):
            SLOTarget(0.05, 0.02, 0.08)
        with pytest.raises(ValueError, match="p50"):
            SLOTarget(0.0, 0.02, 0.08)

    def test_slo_target_as_dict_milliseconds(self):
        assert SLOTarget(0.02, 0.05, 0.08).as_dict() == {
            "p50_ms": 20.0, "p99_ms": 50.0, "p999_ms": 80.0,
        }

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "weight": 0},
        {"name": "x", "max_depth": 0},
        {"name": "x", "deadline_seconds": 0.0},
        {"name": "x", "coalesce_seconds": -1.0},
        {"name": "x", "deadline_seconds": math.nan},
        {"name": "x", "coalesce_seconds": math.nan},
    ])
    def test_lane_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LaneConfig(**kwargs)

    def test_overload_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="shed_delay"):
            OverloadConfig(degrade_delay_seconds=0.04,
                           shed_delay_seconds=0.04)
        with pytest.raises(ValueError, match="recover_ratio"):
            OverloadConfig(recover_ratio=1.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            OverloadConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="max_level"):
            OverloadConfig(max_level=0)
        with pytest.raises(ValueError, match="degrade_delay"):
            OverloadConfig(degrade_delay_seconds=math.nan)
        with pytest.raises(ValueError, match="shed_delay"):
            OverloadConfig(shed_delay_seconds=math.nan)
        with pytest.raises(ValueError, match="dwell"):
            OverloadConfig(dwell_seconds=math.nan)

    def test_entry_threshold_ladder(self):
        config = OverloadConfig(degrade_delay_seconds=0.01,
                                shed_delay_seconds=0.05, max_level=2)
        assert config.entry_threshold(1) == pytest.approx(0.01)
        assert config.entry_threshold(2) == pytest.approx(0.02)
        assert config.entry_threshold(3) == pytest.approx(0.05)  # shed
        with pytest.raises(ValueError):
            config.entry_threshold(0)
        with pytest.raises(ValueError):
            config.entry_threshold(4)

    def test_front_door_config_rejects_duplicate_lanes(self):
        lane = LaneConfig(name="interactive")
        with pytest.raises(ValueError, match="duplicate"):
            FrontDoorConfig(lanes=(lane, lane))

    def test_lane_lookup(self):
        config = default_config()
        assert config.lane("interactive").weight == 4
        assert config.lane("batch").weight == 1
        with pytest.raises(KeyError, match="nope"):
            config.lane("nope")


class TestCoalescible:
    def test_candidate_budget_only_coalesces(self):
        assert coalescible(QueryPlan(k=5, n_candidates=64))

    def test_bucket_or_time_budgets_do_not(self):
        assert not coalescible(QueryPlan(k=5, max_buckets=10))
        assert not coalescible(QueryPlan(k=5, time_budget=1.0))
        assert not coalescible(
            QueryPlan(k=5, n_candidates=64, max_buckets=10)
        )


class TestServedResponseContract:
    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            ServedResponse(status="lost", lane="interactive", seq=1)

    def test_rejection_needs_known_reason(self):
        with pytest.raises(ValueError, match="reason"):
            ServedResponse(status=STATUS_REJECTED, lane="interactive",
                           seq=1, reason="because")

    def test_served_needs_result(self):
        with pytest.raises(ValueError, match="result"):
            ServedResponse(status=STATUS_SERVED, lane="interactive", seq=1)


class TestAdmission:
    def test_admit_queues_a_ticket(self):
        core = FrontDoorCore(two_lane_config())
        ticket, rejection = core.admit("interactive", QUERY, PLAN, now=1.0)
        assert rejection is None
        assert ticket.lane == "interactive"
        assert ticket.enqueue_time == 1.0
        assert ticket.deadline == pytest.approx(2.0)  # lane default 1.0s
        assert core.depth("interactive") == 1
        assert core.stats["admitted"]["interactive"] == 1

    def test_explicit_deadline_overrides_lane_default(self):
        core = FrontDoorCore(two_lane_config())
        ticket, _ = core.admit(
            "interactive", QUERY, PLAN, now=1.0, deadline_seconds=0.25
        )
        assert ticket.deadline == pytest.approx(1.25)

    def test_queue_full_rejects_with_reason(self):
        core = FrontDoorCore(two_lane_config())
        for _ in range(4):  # interactive max_depth is 4
            ticket, rejection = core.admit("interactive", QUERY, PLAN, 0.0)
            assert rejection is None
        ticket, rejection = core.admit("interactive", QUERY, PLAN, 0.0)
        assert ticket is None
        assert rejection.status == STATUS_REJECTED
        assert rejection.reason == REASON_QUEUE_FULL
        assert not rejection.served
        assert core.stats["rejected"]["interactive"][REASON_QUEUE_FULL] == 1

    def test_lanes_have_independent_budgets(self):
        core = FrontDoorCore(two_lane_config())
        for _ in range(4):
            core.admit("interactive", QUERY, PLAN, 0.0)
        ticket, rejection = core.admit("batch", QUERY, PLAN, 0.0)
        assert rejection is None and ticket.lane == "batch"

    def test_unknown_lane_is_a_caller_bug(self):
        core = FrontDoorCore(two_lane_config())
        with pytest.raises(KeyError):
            core.admit("express", QUERY, PLAN, 0.0)

    def test_reject_invalid(self):
        core = FrontDoorCore(two_lane_config())
        response = core.reject_invalid("interactive", "bad shape")
        assert response.reason == REASON_INVALID_QUERY
        assert response.detail == "bad shape"
        assert core.stats["offered"]["interactive"] == 1


class TestExpiry:
    def test_overdue_tickets_expire_on_poll(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=0.01)
        expired, batch, _ = core.poll(now=0.02)
        assert batch is None
        (ticket, response), = expired
        assert response.reason == REASON_DEADLINE_EXPIRED
        assert not response.deadline_met
        assert core.depth("interactive") == 0

    def test_future_deadlines_survive(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=0.01)
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=5.0)
        expired, batch, _ = core.poll(now=0.02)
        assert len(expired) == 1
        # The survivor's coalesce window has elapsed, so the same poll
        # dispatches it rather than leaving it queued.
        assert batch is not None and len(batch) == 1


class TestCoalescing:
    def test_same_plan_tickets_share_one_batch(self):
        core = FrontDoorCore(two_lane_config())
        for _ in range(3):
            core.admit("interactive", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.01)  # coalesce window elapsed
        assert batch is not None
        assert len(batch) == 3
        assert batch.plan == PLAN
        assert batch.queries.shape == (3, 8)
        assert core.depth("interactive") == 0

    def test_wake_at_exact_coalesce_instant_dispatches(self):
        # Regression: _ready and _next_wake must share the same float
        # arithmetic, or polling exactly at the returned wake time can
        # find no lane ready and livelock a time-stepped driver.
        core = FrontDoorCore(two_lane_config())
        enqueue = 0.10750201867794001
        core.admit("batch", QUERY, PLAN, now=enqueue)
        _, batch, wake = core.poll(now=enqueue)
        assert batch is None
        _, batch, _ = core.poll(now=wake)
        assert batch is not None

    def test_plan_mismatch_splits_batches(self):
        other = QueryPlan(k=5, n_candidates=128)
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0)
        core.admit("interactive", QUERY, other, now=0.0)
        core.admit("interactive", QUERY, PLAN, now=0.0)
        _, first, _ = core.poll(now=0.01)
        assert first.plan == PLAN and len(first) == 2
        _, second, _ = core.poll(now=0.01)
        assert second.plan == other and len(second) == 1

    def test_non_coalescible_plans_dispatch_alone(self):
        bucket_plan = QueryPlan(k=5, max_buckets=10)
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, bucket_plan, now=0.0)
        core.admit("interactive", QUERY, bucket_plan, now=0.0)
        _, batch, _ = core.poll(now=0.01)
        assert len(batch) == 1
        _, batch, _ = core.poll(now=0.01)
        assert len(batch) == 1

    def test_max_batch_caps_one_dispatch(self):
        core = FrontDoorCore(two_lane_config(max_batch=2))
        for _ in range(5):
            core.admit("batch", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.01)
        assert len(batch) == 2
        assert core.depth("batch") == 3

    def test_full_batch_dispatches_before_window_closes(self):
        core = FrontDoorCore(two_lane_config(max_batch=2))
        core.admit("batch", QUERY, PLAN, now=0.0)
        core.admit("batch", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.0)  # window not elapsed, but full
        assert batch is not None and len(batch) == 2


class TestWeightedDraining:
    def drain_order(self, core, now, n):
        order = []
        for _ in range(n):
            _, batch, _ = core.poll(now)
            assert batch is not None
            order.append(batch.lane)
        return order

    def test_weights_share_dispatches_four_to_one(self):
        config = two_lane_config(
            max_batch=1,
            lanes=(
                LaneConfig(name="interactive", weight=4, max_depth=16,
                           deadline_seconds=10.0, coalesce_seconds=0.002),
                LaneConfig(name="batch", weight=1, max_depth=16,
                           deadline_seconds=10.0, coalesce_seconds=0.002),
            ),
        )
        core = FrontDoorCore(config)
        for _ in range(8):
            core.admit("interactive", QUERY, PLAN, now=0.0)
        for _ in range(2):
            core.admit("batch", QUERY, PLAN, now=0.0)
        order = self.drain_order(core, now=0.01, n=10)
        assert order.count("interactive") == 8
        assert order.count("batch") == 2
        # Smooth WRR interleaves instead of bursting: the batch lane is
        # not starved until the interactive queue drains.
        assert "batch" in order[:5]

    def test_lone_ready_lane_drains_regardless_of_weight(self):
        core = FrontDoorCore(two_lane_config(max_batch=1))
        core.admit("batch", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.01)
        assert batch.lane == "batch"


class TestOverloadController:
    CONFIG = OverloadConfig(
        degrade_delay_seconds=0.01, shed_delay_seconds=0.04,
        recover_ratio=0.5, ewma_alpha=1.0, max_level=2,
        dwell_seconds=0.02,
    )

    def climb(self, controller, delay, start=0.0, steps=10):
        now = start
        for _ in range(steps):
            controller.observe(delay, now)
            now += self.CONFIG.dwell_seconds
        return now

    def test_healthy_under_small_delays(self):
        controller = OverloadController(self.CONFIG)
        self.climb(controller, delay=0.001)
        assert controller.severity == 0
        assert controller.degrade_level == 0
        assert not controller.shedding

    def test_sustained_delay_climbs_to_shedding(self):
        controller = OverloadController(self.CONFIG)
        severities = []
        now = 0.0
        for _ in range(4):
            controller.observe(0.1, now)
            severities.append(controller.severity)
            now += self.CONFIG.dwell_seconds
        assert severities == [1, 2, 3, 3]  # one step per dwell, then cap
        assert controller.degrade_level == 2  # capped at max_level
        assert controller.shedding

    def test_dwell_limits_to_one_step_per_window(self):
        controller = OverloadController(self.CONFIG)
        controller.observe(0.1, now=0.0)
        controller.observe(0.1, now=0.0)  # same instant: no second step
        assert controller.severity == 1

    def test_hysteresis_holds_state_between_thresholds(self):
        controller = OverloadController(self.CONFIG)
        now = self.climb(controller, delay=0.1, steps=4)
        assert controller.shedding
        # Between recover (0.02) and entry (0.04): hold.
        now = self.climb(controller, delay=0.03, start=now, steps=5)
        assert controller.shedding
        # Below recover_ratio * entry threshold: step back down.
        controller.observe(0.001, now)
        assert controller.severity == 2
        assert not controller.shedding

    def test_recovers_fully_when_delay_vanishes(self):
        controller = OverloadController(self.CONFIG)
        now = self.climb(controller, delay=0.1, steps=4)
        self.climb(controller, delay=0.0, start=now, steps=10)
        assert controller.severity == 0


class TestSheddingPath:
    def config(self):
        return two_lane_config(
            overload=OverloadConfig(
                degrade_delay_seconds=0.01, shed_delay_seconds=0.04,
                recover_ratio=0.5, ewma_alpha=1.0, max_level=1,
                dwell_seconds=0.01,
            ),
        )

    def shed_engaged_core(self):
        """A core whose stale backlog has driven admissions into shed."""
        core = FrontDoorCore(self.config())
        core.admit("interactive", QUERY, PLAN, now=0.0)  # grows stale
        # Each arrival observes the live backlog delay, so the ladder
        # climbs one dwell-gated step per admission attempt.
        ticket, _ = core.admit("interactive", QUERY, PLAN, now=1.0)
        assert ticket is not None  # level 1: degraded, still admitting
        ticket, rejection = core.admit("interactive", QUERY, PLAN, now=1.02)
        assert ticket is None and rejection.reason == REASON_SHED
        return core

    def test_admissions_shed_when_backlog_grows_stale(self):
        core = self.shed_engaged_core()
        assert core.controller.shedding
        assert core.stats["rejected"]["interactive"][REASON_SHED] == 1

    def test_shedding_recovers_from_admission_observations(self):
        # Regression: shedding stops dispatches, so dispatch-time delay
        # observations alone would freeze the controller in shed state
        # forever.  Arrivals over drained queues must walk it back down.
        core = self.shed_engaged_core()
        while True:  # drain the backlog (expiry + dispatch)
            _, batch, _ = core.poll(now=1.03)
            if batch is None:
                break
            core.complete(batch, fake_results(batch), now=1.04)
        now, admitted = 2.0, False
        for _ in range(20):
            ticket, _ = core.admit("interactive", QUERY, PLAN, now)
            if ticket is not None:
                admitted = True
                break
            now += 0.05
        assert admitted
        assert not core.controller.shedding


class TestServeCached:
    """Cache hits answered at admission: served, whatever the backlog."""

    RESULT = SearchResult(ids=np.arange(3, dtype=np.int64),
                          distances=np.zeros(3))

    def test_hit_served_undegraded_without_queueing(self):
        core = TestDegradedDispatch().degraded_core()
        depth = core.depth("interactive")
        response = core.serve_cached("interactive", PLAN, self.RESULT,
                                     now=1.0)
        assert response.status == STATUS_SERVED
        assert response.result is self.RESULT
        assert response.degrade_level == 0 and response.coverage == 1.0
        assert response.queue_seconds == 0.0
        assert response.effective_plan == PLAN
        assert core.depth("interactive") == depth
        assert core.stats["cache_hits"]["interactive"] == 1
        assert core.stats["served"]["interactive"] == 1
        assert core.stats["admitted"]["interactive"] == 2

    def test_hit_feeds_the_controller_the_backlog_delay(self):
        config = two_lane_config(overload=OverloadConfig(
            degrade_delay_seconds=0.01, shed_delay_seconds=10.0,
            recover_ratio=0.5, ewma_alpha=1.0, max_level=2,
            dwell_seconds=0.0,
        ))
        core = FrontDoorCore(config)
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=10.0)
        core.serve_cached("interactive", PLAN, self.RESULT, now=1.0)
        assert core.controller.ewma == pytest.approx(1.0)
        assert core.controller.degrade_level == 1

    def test_hit_served_while_shedding(self):
        core = TestSheddingPath().shed_engaged_core()
        response = core.serve_cached("interactive", PLAN, self.RESULT,
                                     now=1.021)
        assert core.controller.shedding
        assert response.status == STATUS_SERVED
        ticket, rejection = core.admit("interactive", QUERY, PLAN,
                                       now=1.022)
        assert ticket is None and rejection.reason == REASON_SHED
        stats = core.stats
        assert stats["cache_hits"]["interactive"] == 1
        assert stats["served"]["interactive"] == 1
        assert stats["offered"]["interactive"] == 5
        assert stats["rejected"]["interactive"][REASON_SHED] == 2

    def test_hit_served_while_the_lane_is_full(self):
        core = FrontDoorCore(two_lane_config())
        for _ in range(4):
            core.admit("interactive", QUERY, PLAN, now=0.0)
        _, rejection = core.admit("interactive", QUERY, PLAN, now=0.0)
        assert rejection.reason == REASON_QUEUE_FULL
        response = core.serve_cached("interactive", PLAN, self.RESULT,
                                     now=0.0)
        assert response.status == STATUS_SERVED
        assert core.depth("interactive") == 4
        assert core.stats["cache_hits"]["interactive"] == 1
        assert core.stats["offered"]["interactive"] == 6

    def test_hit_counted_in_telemetry(self):
        with obs.telemetry_session() as state:
            core = FrontDoorCore(two_lane_config())
            core.serve_cached("batch", PLAN, self.RESULT, now=0.0)
            registry = state.registry
            hits = registry.get("repro_serving_cache_hits_total")
            served = registry.get("repro_serving_served_total")
            assert hits.labels(lane="batch").value == 1
            assert served.labels(lane="batch").value == 1


class TestDegradedDispatch:
    def degraded_core(self):
        config = two_lane_config(
            overload=OverloadConfig(
                degrade_delay_seconds=0.01, shed_delay_seconds=10.0,
                recover_ratio=0.5, ewma_alpha=1.0, max_level=2,
                dwell_seconds=0.0,
            ),
            downgrade_floor=8,
        )
        core = FrontDoorCore(config)
        # A stale queued head makes the second arrival observe a large
        # backlog delay, engaging degrade level 1 for real — the same
        # signal path production admissions use.
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=10.0)
        core.admit("interactive", QUERY, PLAN, now=1.0,
                   deadline_seconds=10.0)
        assert core.controller.degrade_level == 1
        return core

    def test_batch_carries_downgraded_plan(self):
        core = self.degraded_core()
        _, batch, _ = core.poll(now=1.01)
        assert batch.degrade_level == 1
        assert batch.effective_plan == PLAN.downgraded(1, floor=8)
        assert batch.effective_plan.n_candidates < PLAN.n_candidates

    def test_complete_stamps_degradation_vocabulary(self):
        core = self.degraded_core()
        _, batch, _ = core.poll(now=1.01)
        resolved = core.complete(batch, fake_results(batch), now=1.02)
        expected = PLAN.budget_fraction(batch.effective_plan)
        for _, response in resolved:
            assert response.status == STATUS_SERVED_DEGRADED
            assert response.degrade_level == 1
            assert response.coverage == pytest.approx(expected)
            assert response.result.extras["degraded"] is True
            assert response.result.extras["coverage"] == pytest.approx(
                expected
            )
            assert response.result.extras["degrade_level"] == 1
        assert core.stats["degraded"]["interactive"] == len(resolved)


class TestCompletion:
    def dispatched(self, core, n=2, now=0.0):
        for _ in range(n):
            core.admit("interactive", QUERY, PLAN, now=now)
        _, batch, _ = core.poll(now=now + 0.01)
        return batch

    def test_complete_resolves_every_ticket(self):
        core = FrontDoorCore(two_lane_config())
        batch = self.dispatched(core, n=3)
        resolved = core.complete(batch, fake_results(batch), now=0.02)
        assert len(resolved) == 3
        for ticket, response in resolved:
            assert response.status == STATUS_SERVED
            assert response.deadline_met
            assert response.latency_seconds == pytest.approx(0.02)
            assert response.queue_seconds == pytest.approx(0.01)
        assert core.stats["served"]["interactive"] == 3

    def test_result_count_mismatch_raises(self):
        core = FrontDoorCore(two_lane_config())
        batch = self.dispatched(core, n=2)
        with pytest.raises(ValueError, match="2 tickets got 1"):
            core.complete(batch, fake_results(batch)[:1], now=0.02)

    def test_late_completion_reports_deadline_missed(self):
        core = FrontDoorCore(two_lane_config())
        batch = self.dispatched(core)
        (_, response), *_ = core.complete(
            batch, fake_results(batch), now=5.0  # past the 1.0s deadline
        )
        assert response.served and not response.deadline_met

    def test_fail_resolves_as_execution_error(self):
        core = FrontDoorCore(two_lane_config())
        batch = self.dispatched(core, n=2)
        resolved = core.fail(batch, now=0.02, detail="boom")
        assert all(
            r.reason == REASON_EXECUTION_ERROR and r.detail == "boom"
            for _, r in resolved
        )
        assert (
            core.stats["rejected"]["interactive"][REASON_EXECUTION_ERROR]
            == 2
        )


class TestDropInfeasible:
    def test_hopeless_tickets_are_dropped_not_executed(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=0.05)
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=5.0)
        _, batch, _ = core.poll(now=0.01)
        trimmed, dropped = core.drop_infeasible(
            batch, service_estimate=0.1, now=0.01
        )
        assert len(trimmed) == 1
        (_, response), = dropped
        assert response.reason == REASON_DEADLINE_INFEASIBLE

    def test_feasible_batch_passes_through_unchanged(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.01)
        trimmed, dropped = core.drop_infeasible(
            batch, service_estimate=0.001, now=0.01
        )
        assert trimmed is batch and dropped == []


class TestShutdown:
    def test_drains_every_lane_with_shutdown_reason(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=0.0)
        core.admit("batch", QUERY, PLAN, now=0.0)
        drained = core.shutdown(now=0.01)
        assert {r.reason for _, r in drained} == {REASON_SHUTDOWN}
        assert core.pending() == 0


class TestPollBookkeeping:
    def test_next_wake_is_none_when_idle(self):
        core = FrontDoorCore(two_lane_config())
        expired, batch, wake = core.poll(now=0.0)
        assert expired == [] and batch is None and wake is None

    def test_next_wake_tracks_coalesce_window(self):
        core = FrontDoorCore(two_lane_config())
        core.admit("interactive", QUERY, PLAN, now=1.0)
        _, _, wake = core.poll(now=1.0)
        assert wake == pytest.approx(1.002)  # 2ms coalesce window

    def test_next_wake_never_in_the_past(self):
        core = FrontDoorCore(two_lane_config(max_batch=2))
        # A deadline already behind `now` must clamp, not schedule a
        # wake-up in the past.
        core.admit("interactive", QUERY, PLAN, now=0.0,
                   deadline_seconds=10.0)
        _, _, wake = core.poll(now=0.0015)
        assert wake >= 0.0015

    def test_offered_counts_partition_into_outcomes(self):
        core = FrontDoorCore(two_lane_config())
        for _ in range(6):
            core.admit("interactive", QUERY, PLAN, now=0.0)
        _, batch, _ = core.poll(now=0.01)
        core.complete(batch, fake_results(batch), now=0.02)
        stats = core.stats
        resolved = (
            stats["served"]["interactive"]
            + sum(stats["rejected"]["interactive"].values())
        )
        assert stats["offered"]["interactive"] == 6
        assert resolved == 6  # 4 served (max_depth) + 2 queue_full
