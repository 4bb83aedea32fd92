"""Flash-crowd acceptance invariants for the serving front door.

The ISSUE-level contract, pinned deterministically in virtual time on a
seeded 10x flash-crowd trace:

* the front door never raises — every offered request resolves to
  exactly one ``served`` / ``served_degraded`` / ``rejected`` response
  with a machine-readable reason;
* the interactive lane's achieved p99 stays within its deadline;
* goodput through the crowd stays at or above 80% of the serial
  capacity (graceful degradation, not collapse);
* every completed request met its deadline (the simulator drops
  infeasible tickets instead of serving them late);
* all shed/degrade/reject decisions are visible in the run's tallies
  and, under a telemetry session, as ``repro_serving_*`` series.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.data.workloads import FlashCrowd, traffic_trace
from repro.hashing import ITQ
from repro.search import HashIndex
from repro.serving import (
    REJECT_REASONS,
    STATUSES,
    ServingSimulator,
    default_config,
)

#: Virtual serial capacity: 800 full-fidelity queries per second.
PER_QUERY_COST = 1.25e-3
CAPACITY_QPS = 1.0 / PER_QUERY_COST
CROWD = FlashCrowd(start=1.5, duration=1.5, multiplier=10.0)
BASE_RATE = 300.0
DURATION = 4.0
SEED = 7


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(600, 16, n_clusters=6, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    return sample_queries(data, 64, seed=3)


@pytest.fixture(scope="module")
def index(data):
    return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())


@pytest.fixture(scope="module")
def trace(queries):
    return traffic_trace(
        duration=DURATION, base_rate=BASE_RATE, n_distinct=len(queries),
        seed=SEED, flash_crowds=(CROWD,),
    )


@pytest.fixture(scope="module")
def crowd_sim(index, queries, trace):
    """One seeded 10x flash-crowd run, shared by the invariant tests."""
    simulator = ServingSimulator(index, per_query_cost=PER_QUERY_COST)
    plan = index.plan(k=5, n_candidates=100)
    return simulator.run_open(trace, queries, plan)


class TestAcceptanceInvariants:
    def test_every_request_resolves_exactly_once(self, crowd_sim, trace):
        assert len(crowd_sim) == len(trace)
        statuses = crowd_sim.by_status()
        assert sum(statuses.values()) == len(trace)
        assert set(statuses) <= set(STATUSES)
        for reason in crowd_sim.by_reason():
            assert reason in REJECT_REASONS

    def test_crowd_actually_overloads(self, crowd_sim, trace):
        # The trace must offer far beyond capacity inside the crowd —
        # otherwise the invariants below hold vacuously.
        offered = trace.offered_rate(CROWD.start, CROWD.start + CROWD.duration)
        assert offered > 2 * CAPACITY_QPS
        assert crowd_sim.by_status().get("served_degraded", 0) > 0
        assert crowd_sim.by_reason().get("shed", 0) > 0

    def test_interactive_p99_within_slo(self, crowd_sim):
        latencies = crowd_sim.served_latencies("interactive")
        assert len(latencies) > 100
        deadline = default_config().lane("interactive").deadline_seconds
        assert np.percentile(latencies, 99) <= deadline

    def test_crowd_goodput_at_least_80_percent_of_serial(self, crowd_sim):
        goodput = crowd_sim.goodput(CROWD.start, CROWD.start + CROWD.duration)
        assert goodput >= 0.8 * CAPACITY_QPS

    def test_every_completion_met_its_deadline(self, crowd_sim):
        for record in crowd_sim.records:
            if record.response.served:
                assert record.response.deadline_met

    def test_degradation_bought_capacity(self, crowd_sim):
        # Degraded completions ran a genuinely cheaper plan: coverage
        # strictly below 1 and a positive degrade level.
        degraded = [
            r.response for r in crowd_sim.records
            if r.response.status == "served_degraded"
        ]
        assert degraded
        for response in degraded:
            assert 0 < response.coverage < 1
            assert response.degrade_level > 0
            assert response.result.extras["degraded"] is True


class TestDeterminism:
    def test_same_seed_same_outcome(self, index, queries, trace):
        plan = index.plan(k=5, n_candidates=100)

        def outcome():
            simulator = ServingSimulator(
                index, per_query_cost=PER_QUERY_COST
            )
            sim = simulator.run_open(trace, queries, plan)
            return [
                (r.arrival, r.resolved, r.response.status,
                 r.response.reason)
                for r in sim.records
            ]

        assert outcome() == outcome()


class TestTelemetry:
    def test_serving_series_populated(self, index, queries):
        trace = traffic_trace(
            duration=1.0, base_rate=200.0, n_distinct=len(queries),
            seed=11, flash_crowds=(FlashCrowd(0.3, 0.5, 8.0),),
        )
        plan = index.plan(k=5, n_candidates=100)
        simulator = ServingSimulator(index, per_query_cost=2e-3)
        with obs.telemetry_session() as t:
            sim = simulator.run_open(trace, queries, plan)
            requests = t.registry.get("repro_serving_requests_total")
            served = t.registry.get("repro_serving_served_total")
            total = sum(
                child.value for _, child in requests.samples()
            )
            assert total == len(sim)
            assert sum(
                child.value for _, child in served.samples()
            ) > 0

    def test_silent_without_session(self, crowd_sim):
        # The module fixture ran with telemetry disabled: stats flow
        # through core tallies and nothing crashed.
        assert crowd_sim.core_stats["batches"] > 0


class TestClosedLoop:
    def test_clients_respect_backpressure(self, index, queries):
        simulator = ServingSimulator(index, per_query_cost=1e-3)
        plan = index.plan(k=5, n_candidates=100)
        sim = simulator.run_closed(
            queries, plan, n_clients=4, n_requests=100,
            think_seconds=0.002, seed=0,
        )
        assert len(sim) == 100
        # Four clients with think time offer well under capacity:
        # everything serves, nothing degrades.
        assert sim.by_status() == {"served": 100}
        assert sim.accepted_fraction() == 1.0

    def test_validation(self, index, queries):
        simulator = ServingSimulator(index)
        plan = index.plan(k=5, n_candidates=100)
        with pytest.raises(ValueError, match="positive"):
            simulator.run_closed(queries, plan, n_clients=0, n_requests=5)
        with pytest.raises(ValueError, match="per_query_cost"):
            ServingSimulator(index, per_query_cost=0.0)
        with pytest.raises(ValueError, match="batch_overhead"):
            ServingSimulator(index, batch_overhead=-1.0)
        # Regression: NaN passed both checks, and 7 of 27 requests of a
        # seeded open-loop trace never resolved.
        with pytest.raises(ValueError, match="per_query_cost"):
            ServingSimulator(index, per_query_cost=math.nan)
        with pytest.raises(ValueError, match="batch_overhead"):
            ServingSimulator(index, batch_overhead=math.nan)
        # Regression: NaN or inf think time left 18 of 20 requests
        # unresolved without an error; a negative one ran as zero.
        for think in (math.nan, math.inf, -0.001):
            with pytest.raises(ValueError, match="think_seconds"):
                simulator.run_closed(
                    queries, plan, n_clients=2, n_requests=20,
                    think_seconds=think,
                )
