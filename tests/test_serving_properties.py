"""Property-based tests (hypothesis) for the serving front door.

Three load-independence properties of the admission/shedding design,
checked on randomly drawn offered loads in deterministic virtual time:

* rising offered load never *increases* the cost-weighted accepted
  fraction (each served request weighted by the budget fraction of the
  plan it actually ran) — the raw accepted *count* is legitimately
  non-monotone, because the degrade ladder trades fidelity for
  quantity: a deeper degrade level makes each query cheaper, so a
  heavier load can be served a *larger share* of cheaper answers.
  Weighting by coverage removes that economy and restores the
  monotone law the controller actually obeys;
* every completed request respects its deadline — the simulator's
  infeasible-drop makes this structural, not statistical;
* degraded responses are bit-identical to running the downgraded plan
  directly — degradation changes *which* plan runs, never how.

A fourth property pins the result cache under the degrade ladder: at
every level, a cached index answers a coalesced batch bit-identically
to its uncached twin, on the miss and on the repeat hit, and a hit
stored under one level is never returned for another.  An admission
hit (``HashIndex.cached_result`` then ``FrontDoorCore.serve_cached``)
returns the requested plan's stored result at every level, served
undegraded.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.data.workloads import TrafficTrace, zipfian_stream
from repro.hashing import ITQ
from repro.search import HashIndex, QueryResultCache
from repro.serving import (
    STATUS_SERVED,
    FrontDoorCore,
    ServingSimulator,
    default_config,
    execute_batch,
)
from repro.serving.core import Batch, Ticket

DURATION = 0.5
#: Virtual serial capacity of 300 q/s: the drawn load multipliers cross
#: from comfortably under capacity to several times over it.
PER_QUERY_COST = 1.0 / 300.0
MULTIPLIERS = (1, 2, 4, 8)
#: Coalescing quantises admissions into batches, so the accepted
#: fraction can wobble by roughly one batch across nearby loads.
MONOTONE_TOLERANCE = 0.02

_DATA = gaussian_mixture(400, 16, n_clusters=5, seed=23)
_QUERIES = sample_queries(_DATA, 32, seed=4)
_INDEX = HashIndex(ITQ(code_length=8, seed=0), _DATA, prober=GQR())
_PLAN = _INDEX.plan(k=5, n_candidates=96)


def uniform_trace(rate: float, seed: int) -> TrafficTrace:
    """Evenly spaced arrivals at ``rate``, all on the interactive lane.

    Deterministic spacing (not Poisson) so a doubled rate is an exact
    refinement of the lighter trace — the cleanest setting in which the
    monotonicity property should hold.
    """
    n = int(rate * DURATION)
    arrivals = (np.arange(n, dtype=np.float64) + 0.5) / rate
    ids = zipfian_stream(len(_QUERIES), n, seed=seed)
    return TrafficTrace(arrivals, ids, ("interactive",) * n)


def run_at(rate: float, seed: int):
    simulator = ServingSimulator(
        _INDEX, default_config(), per_query_cost=PER_QUERY_COST,
        batch_overhead=0.0,
    )
    return simulator.run_open(uniform_trace(rate, seed), _QUERIES, _PLAN)


def weighted_accepted_fraction(sim) -> float:
    """Served share of offered load, cost-weighted by plan fidelity.

    A full-fidelity answer counts 1, a degraded answer counts its
    ``coverage`` (the budget fraction of the downgraded plan) — the
    quantity whose service cost the capacity bound actually limits.
    """
    served_cost = sum(
        record.response.coverage
        for record in sim.records
        if record.response.served
    )
    return served_cost / len(sim.records)


class TestServingProperties:
    @given(
        base_rate=st.integers(min_value=120, max_value=240),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=5, deadline=None)
    def test_load_response_properties(self, base_rate, seed):
        sims = [run_at(base_rate * m, seed) for m in MULTIPLIERS]

        # 1. Cost-weighted accepted fraction is non-increasing as
        #    offered load rises.  The *raw* fraction is not monotone
        #    (regression: base_rate=175 served 73% at 4x but 81% at 8x
        #    — the deeper degrade level made each answer cheaper, so
        #    more of them fit): weight each served request by the
        #    budget fraction it actually consumed.
        fractions = [weighted_accepted_fraction(sim) for sim in sims]
        for lighter, heavier in zip(fractions, fractions[1:]):
            assert heavier <= lighter + MONOTONE_TOLERANCE
        # The heaviest load runs several times over capacity, so
        # admission control must actually have engaged.
        assert sims[-1].accepted_fraction() < 1.0

        # 2. Every completed request respected its deadline.
        deadline = default_config().lane("interactive").deadline_seconds
        for sim in sims:
            for record in sim.records:
                if record.response.served:
                    assert record.response.deadline_met
                    assert record.response.latency_seconds <= deadline

        # 3. Degraded responses are bit-identical to running the
        #    downgraded plan directly against the index.
        checked = 0
        for sim, multiplier in zip(sims, MULTIPLIERS):
            trace = uniform_trace(base_rate * multiplier, seed)
            by_arrival = {
                float(t): int(qid)
                for t, qid in zip(trace.arrivals, trace.query_ids)
            }
            for record in sim.records:
                response = record.response
                if response.status != "served_degraded" or checked >= 24:
                    continue
                effective = response.effective_plan
                direct = _INDEX.search(
                    _QUERIES[by_arrival[record.arrival]],
                    effective.k,
                    n_candidates=effective.n_candidates,
                )
                assert np.array_equal(response.result.ids, direct.ids)
                assert np.array_equal(
                    response.result.distances, direct.distances
                )
                checked += 1
        # The 8x run overloads by construction; degradation must have
        # produced at least one verifiable response.
        assert checked > 0


def batch_at(level: int, query_ids: list[int], plan) -> Batch:
    """A coalesced batch of ``query_ids`` dispatched at ``level``."""
    config = default_config()
    tickets = tuple(
        Ticket(seq, "interactive", _QUERIES[qid], plan, 0.0, 1.0)
        for seq, qid in enumerate(query_ids)
    )
    return Batch(
        lane="interactive",
        tickets=tickets,
        plan=plan,
        effective_plan=plan.downgraded(level, floor=config.downgrade_floor),
        degrade_level=level,
        dispatch_time=0.0,
    )


def core_at(level: int) -> FrontDoorCore:
    """A default-config core whose overload controller sits at ``level``.

    Feeds the controller a queue delay half again above the level's
    entry threshold, which is below the next level's, until it climbs
    there.
    """
    core = FrontDoorCore(default_config())
    overload = core.config.overload
    now = 0.0
    while core.controller.severity < level:
        now += overload.dwell_seconds
        core.controller.observe(1.5 * overload.entry_threshold(level), now)
    assert core.controller.degrade_level == level
    return core


class TestDegradedCacheProperty:
    @given(
        query_ids=st.lists(
            st.integers(min_value=0, max_value=len(_QUERIES) - 1),
            min_size=1,
            max_size=12,
        ),
        budget=st.integers(min_value=64, max_value=256),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_level_matches_the_uncached_twin(
        self, query_ids, budget
    ):
        cached = HashIndex(
            ITQ(code_length=8, seed=0), _DATA, prober=GQR(),
            cache=QueryResultCache(),
        )
        plan = cached.plan(k=5, n_candidates=budget)
        levels = range(default_config().overload.max_level + 1)
        batches = [batch_at(level, query_ids, plan) for level in levels]
        # Each level runs a distinct plan, so no two levels share a key.
        effective = {b.effective_plan.stage_list() for b in batches}
        assert len(effective) == len(batches)

        served = []
        for batch in batches:
            want = execute_batch(_INDEX, batch)
            first = execute_batch(cached, batch)
            again = execute_batch(cached, batch)
            for got in (first, again):
                for a, b in zip(got, want, strict=True):
                    assert np.array_equal(a.ids, b.ids)
                    assert np.array_equal(a.distances, b.distances)
            assert all(a is b for a, b in zip(first, again))
            served.append({id(result) for result in first})
        for level, ids in enumerate(served):
            for other in served[level + 1:]:
                assert not ids & other

    @given(
        query_ids=st.lists(
            st.integers(min_value=0, max_value=len(_QUERIES) - 1),
            min_size=1,
            max_size=12,
        ),
        budget=st.integers(min_value=64, max_value=256),
    )
    @settings(max_examples=10, deadline=None)
    def test_admission_hit_is_the_requested_plans_result(
        self, query_ids, budget
    ):
        cached = HashIndex(
            ITQ(code_length=8, seed=0), _DATA, prober=GQR(),
            cache=QueryResultCache(),
        )
        plan = cached.plan(k=5, n_candidates=budget)
        want = execute_batch(_INDEX, batch_at(0, query_ids, plan))
        stored = execute_batch(cached, batch_at(0, query_ids, plan))
        for level in range(default_config().overload.max_level + 1):
            # The degraded batch stores its own plan's results beside
            # the requested plan's; the admission hit must not see them.
            degraded = execute_batch(cached, batch_at(level, query_ids, plan))
            core = core_at(level)
            for qid, kept, expected, other in zip(
                query_ids, stored, want, degraded, strict=True
            ):
                hit = cached.cached_result(_QUERIES[qid], plan)
                assert hit is kept
                assert level == 0 or hit is not other
                assert np.array_equal(hit.ids, expected.ids)
                assert np.array_equal(hit.distances, expected.distances)
                response = core.serve_cached(
                    "interactive", plan, hit, now=0.0
                )
                assert response.status == STATUS_SERVED
                assert response.degrade_level == 0
                assert response.queue_seconds == 0.0
                assert response.result is kept
            assert core.stats["cache_hits"]["interactive"] == len(query_ids)
