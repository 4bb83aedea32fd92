"""Process-global telemetry state and the engine's recording hooks.

The query engine calls three tiny hooks — :func:`should_sample`,
:func:`observe_query` / :func:`observe_batch`, and the distributed
layer's :func:`observe_shard` / :func:`observe_distributed` — all of
which reduce to a single ``None`` check when telemetry is disabled
(the default).  :func:`enable_telemetry` installs a
:class:`TelemetryState` binding a
:class:`~repro.obs.metrics.MetricsRegistry` (injected or fresh) and an
optional :class:`~repro.obs.sampling.TraceSampler`; the state
pre-registers every instrument and caches per-index label children so
the per-query cost is a handful of histogram observes.

Instrument inventory (all under the ``repro_`` prefix):

========================================  =========  =====================
metric                                    kind       labels
========================================  =========  =====================
``repro_queries_total``                   counter    ``index``
``repro_query_stage_seconds``             histogram  ``index``, ``stage``
``repro_query_candidates``                histogram  ``index``
``repro_query_buckets_probed``            histogram  ``index``
``repro_early_stops_total``               counter    ``index``
``repro_sampled_traces_total``            counter    —
``repro_shard_queries_total``             counter    ``worker``
``repro_shard_seconds``                   histogram  ``worker``
``repro_distributed_queries_total``       counter    —
``repro_distributed_workers_contacted``   histogram  —
``repro_distributed_stage_seconds``       histogram  ``stage``
``repro_distributed_retries_total``       counter    —
``repro_distributed_hedges_total``        counter    —
``repro_distributed_degraded_total``      counter    —
``repro_distributed_coverage``            histogram  —
``repro_shard_faults_total``              counter    ``worker``, ``kind``
``repro_breaker_state``                   gauge      ``worker``
``repro_cache_hits_total``                counter    ``cache``
``repro_cache_misses_total``              counter    ``cache``
``repro_cache_evictions_total``           counter    ``cache``
``repro_cache_occupancy``                 gauge      ``cache``
``repro_cache_hit_seconds``               histogram  ``cache``
``repro_serving_requests_total``          counter    ``lane``
``repro_serving_admitted_total``          counter    ``lane``
``repro_serving_rejected_total``          counter    ``lane``, ``reason``
``repro_serving_shed_total``              counter    ``lane``
``repro_serving_degraded_total``          counter    ``lane``
``repro_serving_served_total``            counter    ``lane``
``repro_serving_queue_depth``             gauge      ``lane``
``repro_serving_queue_delay_seconds``     histogram  ``lane``
``repro_serving_latency_seconds``         histogram  ``lane``
``repro_serving_admission_seconds``       histogram  —
``repro_serving_batch_size``              histogram  ``lane``
``repro_serving_overload_level``          gauge      —
========================================  =========  =====================

``index`` is the engine's name ("hash", "mih", "imi", "compact",
"dynamic", "stream", "shard").  ``stage`` is a first-class label over
the engine's pipeline stages: ``retrieval`` / ``evaluation`` /
``total`` always, plus ``rerank`` and ``fuse`` for queries whose plan
ran those stages (``fanout`` / ``merge`` / ``rerank`` for the
distributed coordinator).  The fault-tolerance series (PR 4) are fed
by the coordinator: ``kind`` is a fault-taxonomy slug (``crash`` /
``transient`` / ``timeout`` / ``corrupt``), and ``repro_breaker_state``
encodes the circuit-breaker automaton as 0 = closed, 1 = half-open,
2 = open.  When a trace sampler is installed, sampled distributed
queries embed their classified fault events in the trace's ``stats``.
The cache series (PR 5) are fed by
:class:`~repro.search.cache.QueryResultCache`; ``cache`` is the cache's
name ("hash", "shard", …).

The serving series are fed by the asynchronous front door
(:mod:`repro.serving`): ``lane`` is the priority lane's name
("interactive", "batch", …) and ``reason`` a rejection slug
(``queue_full`` / ``shed`` / ``deadline_expired`` /
``deadline_infeasible`` / ``invalid_query`` / ``execution_error`` /
``shutdown``).  ``repro_serving_shed_total`` double-counts the
``reason="shed"`` rejections so shedding is visible as its own series;
``repro_serving_overload_level`` encodes the hysteretic overload
controller's position on the degrade ladder (shedding is reported as
``max_level + 1``).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Protocol

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    Counter,
    CounterChild,
    Gauge,
    Histogram,
    HistogramChild,
    MetricsRegistry,
)
from repro.obs.sampling import TraceSampler

if TYPE_CHECKING:
    from repro.obs.spans import Span

__all__ = [
    "QueryStats",
    "TelemetryState",
    "disable_telemetry",
    "enable_telemetry",
    "get_registry",
    "get_sampler",
    "observe_batch",
    "observe_breaker",
    "observe_cache",
    "observe_cache_evictions",
    "observe_cache_occupancy",
    "observe_distributed",
    "observe_fault",
    "observe_query",
    "observe_serving_admission",
    "observe_serving_batch",
    "observe_serving_overload",
    "observe_serving_queue_depth",
    "observe_serving_rejected",
    "observe_serving_request",
    "observe_serving_served",
    "observe_shard",
    "should_sample",
    "telemetry_enabled",
    "telemetry_session",
]

_WORKERS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
_COVERAGE_BUCKETS = (0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

#: Circuit-breaker automaton states encoded for the gauge.
_BREAKER_STATES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class QueryStats(Protocol):
    """The slice of ``ExecutionContext`` the hooks read (duck-typed so
    ``repro.obs`` stays import-independent of the engine)."""

    n_buckets_probed: int
    n_candidates: int
    early_stop_triggered: bool
    retrieval_seconds: float
    evaluation_seconds: float
    total_seconds: float
    bucket_sizes: list[int] | None
    stage_seconds: dict[str, float]

    def as_dict(self) -> dict: ...


class _IndexInstruments:
    """Cached recording methods for one ``index`` label value.

    Holds the children's *bound* ``observe``/``inc`` methods rather
    than the children: these run on every query, and skipping the
    attribute lookup and method bind per call is measurable against
    sub-millisecond query latencies.
    """

    __slots__ = (
        "inc_queries",
        "observe_retrieval",
        "observe_evaluation",
        "observe_total",
        "observe_candidates",
        "observe_buckets",
        "inc_early_stops",
        "observe_rerank",
        "observe_fuse",
    )

    def __init__(
        self,
        queries: CounterChild,
        retrieval: HistogramChild,
        evaluation: HistogramChild,
        total: HistogramChild,
        candidates: HistogramChild,
        buckets: HistogramChild,
        early_stops: CounterChild,
        rerank: HistogramChild,
        fuse: HistogramChild,
    ) -> None:
        self.inc_queries = queries.inc
        self.observe_retrieval = retrieval.observe
        self.observe_evaluation = evaluation.observe
        self.observe_total = total.observe
        self.observe_candidates = candidates.observe
        self.observe_buckets = buckets.observe
        self.inc_early_stops = early_stops.inc
        self.observe_rerank = rerank.observe
        self.observe_fuse = fuse.observe


class TelemetryState:
    """Everything telemetry-on means: registry, sampler, instruments."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sampler: TraceSampler | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = sampler
        reg = self.registry
        self.queries: Counter = reg.counter(
            "repro_queries_total",
            "Queries executed by the query engine",
            labels=("index",),
        )
        self.stage_seconds: Histogram = reg.histogram(
            "repro_query_stage_seconds",
            "Per-stage query latency as measured by the engine's spans",
            labels=("index", "stage"),
        )
        self.candidates: Histogram = reg.histogram(
            "repro_query_candidates",
            "Candidate ids gathered per query (evaluation cost)",
            labels=("index",),
            buckets=DEFAULT_COUNT_BUCKETS,
        )
        self.buckets_probed: Histogram = reg.histogram(
            "repro_query_buckets_probed",
            "Non-empty buckets fetched per query (retrieval cost)",
            labels=("index",),
            buckets=DEFAULT_COUNT_BUCKETS,
        )
        self.early_stops: Counter = reg.counter(
            "repro_early_stops_total",
            "Queries terminated early by the Theorem 2 bound",
            labels=("index",),
        )
        self.sampled_traces: Counter = reg.counter(
            "repro_sampled_traces_total",
            "Queries captured by the trace sampler",
        )
        self.shard_queries: Counter = reg.counter(
            "repro_shard_queries_total",
            "Local searches answered per shard worker",
            labels=("worker",),
        )
        self.shard_seconds: Histogram = reg.histogram(
            "repro_shard_seconds",
            "Per-shard local search latency",
            labels=("worker",),
        )
        self.distributed_queries: Counter = reg.counter(
            "repro_distributed_queries_total",
            "Scatter-gather queries answered by the coordinator",
        )
        self.workers_contacted: Histogram = reg.histogram(
            "repro_distributed_workers_contacted",
            "Workers contacted per distributed query (fan-out)",
            buckets=_WORKERS_BUCKETS,
        )
        self.distributed_stage_seconds: Histogram = reg.histogram(
            "repro_distributed_stage_seconds",
            "Coordinator stage latency (fanout = scatter + local work, "
            "merge = gather + global top-k)",
            labels=("stage",),
        )
        self.distributed_retries: Counter = reg.counter(
            "repro_distributed_retries_total",
            "Failed shard attempts that were retried or degraded",
        )
        self.distributed_hedges: Counter = reg.counter(
            "repro_distributed_hedges_total",
            "Hedged requests issued to replicas for straggler attempts",
        )
        self.distributed_degraded: Counter = reg.counter(
            "repro_distributed_degraded_total",
            "Distributed queries answered with partial coverage",
        )
        self.distributed_coverage: Histogram = reg.histogram(
            "repro_distributed_coverage",
            "Reachable fraction of routed items per distributed query",
            buckets=_COVERAGE_BUCKETS,
        )
        self.shard_faults: Counter = reg.counter(
            "repro_shard_faults_total",
            "Classified shard failures by fault-taxonomy kind",
            labels=("worker", "kind"),
        )
        self.breaker_state: Gauge = reg.gauge(
            "repro_breaker_state",
            "Per-worker circuit-breaker state "
            "(0 = closed, 1 = half-open, 2 = open)",
            labels=("worker",),
        )
        self.cache_hits: Counter = reg.counter(
            "repro_cache_hits_total",
            "Query-result cache lookups answered from the cache",
            labels=("cache",),
        )
        self.cache_misses: Counter = reg.counter(
            "repro_cache_misses_total",
            "Query-result cache lookups that fell through to execution",
            labels=("cache",),
        )
        self.cache_evictions: Counter = reg.counter(
            "repro_cache_evictions_total",
            "Entries dropped by LRU pressure, TTL expiry or invalidation",
            labels=("cache",),
        )
        self.cache_occupancy: Gauge = reg.gauge(
            "repro_cache_occupancy",
            "Entries currently held by the query-result cache",
            labels=("cache",),
        )
        self.cache_hit_seconds: Histogram = reg.histogram(
            "repro_cache_hit_seconds",
            "Lookup latency of cache hits (key build excluded)",
            labels=("cache",),
        )
        self.serving_requests: Counter = reg.counter(
            "repro_serving_requests_total",
            "Requests offered to the serving front door per lane",
            labels=("lane",),
        )
        self.serving_admitted: Counter = reg.counter(
            "repro_serving_admitted_total",
            "Requests admitted past the front door's backlog budget",
            labels=("lane",),
        )
        self.serving_rejected: Counter = reg.counter(
            "repro_serving_rejected_total",
            "Requests rejected with a reason instead of being served",
            labels=("lane", "reason"),
        )
        self.serving_shed: Counter = reg.counter(
            "repro_serving_shed_total",
            "Requests rejected by the overload controller's shed state",
            labels=("lane",),
        )
        self.serving_degraded: Counter = reg.counter(
            "repro_serving_degraded_total",
            "Requests served with a downgraded (cheaper) plan",
            labels=("lane",),
        )
        self.serving_served: Counter = reg.counter(
            "repro_serving_served_total",
            "Requests served to completion (full-fidelity or degraded)",
            labels=("lane",),
        )
        self.serving_queue_depth: Gauge = reg.gauge(
            "repro_serving_queue_depth",
            "Tickets currently queued per priority lane",
            labels=("lane",),
        )
        self.serving_queue_delay: Histogram = reg.histogram(
            "repro_serving_queue_delay_seconds",
            "Time tickets spent queued before dispatch",
            labels=("lane",),
        )
        self.serving_latency: Histogram = reg.histogram(
            "repro_serving_latency_seconds",
            "Admission-to-completion latency of served requests",
            labels=("lane",),
        )
        self.serving_admission_seconds: Histogram = reg.histogram(
            "repro_serving_admission_seconds",
            "Wall time of the admission decision itself",
        )
        self.serving_batch_size: Histogram = reg.histogram(
            "repro_serving_batch_size",
            "Queries coalesced into each dispatched engine batch",
            labels=("lane",),
            buckets=_WORKERS_BUCKETS,
        )
        self.serving_overload_level: Gauge = reg.gauge(
            "repro_serving_overload_level",
            "Overload controller position: 0 = normal, 1..N = degrade "
            "ladder, N+1 = shedding",
        )
        self._per_index: dict[str, _IndexInstruments] = {}
        # Worker threads resolve instruments for their engine's index
        # label concurrently; the per-child locks inside the registry
        # make the cells safe, but this cache itself needs its own
        # guard.
        self._per_index_lock = threading.Lock()

    def index_instruments(self, index: str) -> _IndexInstruments:
        """Label children for ``index``, resolved once and cached."""
        instruments = self._per_index.get(index)
        if instruments is not None:
            return instruments
        with self._per_index_lock:
            instruments = self._per_index.get(index)
            if instruments is None:
                instruments = _IndexInstruments(
                    queries=self.queries.labels(index=index),
                    retrieval=self.stage_seconds.labels(
                        index=index, stage="retrieval"
                    ),
                    evaluation=self.stage_seconds.labels(
                        index=index, stage="evaluation"
                    ),
                    total=self.stage_seconds.labels(
                        index=index, stage="total"
                    ),
                    candidates=self.candidates.labels(index=index),
                    buckets=self.buckets_probed.labels(index=index),
                    early_stops=self.early_stops.labels(index=index),
                    rerank=self.stage_seconds.labels(
                        index=index, stage="rerank"
                    ),
                    fuse=self.stage_seconds.labels(index=index, stage="fuse"),
                )
                self._per_index[index] = instruments
            return instruments


_STATE: TelemetryState | None = None


def enable_telemetry(
    registry: MetricsRegistry | None = None,
    sampler: TraceSampler | None = None,
) -> TelemetryState:
    """Install (and return) the process-global telemetry state."""
    global _STATE
    _STATE = TelemetryState(registry=registry, sampler=sampler)
    return _STATE


def disable_telemetry() -> None:
    """Remove the global state; every hook returns to its no-op path."""
    global _STATE
    _STATE = None


def telemetry_enabled() -> bool:
    """Whether a telemetry state is currently installed."""
    return _STATE is not None


def get_registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` when telemetry is disabled."""
    return _STATE.registry if _STATE is not None else None


def get_sampler() -> TraceSampler | None:
    """The active sampler, or ``None``."""
    return _STATE.sampler if _STATE is not None else None


@contextmanager
def telemetry_session(
    registry: MetricsRegistry | None = None,
    sampler: TraceSampler | None = None,
) -> Iterator[TelemetryState]:
    """Enable telemetry for a scope, restoring the previous state after.

    The isolation primitive tests and the CLI use: whatever state was
    installed before (including none) comes back on exit.
    """
    global _STATE
    previous = _STATE
    state = TelemetryState(registry=registry, sampler=sampler)
    _STATE = state
    try:
        yield state
    finally:
        _STATE = previous


def should_sample() -> bool:
    """Advance the sampler; True when the coming query is selected."""
    state = _STATE
    if state is None or state.sampler is None:
        return False
    return state.sampler.should_sample()


def observe_query(
    index: str,
    ctx: QueryStats,
    root: Span | None = None,
    sampled: bool = False,
) -> None:
    """Record one executed query into the registry (and the sampler).

    ``ctx`` is the query's ``ExecutionContext``; ``root`` its span tree
    when the caller kept one; ``sampled`` the decision
    :func:`should_sample` returned before execution.
    """
    state = _STATE
    if state is None:
        return
    ins = state.index_instruments(index)
    ins.inc_queries()
    ins.observe_retrieval(ctx.retrieval_seconds)
    ins.observe_evaluation(ctx.evaluation_seconds)
    ins.observe_total(ctx.total_seconds)
    ins.observe_candidates(ctx.n_candidates)
    ins.observe_buckets(ctx.n_buckets_probed)
    if ctx.early_stop_triggered:
        ins.inc_early_stops()
    stage_seconds = getattr(ctx, "stage_seconds", None)
    if stage_seconds:
        if "rerank" in stage_seconds:
            ins.observe_rerank(stage_seconds["rerank"])
        if "fuse" in stage_seconds:
            ins.observe_fuse(stage_seconds["fuse"])
    if sampled and state.sampler is not None:
        state.sampled_traces.inc()
        state.sampler.record(
            spans=root.to_dict() if root is not None else None,
            stats=ctx.as_dict(),
            bucket_sizes=ctx.bucket_sizes,
        )


def observe_batch(index: str, contexts: list) -> None:
    """Record a batch of executed queries (no sampling on batch paths)."""
    state = _STATE
    if state is None or not contexts:
        return
    ins = state.index_instruments(index)
    for ctx in contexts:
        ins.inc_queries()
        ins.observe_retrieval(ctx.retrieval_seconds)
        ins.observe_evaluation(ctx.evaluation_seconds)
        ins.observe_total(ctx.total_seconds)
        ins.observe_candidates(ctx.n_candidates)
        ins.observe_buckets(ctx.n_buckets_probed)
        if ctx.early_stop_triggered:
            ins.inc_early_stops()
        stage_seconds = getattr(ctx, "stage_seconds", None)
        if stage_seconds:
            if "rerank" in stage_seconds:
                ins.observe_rerank(stage_seconds["rerank"])
            if "fuse" in stage_seconds:
                ins.observe_fuse(stage_seconds["fuse"])


def observe_shard(worker_id: int, seconds: float) -> None:
    """Record one shard-local search (called by ``ShardWorker``)."""
    state = _STATE
    if state is None:
        return
    state.shard_queries.labels(worker=worker_id).inc()
    state.shard_seconds.labels(worker=worker_id).observe(seconds)


def observe_distributed(
    workers_contacted: int,
    fanout_seconds: float,
    merge_seconds: float,
    retries: int = 0,
    hedges: int = 0,
    coverage: float = 1.0,
    degraded: bool = False,
    root: Span | None = None,
    sampled: bool = False,
    fault_events: list[dict] | None = None,
    rerank_seconds: float | None = None,
) -> None:
    """Record one scatter-gather query (called by the coordinator).

    Beyond the stage latencies, the coordinator reports its
    fault-tolerance activity: ``retries`` failed attempts, ``hedges``
    issued, the query's ``coverage`` fraction and whether it was
    ``degraded``.  When ``sampled`` (decided by :func:`should_sample`
    before execution) the query's span tree and classified
    ``fault_events`` are stored as a sampled trace, so "why was this
    query degraded" is answerable post hoc.  ``rerank_seconds`` is the
    post-merge exact rerank stage's latency, when the plan ran one.
    """
    state = _STATE
    if state is None:
        return
    state.distributed_queries.inc()
    state.workers_contacted.observe(workers_contacted)
    state.distributed_stage_seconds.labels(stage="fanout").observe(
        fanout_seconds
    )
    state.distributed_stage_seconds.labels(stage="merge").observe(
        merge_seconds
    )
    if rerank_seconds is not None:
        state.distributed_stage_seconds.labels(stage="rerank").observe(
            rerank_seconds
        )
    if retries:
        state.distributed_retries.inc(retries)
    if hedges:
        state.distributed_hedges.inc(hedges)
    state.distributed_coverage.observe(coverage)
    if degraded:
        state.distributed_degraded.inc()
    if sampled and state.sampler is not None:
        state.sampled_traces.inc()
        state.sampler.record(
            spans=root.to_dict() if root is not None else None,
            stats={
                "type": "distributed",
                "workers_contacted": workers_contacted,
                "retries": retries,
                "hedges": hedges,
                "coverage": coverage,
                "degraded": degraded,
                "fault_events": list(fault_events or ()),
            },
        )


def observe_cache(
    cache: str, hit: bool, seconds: float | None = None
) -> None:
    """Record one cache lookup; ``seconds`` is a hit's lookup latency."""
    state = _STATE
    if state is None:
        return
    if hit:
        state.cache_hits.labels(cache=cache).inc()
        if seconds is not None:
            state.cache_hit_seconds.labels(cache=cache).observe(seconds)
    else:
        state.cache_misses.labels(cache=cache).inc()


def observe_cache_evictions(cache: str, count: int) -> None:
    """Record entries dropped by LRU pressure, TTL or invalidation."""
    state = _STATE
    if state is None:
        return
    state.cache_evictions.labels(cache=cache).inc(count)


def observe_cache_occupancy(cache: str, occupancy: int) -> None:
    """Mirror the cache's current entry count into the gauge."""
    state = _STATE
    if state is None:
        return
    state.cache_occupancy.labels(cache=cache).set(float(occupancy))


def observe_serving_request(lane: str) -> None:
    """Record one request offered to the serving front door."""
    state = _STATE
    if state is None:
        return
    state.serving_requests.labels(lane=lane).inc()


def observe_serving_admission(
    lane: str, admitted: bool, reason: str | None = None,
    seconds: float | None = None,
) -> None:
    """Record one admission decision (and its decision latency)."""
    state = _STATE
    if state is None:
        return
    if admitted:
        state.serving_admitted.labels(lane=lane).inc()
    else:
        state.serving_rejected.labels(
            lane=lane, reason=reason or "unknown"
        ).inc()
        if reason == "shed":
            state.serving_shed.labels(lane=lane).inc()
    if seconds is not None:
        state.serving_admission_seconds.observe(seconds)


def observe_serving_rejected(lane: str, reason: str) -> None:
    """Record a post-admission rejection (expiry, shutdown, error)."""
    state = _STATE
    if state is None:
        return
    state.serving_rejected.labels(lane=lane, reason=reason).inc()
    if reason == "shed":
        state.serving_shed.labels(lane=lane).inc()


def observe_serving_queue_depth(lane: str, depth: int) -> None:
    """Mirror one lane's current queue depth into the gauge."""
    state = _STATE
    if state is None:
        return
    state.serving_queue_depth.labels(lane=lane).set(float(depth))


def observe_serving_batch(
    lane: str, size: int, queue_delays: list[float]
) -> None:
    """Record one dispatched batch: its size and its tickets' waits."""
    state = _STATE
    if state is None:
        return
    state.serving_batch_size.labels(lane=lane).observe(size)
    delay_child = state.serving_queue_delay.labels(lane=lane)
    for delay in queue_delays:
        delay_child.observe(delay)


def observe_serving_served(
    lane: str, latency_seconds: float, degraded: bool
) -> None:
    """Record one completed request (full-fidelity or degraded)."""
    state = _STATE
    if state is None:
        return
    state.serving_served.labels(lane=lane).inc()
    state.serving_latency.labels(lane=lane).observe(latency_seconds)
    if degraded:
        state.serving_degraded.labels(lane=lane).inc()


def observe_serving_overload(level: int, shedding: bool) -> None:
    """Mirror the overload controller's ladder position into the gauge.

    Shedding is encoded one past the deepest degrade level so the gauge
    is a single monotone severity axis.
    """
    state = _STATE
    if state is None:
        return
    state.serving_overload_level.set(float(level + 1 if shedding else level))


def observe_fault(worker_id: int, kind: str) -> None:
    """Record one classified shard failure (fault-taxonomy ``kind``)."""
    state = _STATE
    if state is None:
        return
    state.shard_faults.labels(worker=worker_id, kind=kind).inc()


def observe_breaker(worker_id: int, breaker_state: str) -> None:
    """Mirror a circuit-breaker transition into the state gauge."""
    state = _STATE
    if state is None:
        return
    state.breaker_state.labels(worker=worker_id).set(
        _BREAKER_STATES.get(breaker_state, 2.0)
    )
