"""Observability subsystem: metrics, spans, trace sampling, exporters.

PR 1 made every index answer queries through one instrumented engine;
this package is where those numbers go.  Four self-contained layers:

* :mod:`repro.obs.metrics` — a Prometheus-style registry of counters,
  gauges and fixed-bucket labelled histograms, with a label-cardinality
  guard and a disabled fast path;
* :mod:`repro.obs.spans` — nestable monotonic stage timing; the only
  sanctioned home of ``perf_counter`` in the search/index/distributed
  packages (reprolint RL009);
* :mod:`repro.obs.sampling` — a seeded every-Nth sampler ring-buffering
  the last K queries' span trees and probe detail for post-hoc "why was
  this query slow" debugging;
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  snapshots (plus a parser so the round-trip is testable).

Telemetry is **off by default** and enabled explicitly::

    from repro import obs

    with obs.telemetry_session(sampler=obs.TraceSampler(every_n=32)) as t:
        index.search(query, k=10, n_candidates=400)
        print(obs.to_prometheus_text(t.registry))

`python -m repro obs` runs a demo workload under this harness and
prints the top-line table.
"""

from repro.obs.export import (
    counter_rows,
    parse_prometheus_text,
    snapshot_json,
    summary_rows,
    to_prometheus_text,
)
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.sampling import SampledTrace, TraceSampler
from repro.obs.spans import Span, current_span, now, span
from repro.obs.telemetry import (
    TelemetryState,
    disable_telemetry,
    enable_telemetry,
    get_registry,
    get_sampler,
    observe_batch,
    observe_breaker,
    observe_cache,
    observe_cache_evictions,
    observe_cache_occupancy,
    observe_distributed,
    observe_fault,
    observe_query,
    observe_serving_admission,
    observe_serving_batch,
    observe_serving_overload,
    observe_serving_queue_depth,
    observe_serving_rejected,
    observe_serving_request,
    observe_serving_served,
    observe_shard,
    should_sample,
    telemetry_enabled,
    telemetry_session,
)

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SampledTrace",
    "Span",
    "TelemetryState",
    "TraceSampler",
    "counter_rows",
    "current_span",
    "disable_telemetry",
    "enable_telemetry",
    "get_registry",
    "get_sampler",
    "now",
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
    "parse_prometheus_text",
    "should_sample",
    "snapshot_json",
    "span",
    "summary_rows",
    "telemetry_enabled",
    "telemetry_session",
    "to_prometheus_text",
]
