"""Metrics registry: counters, gauges and fixed-bucket histograms.

The serving-side aggregation layer the per-query
:class:`~repro.search.engine.ExecutionContext` lacks: a query's stats
are discarded unless the caller keeps the result, whereas a metric
accumulates across every query the process answers.  The model follows
Prometheus:

* a **metric family** has a name, a help string and a fixed tuple of
  label names; :meth:`labels` resolves one *child* per label-value
  combination (``queries.labels(index="hash").inc()``);
* children are cheap value cells — :class:`CounterChild`,
  :class:`GaugeChild`, :class:`HistogramChild` — safe to cache and hit
  on the hot path;
* a :class:`MetricsRegistry` owns families, deduplicates registration,
  and renders to JSON (:meth:`MetricsRegistry.snapshot`) or Prometheus
  text (:func:`repro.obs.export.to_prometheus_text`).

Two guard rails keep telemetry from hurting the system it watches: a
**label-cardinality cap** per family (unbounded label values are the
classic way a metrics layer eats the heap), and a registry-wide
``enabled`` flag giving every child a two-instruction fast path when
telemetry is off.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence

__all__ = [
    "Counter",
    "CounterChild",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "GaugeChild",
    "Histogram",
    "HistogramChild",
    "MetricError",
    "MetricsRegistry",
]

#: Upper bounds (seconds) sized for per-query ANN latencies: 10µs-2.5s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Upper bounds for discrete work counts (candidates, buckets probed).
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1000, 2000, 5000, 10_000, 20_000, 50_000,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(RuntimeError):
    """Misuse of the metrics API (bad name, label mismatch, type clash)."""


class CounterChild:
    """A monotonically increasing value cell.

    Updates take a per-child lock: ``AsyncFrontDoor(max_workers>1)``
    worker threads record at once, and an unlocked ``+=`` is a
    read-modify-write race that silently drops increments.  The
    disabled fast path stays lock-free.
    """

    __slots__ = ("_registry", "_value", "_lock")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricError("counters only go up; inc() needs amount >= 0")
        if self._registry.enabled:
            with self._lock:
                self._value += amount

    def sample_dict(self) -> dict[str, object]:
        return {"value": self._value}


class GaugeChild:
    """A value cell that can go up and down (thread-safe updates)."""

    __slots__ = ("_registry", "_value", "_lock")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            with self._lock:
                self._value -= amount

    def sample_dict(self) -> dict[str, object]:
        return {"value": self._value}


class HistogramChild:
    """Fixed-bucket distribution cell.

    ``observe(v)`` lands ``v`` in the first bucket whose upper bound is
    ``>= v`` (Prometheus ``le`` semantics) — in particular a value
    exactly equal to the top finite bound lands in that bucket, not
    ``+Inf``; only values strictly beyond the last bound go to the
    implicit overflow bucket.  Invariant (tested):
    ``sum(bucket_counts) == count`` after any sequence of observations,
    including concurrent ones — ``observe`` takes a per-child lock like
    the other cells.
    """

    __slots__ = ("_registry", "_uppers", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self, registry: MetricsRegistry, uppers: tuple[float, ...]
    ) -> None:
        self._registry = registry
        self._uppers = uppers
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        """Finite bucket upper bounds (the ``+Inf`` bucket is implicit)."""
        return self._uppers

    @property
    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        return list(self._counts)

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        slot = bisect_left(self._uppers, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style running totals, ending at ``count``."""
        out = []
        running = 0
        for c in self._counts:
            running += c
            out.append(running)
        return out

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile estimate from the buckets.

        The usual histogram-quantile approximation: find the bucket the
        ``q``-th observation falls in and interpolate within it.  Values
        in the ``+Inf`` overflow bucket clamp to the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        target = q * self._count
        cumulative = 0.0
        lower = 0.0
        for upper, bucket_count in zip(self._uppers, self._counts):
            if bucket_count and cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * max(fraction, 0.0)
            cumulative += bucket_count
            lower = upper
        return self._uppers[-1] if self._uppers else math.nan

    def sample_dict(self) -> dict[str, object]:
        buckets: list[dict[str, object]] = [
            {"le": upper, "count": c}
            for upper, c in zip(self._uppers, self._counts)
        ]
        buckets.append({"le": "+Inf", "count": self._counts[-1]})
        return {"count": self._count, "sum": self._sum, "buckets": buckets}


class _Family:
    """Shared family machinery: label resolution and sampling."""

    kind = ""

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        max_label_sets: int,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise MetricError(f"duplicate label names in {label_names!r}")
        self.name = name
        self.help = help
        self.label_names = label_names
        self._registry = registry
        self._max_label_sets = max_label_sets
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _new_child(self) -> object:
        raise NotImplementedError

    def _resolve(self, labels: dict[str, object]) -> object:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= self._max_label_sets:
                        raise MetricError(
                            f"metric {self.name!r} exceeded its label-"
                            f"cardinality cap ({self._max_label_sets}); "
                            "unbounded label values leak memory — bucket "
                            "them or raise max_label_sets deliberately"
                        )
                    child = self._new_child()
                    self._children[key] = child
        return child

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        """Yield ``(label_dict, child)`` pairs, sorted by label values."""
        for key in sorted(self._children):
            yield dict(zip(self.label_names, key)), self._children[key]

    def snapshot(self) -> dict[str, object]:
        """JSON-ready description of this family and all its children."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "samples": [
                {"labels": labels, **child.sample_dict()}  # type: ignore[attr-defined]
                for labels, child in self.samples()
            ],
        }

    def reset(self) -> None:
        """Drop every child (used by tests and the CLI between runs)."""
        with self._lock:
            self._children.clear()


class Counter(_Family):
    """Counter family; unlabelled families support ``inc`` directly."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild(self._registry)

    def labels(self, **labels: object) -> CounterChild:
        child = self._resolve(labels)
        assert isinstance(child, CounterChild)
        return child

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class Gauge(_Family):
    """Gauge family; unlabelled families support ``set``/``inc``/``dec``."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild(self._registry)

    def labels(self, **labels: object) -> GaugeChild:
        child = self._resolve(labels)
        assert isinstance(child, GaugeChild)
        return child

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class Histogram(_Family):
    """Histogram family with one fixed bucket layout for all children."""

    kind = "histogram"

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        max_label_sets: int,
        buckets: Sequence[float],
    ) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise MetricError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in uppers):
            raise MetricError("bucket bounds must be finite (+Inf is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(uppers, uppers[1:])):
            raise MetricError("bucket bounds must be strictly increasing")
        super().__init__(registry, name, help, label_names, max_label_sets)
        self.buckets = uppers

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self._registry, self.buckets)

    def labels(self, **labels: object) -> HistogramChild:
        child = self._resolve(labels)
        assert isinstance(child, HistogramChild)
        return child

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """Owns metric families; the unit of export and of enable/disable.

    A process normally has one registry (see
    :func:`repro.obs.telemetry.enable_telemetry`), but registries are
    plain objects — tests and embedders inject their own.  Registration
    is get-or-create: asking twice for the same name returns the same
    family, and asking with a different kind or label set raises
    :class:`MetricError` instead of silently forking the series.
    """

    def __init__(
        self, enabled: bool = True, max_label_sets: int = 256
    ) -> None:
        self.enabled = enabled
        self._max_label_sets = max_label_sets
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, kind: str, name: str, factory: Callable[[], _Family]
    ) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            family = factory()
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter family."""
        family = self._get_or_create(
            "counter",
            name,
            lambda: Counter(
                self, name, help, tuple(labels), self._max_label_sets
            ),
        )
        self._check_labels(family, labels)
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge family."""
        family = self._get_or_create(
            "gauge",
            name,
            lambda: Gauge(
                self, name, help, tuple(labels), self._max_label_sets
            ),
        )
        self._check_labels(family, labels)
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family with fixed ``buckets``."""
        family = self._get_or_create(
            "histogram",
            name,
            lambda: Histogram(
                self, name, help, tuple(labels), self._max_label_sets, buckets
            ),
        )
        self._check_labels(family, labels)
        assert isinstance(family, Histogram)
        if tuple(float(b) for b in buckets) != family.buckets:
            raise MetricError(
                f"histogram {name!r} already registered with different "
                "buckets"
            )
        return family

    @staticmethod
    def _check_labels(family: _Family, labels: Sequence[str]) -> None:
        if tuple(labels) != family.label_names:
            raise MetricError(
                f"metric {family.name!r} already registered with labels "
                f"{list(family.label_names)}, not {list(labels)}"
            )

    def collect(self) -> list[_Family]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> _Family | None:
        """Look up one family by name (``None`` if unregistered)."""
        return self._families.get(name)

    def snapshot(self) -> dict[str, object]:
        """JSON-ready snapshot of every family and child."""
        return {
            "schema": "repro.metrics/v1",
            "metrics": [family.snapshot() for family in self.collect()],
        }

    def reset(self) -> None:
        """Zero the registry: drop every family's children."""
        for family in self.collect():
            family.reset()
