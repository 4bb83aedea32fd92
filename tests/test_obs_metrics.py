"""Tests for the metrics registry (counters, gauges, histograms)."""

import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError, match="only go up"):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = MetricsRegistry().counter("c_total", labels=("index",))
        counter.labels(index="hash").inc(3)
        counter.labels(index="mih").inc()
        assert counter.labels(index="hash").value == 3
        assert counter.labels(index="mih").value == 1

    def test_children_are_cached(self):
        counter = MetricsRegistry().counter("c_total", labels=("index",))
        assert counter.labels(index="hash") is counter.labels(index="hash")

    def test_wrong_label_names_rejected(self):
        counter = MetricsRegistry().counter("c_total", labels=("index",))
        with pytest.raises(MetricError, match="takes labels"):
            counter.labels(worker="0")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4


class TestHistogram:
    def test_bucket_counts_sum_to_count(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.9, 3.0, 7.0, 100.0, 5.0):
            hist.observe(value)
        child = hist.labels()
        assert sum(child.bucket_counts) == child.count == 6
        # le-semantics: 5.0 lands in the le=5 bucket, 100 overflows.
        assert child.bucket_counts == [2, 2, 1, 1]

    @given(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        )
    )
    def test_bucket_sum_invariant_holds_for_any_sequence(self, values):
        hist = MetricsRegistry().histogram("h", buckets=DEFAULT_COUNT_BUCKETS)
        child = hist.labels()
        for value in values:
            child.observe(value)
        assert sum(child.bucket_counts) == child.count == len(values)
        assert child.cumulative_counts()[-1] == child.count

    def test_sum_and_mean(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        child = hist.labels()
        assert child.sum == 2.0
        assert child.mean == 1.0

    def test_empty_mean_and_quantile_are_nan(self):
        child = MetricsRegistry().histogram("h", buckets=(1.0,)).labels()
        assert math.isnan(child.mean)
        assert math.isnan(child.quantile(0.5))

    def test_quantile_interpolates_within_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(10.0, 20.0))
        for _ in range(10):
            hist.observe(15.0)
        # All mass in (10, 20]; the median interpolates to the middle.
        assert hist.labels().quantile(0.5) == pytest.approx(15.0)

    def test_quantile_out_of_range_rejected(self):
        child = MetricsRegistry().histogram("h", buckets=(1.0,)).labels()
        with pytest.raises(MetricError, match="quantile"):
            child.quantile(1.5)

    def test_overflow_quantile_clamps_to_last_bound(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.labels().quantile(0.99) == 2.0

    @given(
        st.lists(
            st.floats(
                min_value=1e-9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=12, unique=True,
        )
    )
    def test_top_edge_value_lands_in_top_finite_bucket(self, edges):
        # Prometheus `le` semantics at every boundary: a value exactly
        # equal to a bucket's upper bound belongs to that bucket.  In
        # particular the top finite edge must NOT overflow to +Inf.
        buckets = tuple(sorted(edges))
        hist = MetricsRegistry().histogram("h", buckets=buckets)
        child = hist.labels()
        for edge in buckets:
            child.observe(edge)
        counts = child.bucket_counts
        assert counts[-1] == 0  # nothing in +Inf
        assert sum(counts) == child.count == len(buckets)
        # Each edge observation landed exactly in its own bucket.
        assert counts[:-1] == [1] * len(buckets)

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="at least one"):
            registry.histogram("h1", buckets=())
        with pytest.raises(MetricError, match="strictly increasing"):
            registry.histogram("h2", buckets=(2.0, 1.0))
        with pytest.raises(MetricError, match="finite"):
            registry.histogram("h3", buckets=(1.0, math.inf))


class TestThreadSafety:
    """Regression: unlocked ``+=`` read-modify-write lost updates.

    ``AsyncFrontDoor(max_workers>1)`` worker threads drive metric
    children from several threads at once; with a tiny switch interval
    the pre-fix races reliably drop increments.  Totals must be exact.
    """

    N_THREADS = 8
    N_INCREMENTS = 5_000

    def hammer(self, work):
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work) for _ in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)

    def test_counter_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("c_total")

        def work():
            for _ in range(self.N_INCREMENTS):
                counter.inc()

        self.hammer(work)
        assert counter.value == self.N_THREADS * self.N_INCREMENTS

    def test_histogram_totals_are_exact(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        child = hist.labels()

        def work():
            for _ in range(self.N_INCREMENTS):
                child.observe(1.5)

        self.hammer(work)
        expected = self.N_THREADS * self.N_INCREMENTS
        assert child.count == expected
        assert sum(child.bucket_counts) == expected
        assert child.sum == pytest.approx(1.5 * expected)

    def test_gauge_inc_dec_balance(self):
        gauge = MetricsRegistry().gauge("g")

        def work():
            for _ in range(self.N_INCREMENTS):
                gauge.inc()
                gauge.dec()

        self.hammer(work)
        assert gauge.value == 0


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError, match="already registered as"):
            registry.gauge("m")

    def test_label_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("index",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("c", labels=("worker",))

    def test_bucket_clash_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="different.*buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(MetricError, match="invalid metric name"):
            MetricsRegistry().counter("bad name")

    def test_invalid_label_name_rejected(self):
        with pytest.raises(MetricError, match="invalid label name"):
            MetricsRegistry().counter("c", labels=("0bad",))

    def test_label_cardinality_cap(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("c", labels=("q",))
        for i in range(3):
            counter.labels(q=i).inc()
        with pytest.raises(MetricError, match="label-cardinality cap"):
            counter.labels(q="one-too-many")

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        hist = registry.histogram("h", buckets=DEFAULT_LATENCY_BUCKETS)
        gauge = registry.gauge("g")
        counter.inc()
        hist.observe(0.5)
        gauge.set(9)
        assert counter.value == 0
        assert hist.labels().count == 0
        assert gauge.value == 0

    def test_reenabling_resumes_recording(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.value == 1

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", help="help!").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["schema"] == "repro.metrics/v1"
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["c"]["kind"] == "counter"
        assert by_name["c"]["help"] == "help!"
        assert by_name["c"]["samples"][0]["value"] == 1
        hist_sample = by_name["h"]["samples"][0]
        assert hist_sample["count"] == 1
        assert hist_sample["buckets"][-1]["le"] == "+Inf"

    def test_reset_drops_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("index",))
        counter.labels(index="hash").inc()
        registry.reset()
        assert counter.labels(index="hash").value == 0

    def test_get_looks_up_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        assert registry.get("c") is counter
        assert registry.get("missing") is None
