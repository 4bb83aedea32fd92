"""Tests for query workload generators."""

import math

import numpy as np
import pytest

from repro.data import gaussian_mixture
from repro.data.workloads import (
    FlashCrowd,
    boundary_margin,
    boundary_queries,
    in_distribution_queries,
    out_of_distribution_queries,
    rate_at,
    traffic_trace,
    zipfian_stream,
)
from repro.hashing import ITQ
from repro.index.linear_scan import knn_linear_scan


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(1500, 16, n_clusters=10, seed=51)


@pytest.fixture(scope="module")
def hasher(data):
    return ITQ(code_length=8, seed=0).fit(data)


class TestInDistribution:
    def test_near_data(self, data):
        queries = in_distribution_queries(data, 20, perturbation=0.02, seed=0)
        _, dists = knn_linear_scan(queries, data, 1)
        assert dists.max() < data.std()


class TestOutOfDistribution:
    def test_farther_than_in_distribution(self, data):
        near = in_distribution_queries(data, 20, seed=0)
        far = out_of_distribution_queries(data, 20, shift=3.0, seed=0)
        _, near_d = knn_linear_scan(near, data, 1)
        _, far_d = knn_linear_scan(far, data, 1)
        assert far_d.mean() > 2 * near_d.mean()

    def test_shift_scales_distance(self, data):
        small = out_of_distribution_queries(data, 20, shift=1.0, seed=0)
        large = out_of_distribution_queries(data, 20, shift=4.0, seed=0)
        _, small_d = knn_linear_scan(small, data, 1)
        _, large_d = knn_linear_scan(large, data, 1)
        assert large_d.mean() > small_d.mean()


class TestBoundaryQueries:
    def test_margin_definition(self, data, hasher):
        queries = data[:10]
        margins = boundary_margin(hasher, queries)
        projections = hasher.project(queries)
        assert np.allclose(margins, np.abs(projections).min(axis=1))

    def test_selected_margins_smaller_than_pool(self, data, hasher):
        boundary = boundary_queries(data, hasher, 20, seed=0)
        random_queries = in_distribution_queries(data, 20, seed=1)
        assert (
            boundary_margin(hasher, boundary).mean()
            < boundary_margin(hasher, random_queries).mean()
        )

    def test_count(self, data, hasher):
        assert boundary_queries(data, hasher, 7, seed=0).shape == (
            7,
            data.shape[1],
        )

    def test_validation(self, data, hasher):
        with pytest.raises(ValueError):
            boundary_queries(data, hasher, 0)


class TestZipfianStream:
    def test_deterministic_per_seed(self):
        a = zipfian_stream(50, 500, seed=3)
        b = zipfian_stream(50, 500, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, zipfian_stream(50, 500, seed=4))

    def test_indices_in_range(self):
        stream = zipfian_stream(10, 1000, seed=0)
        assert len(stream) == 1000
        assert stream.min() >= 0 and stream.max() < 10

    def test_popular_head_dominates(self):
        stream = zipfian_stream(100, 5000, exponent=1.2, seed=0)
        counts = np.bincount(stream, minlength=100)
        # Rank-frequency skew: the top id beats the median id by a lot.
        assert counts[0] > 10 * np.median(counts)

    def test_higher_exponent_is_more_skewed(self):
        flat = zipfian_stream(100, 5000, exponent=0.5, seed=0)
        steep = zipfian_stream(100, 5000, exponent=1.5, seed=0)
        assert (steep == 0).mean() > (flat == 0).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            zipfian_stream(0, 10)
        with pytest.raises(ValueError):
            zipfian_stream(10, -1)


class TestRateAt:
    def test_flat_base_rate(self):
        times = np.linspace(0.0, 10.0, 5)
        assert np.allclose(rate_at(times, 100.0), 100.0)

    def test_flash_crowd_scales_only_its_window(self):
        crowd = FlashCrowd(start=2.0, duration=1.0, multiplier=10.0)
        times = np.array([1.0, 2.5, 3.5])
        rate = rate_at(times, 100.0, flash_crowds=(crowd,))
        assert np.allclose(rate, [100.0, 1000.0, 100.0])

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError, match="duration"):
            FlashCrowd(start=0.0, duration=0.0, multiplier=2.0)
        with pytest.raises(ValueError, match="multiplier"):
            FlashCrowd(start=0.0, duration=1.0, multiplier=-1.0)
        # Regression: NaN passed every check; traffic_trace then ignored
        # a crowd with a NaN start or duration and dropped every arrival
        # inside the window of one with a NaN multiplier.
        with pytest.raises(ValueError, match="start"):
            FlashCrowd(start=math.nan, duration=1.0, multiplier=2.0)
        with pytest.raises(ValueError, match="duration"):
            FlashCrowd(start=0.0, duration=math.nan, multiplier=2.0)
        with pytest.raises(ValueError, match="multiplier"):
            FlashCrowd(start=0.0, duration=1.0, multiplier=math.nan)
        with pytest.raises(ValueError, match="multiplier"):
            FlashCrowd(start=0.0, duration=1.0, multiplier=math.inf)


class TestTrafficTrace:
    def test_deterministic_per_seed(self):
        a = traffic_trace(5.0, 100.0, 32, seed=9)
        b = traffic_trace(5.0, 100.0, 32, seed=9)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.query_ids, b.query_ids)
        assert a.lanes == b.lanes

    def test_arrivals_sorted_within_duration(self):
        trace = traffic_trace(5.0, 100.0, 32, seed=0)
        assert np.all(np.diff(trace.arrivals) >= 0)
        assert trace.arrivals.min() >= 0.0
        assert trace.arrivals.max() <= 5.0

    def test_realised_rate_tracks_base_rate(self):
        trace = traffic_trace(10.0, 200.0, 32, seed=1)
        assert trace.offered_rate(0.0, 10.0) == pytest.approx(200.0, rel=0.1)

    def test_flash_crowd_multiplies_realised_rate(self):
        crowd = FlashCrowd(start=2.0, duration=2.0, multiplier=10.0)
        trace = traffic_trace(6.0, 100.0, 32, seed=2, flash_crowds=(crowd,))
        calm = trace.offered_rate(0.0, 2.0)
        crowded = trace.offered_rate(2.0, 4.0)
        assert crowded > 5 * calm

    def test_lane_mix_follows_weights(self):
        trace = traffic_trace(10.0, 200.0, 32, seed=3)
        share = trace.lanes.count("interactive") / len(trace)
        assert 0.7 < share < 0.9

    def test_zero_rate_yields_empty_trace(self):
        trace = traffic_trace(5.0, 0.0, 32, seed=0)
        assert len(trace) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            traffic_trace(0.0, 100.0, 32, seed=0)
