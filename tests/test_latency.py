"""Tests for latency measurement and its percentile summary."""

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.eval.latency import latency_summary, measure_latencies
from repro.hashing import ITQ
from repro.search.searcher import HashIndex


@pytest.fixture(scope="module")
def setup():
    data = gaussian_mixture(1200, 16, n_clusters=10,
                            cluster_spread=1.0, seed=61)
    index = HashIndex(ITQ(code_length=7, seed=0), data, prober=GQR())
    return data[:15], index


class TestLatency:
    def test_measure_shape(self, setup):
        queries, index = setup
        latencies = measure_latencies(index, queries, k=5, n_candidates=100)
        assert latencies.shape == (len(queries),)
        assert (latencies > 0).all()

    def test_summary_ordering(self):
        summary = latency_summary(np.array([1.0, 2.0, 3.0, 10.0]))
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.worst
        assert summary.worst == 10.0

    def test_summary_row_scale(self):
        summary = latency_summary(np.array([0.001, 0.002]))
        row = summary.row()
        assert row[0] == pytest.approx(1.5)  # mean in ms

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_summary(np.array([]))
