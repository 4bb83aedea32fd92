"""End-to-end telemetry tests: indexes → spans → registry → sampler.

The contract under test: telemetry never changes *results* (enabled vs
disabled searches are bit-identical), every index kind reports under
its own ``index`` label, and the engine's span-backed stage timings
are the single source both ``ExecutionContext`` stats and the registry
histograms read from.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.eval.latency import (
    measure_stage_latencies,
    stage_latencies_from_results,
)
from repro.hashing import ITQ
from repro.quantization.pq import ProductQuantizer
from repro.search.dynamic_index import DynamicHashIndex
from repro.search.searcher import HashIndex, IMISearchIndex, MIHSearchIndex


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(2000, 16, n_clusters=12,
                            cluster_spread=1.0, seed=3)


@pytest.fixture(scope="module")
def queries(data):
    return data[:20]


@pytest.fixture(scope="module")
def hash_index(data):
    return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())


def counter_value(registry, name, **labels):
    family = registry.get(name)
    assert family is not None, name
    return family.labels(**labels).value


class TestDisabledByDefault:
    def test_no_registry_without_enable(self, hash_index, queries):
        assert not obs.telemetry_enabled()
        assert obs.get_registry() is None
        result = hash_index.search(queries[0], k=5, n_candidates=100)
        assert result.stats.total_seconds > 0
        assert result.extras["spans"].name == "query"

    def test_session_restores_previous_state(self):
        outer = obs.enable_telemetry()
        try:
            with obs.telemetry_session() as inner:
                assert obs.get_registry() is inner.registry
                assert inner.registry is not outer.registry
            assert obs.get_registry() is outer.registry
        finally:
            obs.disable_telemetry()
        assert not obs.telemetry_enabled()


class TestBitIdenticalResults:
    def test_single_query_path(self, hash_index, queries):
        baseline = [
            hash_index.search(q, k=5, n_candidates=100) for q in queries
        ]
        sampler = obs.TraceSampler(every_n=2, seed=0)
        with obs.telemetry_session(sampler=sampler):
            telemetered = [
                hash_index.search(q, k=5, n_candidates=100) for q in queries
            ]
        for base, tele in zip(baseline, telemetered):
            np.testing.assert_array_equal(base.ids, tele.ids)
            np.testing.assert_array_equal(base.distances, tele.distances)
            assert base.n_candidates == tele.n_candidates
            assert base.n_buckets_probed == tele.n_buckets_probed

    def test_batch_path(self, hash_index, queries):
        baseline = hash_index.search_batch(queries, k=5, n_candidates=100)
        with obs.telemetry_session():
            telemetered = hash_index.search_batch(
                queries, k=5, n_candidates=100
            )
        for base, tele in zip(baseline, telemetered):
            np.testing.assert_array_equal(base.ids, tele.ids)
            np.testing.assert_array_equal(base.distances, tele.distances)

    def test_early_stop_path(self, data, queries):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        baseline = index.search_early_stop(queries[0], k=5)
        with obs.telemetry_session():
            telemetered = index.search_early_stop(queries[0], k=5)
        np.testing.assert_array_equal(baseline.ids, telemetered.ids)
        np.testing.assert_array_equal(
            baseline.distances, telemetered.distances
        )
        # Evaluation is the sum of real per-chunk spans, retrieval the rest.
        stats = telemetered.stats
        assert stats.evaluation_seconds > 0
        assert (
            stats.retrieval_seconds + stats.evaluation_seconds
            <= stats.total_seconds
        )


class TestPerIndexLabels:
    def test_every_index_kind_reports_its_label(self, data, queries):
        probe = ITQ(code_length=8, seed=0).fit(data)
        pq = ProductQuantizer(2, n_centroids=8, seed=0).fit(data)
        dynamic = DynamicHashIndex(probe, dim=data.shape[1])
        dynamic.add(data[:500])
        indexes = {
            "hash": HashIndex(probe, data, prober=GQR()),
            "mih": MIHSearchIndex(ITQ(code_length=8, seed=0), data),
            "imi": IMISearchIndex(pq, data),
            "dynamic": dynamic,
        }
        with obs.telemetry_session() as telemetry:
            for index in indexes.values():
                index.search(queries[0], k=5, n_candidates=100)
            for label in indexes:
                assert counter_value(
                    telemetry.registry, "repro_queries_total", index=label
                ) == 1, label
                assert telemetry.registry.get(
                    "repro_query_stage_seconds"
                ).labels(index=label, stage="total").count == 1

    def test_batch_queries_counted_per_query(self, hash_index, queries):
        with obs.telemetry_session() as telemetry:
            hash_index.search_batch(queries, k=5, n_candidates=100)
            assert counter_value(
                telemetry.registry, "repro_queries_total", index="hash"
            ) == len(queries)

    def test_early_stop_counter(self, data, queries):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        with obs.telemetry_session() as telemetry:
            result = index.search_early_stop(queries[0], k=5)
            expected = 1.0 if result.stats.early_stop_triggered else 0.0
            assert counter_value(
                telemetry.registry, "repro_early_stops_total", index="hash"
            ) == expected


class TestSamplerIntegration:
    def test_sampled_traces_carry_spans_stats_and_buckets(
        self, hash_index, queries
    ):
        sampler = obs.TraceSampler(every_n=4, capacity=8, seed=1)
        with obs.telemetry_session(sampler=sampler) as telemetry:
            for q in queries:
                hash_index.search(q, k=5, n_candidates=100)
            assert telemetry.registry.get(
                "repro_sampled_traces_total"
            ).value == len(sampler.traces())
        assert len(sampler.traces()) == len(queries) // 4
        for trace in sampler.traces():
            assert trace.spans["name"] == "query"
            stages = [c["name"] for c in trace.spans["children"]]
            assert stages == ["retrieve", "dedup_budget", "evaluate"]
            assert trace.stats["n_candidates"] >= 100
            # Per-bucket sizes are recorded only for sampled queries
            # and sum to the candidate count.
            assert sum(trace.bucket_sizes) == trace.stats["n_candidates"]

    def test_sampling_is_deterministic_across_runs(self, hash_index, queries):
        def run():
            sampler = obs.TraceSampler(every_n=4, seed=9)
            with obs.telemetry_session(sampler=sampler):
                for q in queries:
                    hash_index.search(q, k=5, n_candidates=100)
            return [t.seq for t in sampler.traces()]

        assert run() == run()

    def test_unsampled_queries_skip_bucket_recording(
        self, hash_index, queries
    ):
        with obs.telemetry_session():
            result = hash_index.search(queries[0], k=5, n_candidates=100)
        assert result.stats.bucket_sizes is None


class TestStageTimingSingleSource:
    def test_harness_and_registry_read_the_same_numbers(
        self, hash_index, queries
    ):
        with obs.telemetry_session() as telemetry:
            stages = measure_stage_latencies(
                hash_index, queries, k=5, n_candidates=100
            )
            hist = telemetry.registry.get("repro_query_stage_seconds")
            for stage in ("retrieval", "evaluation", "total"):
                child = hist.labels(index="hash", stage=stage)
                assert child.count == len(queries)
                assert child.sum == pytest.approx(float(stages[stage].sum()))

    def test_stats_match_span_tree(self, hash_index, queries):
        result = hash_index.search(queries[0], k=5, n_candidates=100)
        root = result.extras["spans"]
        stats = result.stats
        assert stats.total_seconds == root.duration
        assert stats.retrieval_seconds == root.child_duration(
            "retrieve"
        ) + root.child_duration("dedup_budget")
        assert stats.evaluation_seconds == root.child_duration("evaluate")

    def test_batch_results_feed_stage_report(self, hash_index, queries):
        results = hash_index.search_batch(queries, k=5, n_candidates=100)
        stages = stage_latencies_from_results(results)
        assert len(stages["total"]) == len(queries)
        assert (stages["total"] > 0).all()
        np.testing.assert_allclose(
            stages["total"], stages["retrieval"] + stages["evaluation"]
        )


class TestSingleQueryStagesAddUp:
    def test_theorem2_modes_are_sampled_like_any_query(self, data, queries):
        index = HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())
        sampler = obs.TraceSampler(every_n=1)
        with obs.telemetry_session(sampler=sampler):
            results = [
                index.search_early_stop(queries[0], k=5),
                index.search_range(queries[1], 2.0),
            ]
        traces = sampler.traces()
        assert len(traces) == len(results)
        for trace, result in zip(traces, results):
            assert trace.spans["name"] == "query"
            assert result.n_candidates > 0
            assert sum(trace.bucket_sizes) == result.n_candidates
            assert trace.stats["n_candidates"] == result.n_candidates
            stats = result.stats
            assert (
                stats.retrieval_seconds + stats.evaluation_seconds
                <= stats.total_seconds
            )

    def test_dynamic_search_total_covers_bucket_scoring(self, data, queries):
        class SlowGQR(GQR):
            def batch_scores(self, *args, **kwargs):
                time.sleep(0.005)
                return super().batch_scores(*args, **kwargs)

        dynamic = DynamicHashIndex(
            ITQ(code_length=8, seed=0).fit(data),
            dim=data.shape[1],
            prober=SlowGQR(),
        )
        dynamic.add(data[:500])
        result = dynamic.search(queries[0], k=5, n_candidates=100)
        assert result.stats.total_seconds >= 0.005
