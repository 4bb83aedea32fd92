"""Tests for the recall-time experiment harness."""

import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, ground_truth_knn
from repro.eval.harness import (
    CurvePoint,
    recall_at_budgets,
    speedup_at_recall,
    sweep_budgets,
    time_to_recall,
    timed_sweep,
)
from repro.hashing import ITQ
from repro.search.searcher import HashIndex


@pytest.fixture(scope="module")
def setup():
    data = gaussian_mixture(800, 16, n_clusters=8, seed=0)
    queries = data[:10]
    truth = ground_truth_knn(queries, data, 10)
    index = HashIndex(ITQ(code_length=6, seed=0), data, prober=GQR())
    return data, queries, truth, index


class TestSweepBudgets:
    def test_curve_shape(self, setup):
        _, queries, truth, index = setup
        curve = sweep_budgets(index, queries, truth, k=10, budgets=[50, 200, 800])
        assert len(curve) == 3
        assert all(isinstance(p, CurvePoint) for p in curve)

    def test_recall_monotone_in_budget(self, setup):
        _, queries, truth, index = setup
        curve = sweep_budgets(index, queries, truth, k=10, budgets=[20, 100, 800])
        recalls = [p.recall for p in curve]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_full_budget_recall_one(self, setup):
        data, queries, truth, index = setup
        curve = sweep_budgets(index, queries, truth, k=10, budgets=[len(data)])
        assert curve[0].recall == pytest.approx(1.0)

    def test_truth_alignment_validated(self, setup):
        _, queries, truth, index = setup
        with pytest.raises(ValueError):
            sweep_budgets(index, queries, truth[:3], k=10, budgets=[10])


class TestTimedSweep:
    def test_keeps_the_engine_times_of_the_kept_run(self, setup):
        _, queries, truth, index = setup
        curve = timed_sweep(index, queries, truth, 10, [50, 800], repeats=2)
        for point in curve:
            assert point.retrieval_seconds > 0
            assert point.evaluation_seconds > 0
            engine = point.retrieval_seconds + point.evaluation_seconds
            assert engine <= point.seconds

    def test_matches_a_single_sweep_but_for_time(self, setup):
        _, queries, truth, index = setup
        budgets = [50, 200, 800]
        best = timed_sweep(index, queries, truth, 10, budgets, repeats=3)
        once = sweep_budgets(index, queries, truth, 10, budgets)
        assert [(p.budget, p.recall, p.items, p.buckets) for p in best] == [
            (p.budget, p.recall, p.items, p.buckets) for p in once
        ]

    def test_repeats_validated(self, setup):
        _, queries, truth, index = setup
        with pytest.raises(ValueError):
            timed_sweep(index, queries, truth, 10, [50], repeats=0)


class TestRecallAtBudgets:
    def test_matches_sweep_recalls(self, setup):
        _, queries, truth, index = setup
        budgets = [50, 200, 800]
        fast = recall_at_budgets(index, queries, truth, budgets)
        slow = [
            p.recall
            for p in sweep_budgets(index, queries, truth, k=10, budgets=budgets)
        ]
        assert fast == pytest.approx(slow, abs=0.08)

    def test_budget_past_stream_end(self, setup):
        data, queries, truth, index = setup
        out = recall_at_budgets(index, queries, truth, [10 * len(data)])
        assert out[0] == pytest.approx(1.0)


class TestTimeToRecall:
    def _curve(self, pairs):
        return [
            CurvePoint(budget=i, seconds=s, recall=r, items=0, buckets=0)
            for i, (s, r) in enumerate(pairs)
        ]

    def test_exact_point(self):
        curve = self._curve([(1.0, 0.5), (2.0, 0.9)])
        assert time_to_recall(curve, 0.9) == 2.0

    def test_interpolation(self):
        curve = self._curve([(1.0, 0.5), (3.0, 0.9)])
        assert time_to_recall(curve, 0.7) == pytest.approx(2.0)

    def test_unreachable_is_inf(self):
        curve = self._curve([(1.0, 0.5)])
        assert time_to_recall(curve, 0.99) == float("inf")

    def test_first_point_already_above(self):
        curve = self._curve([(1.0, 0.95)])
        assert time_to_recall(curve, 0.9) == 1.0

    def test_target_validation(self):
        with pytest.raises(ValueError):
            time_to_recall([], 0.0)


class TestSpeedup:
    def test_ratio(self):
        slow = [CurvePoint(0, 4.0, 0.9, 0, 0)]
        fast = [CurvePoint(0, 1.0, 0.9, 0, 0)]
        assert speedup_at_recall(slow, fast, 0.9) == pytest.approx(4.0)


class TestSpeedupEdgeCases:
    def test_unreachable_method_gives_zero_speedup(self):
        reach = [CurvePoint(0, 1.0, 0.95, 0, 0)]
        plateau = [CurvePoint(0, 1.0, 0.5, 0, 0)]
        assert speedup_at_recall(reach, plateau, 0.9) == 0.0

    def test_unreachable_baseline_gives_inf(self):
        plateau = [CurvePoint(0, 1.0, 0.5, 0, 0)]
        reach = [CurvePoint(0, 1.0, 0.95, 0, 0)]
        assert speedup_at_recall(plateau, reach, 0.9) == float("inf")
