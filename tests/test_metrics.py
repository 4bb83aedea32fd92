"""Tests for recall, precision and recall@k."""

import numpy as np
import pytest

from repro.eval.metrics import (
    mean_recall,
    mean_recall_at_k,
    precision,
    recall,
    recall_at_k,
    recall_from_candidates,
)


class TestRecall:
    def test_full_overlap(self):
        assert recall(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_partial_overlap(self):
        assert recall(np.array([1, 9, 8]), np.array([1, 2, 3])) == pytest.approx(
            1 / 3
        )

    def test_no_overlap(self):
        assert recall(np.array([7, 8]), np.array([1, 2])) == 0.0

    def test_empty_returned(self):
        assert recall(np.array([]), np.array([1, 2])) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            recall(np.array([1]), np.array([]))

    def test_duplicates_not_double_counted(self):
        assert recall(np.array([1, 1, 1]), np.array([1, 2])) == 0.5


class TestMeanRecall:
    def test_averages(self):
        truth = np.array([[1, 2], [3, 4]])
        returned = [np.array([1, 2]), np.array([3, 9])]
        assert mean_recall(returned, truth) == pytest.approx(0.75)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            mean_recall([np.array([1])], np.array([[1], [2]]))


class TestPrecision:
    def test_values(self):
        assert precision(5, 10) == 0.5
        assert precision(0, 10) == 0.0

    def test_zero_retrieved(self):
        assert precision(3, 0) == 0.0


class TestRecallFromCandidates:
    def test_equals_overlap(self):
        candidates = np.array([4, 5, 6, 7])
        truth = np.array([5, 9])
        assert recall_from_candidates(candidates, truth) == 0.5


class TestRecallAtK:
    def test_only_top_k_counts(self):
        returned = np.array([9, 8, 1, 2])
        truth = np.array([1, 2])
        assert recall_at_k(returned, truth, k=2) == 0.0
        assert recall_at_k(returned, truth, k=4) == 1.0

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k"):
            recall_at_k(np.array([1]), np.array([1]), k=0)

    def test_mean_over_queries(self):
        truth = np.array([[1], [2]])
        returned = [np.array([1, 5]), np.array([5, 2])]
        assert mean_recall_at_k(returned, truth, k=2) == pytest.approx(1.0)
        assert mean_recall_at_k(returned, truth, k=1) == pytest.approx(0.5)
