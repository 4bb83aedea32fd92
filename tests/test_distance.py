"""Tests for the metric registry (euclidean / cosine / angular)."""

import numpy as np
import pytest

from repro.index.distance import (
    METRICS,
    angular_distances,
    cosine_distances,
    knn_exact,
    pairwise_distances,
)
from repro.search.engine import ExactEvaluator


class TestCosine:
    def test_identical_direction_is_zero(self):
        q = np.array([[1.0, 2.0]])
        x = np.array([[2.0, 4.0]])  # same direction, different norm
        assert cosine_distances(q, x)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_opposite_direction_is_two(self):
        q = np.array([[1.0, 0.0]])
        x = np.array([[-3.0, 0.0]])
        assert cosine_distances(q, x)[0, 0] == pytest.approx(2.0)

    def test_orthogonal_is_one(self):
        q = np.array([[1.0, 0.0]])
        x = np.array([[0.0, 5.0]])
        assert cosine_distances(q, x)[0, 0] == pytest.approx(1.0)

    def test_zero_vector_handled(self):
        q = np.array([[0.0, 0.0]])
        x = np.array([[1.0, 1.0]])
        assert np.isfinite(cosine_distances(q, x)).all()

    def test_range(self):
        rng = np.random.default_rng(0)
        d = cosine_distances(rng.standard_normal((10, 4)),
                             rng.standard_normal((20, 4)))
        assert (d >= -1e-12).all() and (d <= 2 + 1e-12).all()


class TestAngular:
    def test_right_angle(self):
        q = np.array([[1.0, 0.0]])
        x = np.array([[0.0, 1.0]])
        assert angular_distances(q, x)[0, 0] == pytest.approx(np.pi / 2)

    def test_bounded_by_pi(self):
        rng = np.random.default_rng(1)
        d = angular_distances(rng.standard_normal((5, 3)),
                              rng.standard_normal((5, 3)))
        assert (d >= 0).all() and (d <= np.pi + 1e-12).all()


class TestDispatch:
    def test_registry_keys(self):
        assert set(METRICS) == {"euclidean", "cosine", "angular"}

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            pairwise_distances(np.zeros((1, 2)), np.zeros((1, 2)), "manhattan")

    def test_euclidean_dispatch(self):
        q = np.array([[0.0, 0.0]])
        x = np.array([[3.0, 4.0]])
        assert pairwise_distances(q, x, "euclidean")[0, 0] == pytest.approx(5.0)


class TestKnnExact:
    def test_matches_linear_scan_euclidean(self):
        from repro.index.linear_scan import knn_linear_scan

        rng = np.random.default_rng(2)
        data = rng.standard_normal((100, 5))
        ids_a, dists_a = knn_exact(data[:4], data, 7, "euclidean")
        ids_b, dists_b = knn_linear_scan(data[:4], data, 7)
        assert np.array_equal(ids_a, ids_b)
        assert np.allclose(dists_a, dists_b)

    def test_angular_differs_from_euclidean(self):
        rng = np.random.default_rng(3)
        # Scale some points: angular is norm-invariant, euclidean not.
        data = rng.standard_normal((50, 4))
        data[25:] *= 10
        query = data[:1]
        ang, _ = knn_exact(query, data, 10, "angular")
        euc, _ = knn_exact(query, data, 10, "euclidean")
        assert not np.array_equal(ang, euc)

    def test_angular_norm_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((60, 4))
        scaled = data * rng.uniform(0.1, 10, size=(60, 1))
        q = rng.standard_normal((3, 4))
        ids_a, _ = knn_exact(q, data, 5, "angular")
        ids_b, _ = knn_exact(q, scaled, 5, "angular")
        assert np.array_equal(ids_a, ids_b)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            knn_exact(np.zeros((1, 2)), np.zeros((3, 2)), 4)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_exact_evaluator_over_a_strided_view_matches_its_copy(metric):
    # The evaluator gathers candidate rows with ``take``; a view whose
    # rows are not contiguous must score bit-identically to its copy.
    rng = np.random.default_rng(8)
    big = rng.standard_normal((500, 24))
    view = big[:, ::2]
    assert not view.flags.c_contiguous
    dense = np.ascontiguousarray(view)
    candidates = rng.choice(len(big), size=300, replace=False)
    query = dense[7] + 0.25
    strided = ExactEvaluator(view, metric)
    contiguous = ExactEvaluator(dense, metric)
    assert np.array_equal(
        strided.distances(query, candidates),
        contiguous.distances(query, candidates),
    )
    for got, want in zip(
        strided.evaluate(query, candidates, 10),
        contiguous.evaluate(query, candidates, 10),
    ):
        assert np.array_equal(got, want)
