"""Property-based tests for the distance metrics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index.distance import (
    angular_distances,
    cosine_distances,
    pairwise_distances,
)

finite_vectors = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 5)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestMetricProperties:
    @given(finite_vectors)
    @settings(max_examples=40, deadline=None)
    def test_self_distance_zero(self, x):
        d = pairwise_distances(x, x, "euclidean")
        # The expansion formula's cancellation error scales with
        # ‖x‖·√eps, so the tolerance must be relative to the magnitude.
        tolerance = 1e-5 * (1.0 + np.linalg.norm(x, axis=1).max())
        assert np.allclose(np.diag(d), 0.0, atol=tolerance)
        # Cosine is undefined at the origin (we define it as 1 there),
        # so only check non-zero rows.
        nonzero = np.linalg.norm(x, axis=1) > 1e-9
        if nonzero.any():
            d = pairwise_distances(x[nonzero], x[nonzero], "cosine")
            assert np.allclose(np.diag(d), 0.0, atol=1e-6)

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, a, b):
        if a.shape[1] != b.shape[1]:
            b = np.zeros((len(b), a.shape[1]))
        for metric in ("euclidean", "cosine", "angular"):
            assert np.allclose(
                pairwise_distances(a, b, metric),
                pairwise_distances(b, a, metric).T,
                atol=1e-6,
            )

    @given(finite_vectors)
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, x):
        cos = cosine_distances(x, x)
        assert (cos >= -1e-9).all() and (cos <= 2 + 1e-9).all()
        ang = angular_distances(x, x)
        assert (ang >= -1e-9).all() and (ang <= np.pi + 1e-9).all()

    @given(
        # Subnormal entries are excluded: multiplying one by ``scale``
        # rounds coarsely or underflows to zero (5e-324 * 0.5 == 0), so
        # ``x * scale`` would no longer point in the direction of ``x``.
        arrays(np.float64, (4, 3), elements=st.floats(
            -10, 10, allow_nan=False, allow_subnormal=False)),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_angular_scale_invariance(self, x, scale):
        base = angular_distances(x, x)
        scaled = angular_distances(x * scale, x)
        assert np.allclose(base, scaled, atol=1e-6)

    @given(arrays(np.float64, (5, 3),
                  elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_angular_triangle_inequality(self, x):
        """The angle is a metric on the sphere (for non-zero vectors)."""
        norms = np.linalg.norm(x, axis=1)
        if (norms < 1e-6).any():
            return
        d = angular_distances(x, x)
        n = len(x)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    assert d[i, l] <= d[i, j] + d[j, l] + 1e-6
