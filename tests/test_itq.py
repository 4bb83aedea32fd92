"""Tests for iterative quantization."""

import tracemalloc

import numpy as np
import pytest

from repro.hashing.base import sign_quantize
from repro.hashing.itq import ITQ
from repro.hashing.pcah import PCAHashing, pca_directions


def reference_itq(data, m, n_iterations, seed):
    """ITQ's fit as a plain allocating loop: weights, losses and mean.

    The differential oracle for the buffered
    :func:`~repro.hashing.itq.procrustes_rotation`: fresh ``rotated``
    and ``binary`` arrays every round, ``np.where`` for the signs, the
    loss from a fresh difference array.
    """
    mean = data.mean(axis=0)
    centered = data - mean
    basis = pca_directions(centered, m)
    projected = centered @ basis
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
    losses = []
    for _ in range(n_iterations):
        rotated = projected @ rotation
        binary = np.where(rotated >= 0, 1.0, -1.0)
        losses.append(
            float(np.square(binary - rotated).sum() / len(centered))
        )
        u, _, vt = np.linalg.svd(projected.T @ binary)
        rotation = u @ vt
    return basis @ rotation, losses, mean


def data_with_mean_rows():
    """Integer rows, their negations and copies of the (exact) zero mean.

    The sums are exact, so the mean is exactly 0 and the copied rows
    project to exactly 0.0, which both loops must map to ``+1``.
    """
    rng = np.random.default_rng(5)
    base = rng.integers(-4, 5, size=(300, 12)).astype(np.float64)
    return np.vstack([base, -base, np.zeros((40, 12))])


class TestITQ:
    def test_loss_non_increasing(self, small_data):
        hasher = ITQ(code_length=8, n_iterations=20, seed=0).fit(small_data)
        losses = hasher.quantization_loss
        assert len(losses) == 20
        # Alternating minimisation: loss may plateau but must not grow.
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_improves_on_pcah_quantization_loss(self, small_data):
        """ITQ exists to cut binary quantization error below plain PCA."""
        m = 8
        itq = ITQ(code_length=m, n_iterations=30, seed=0).fit(small_data)
        pcah = PCAHashing(code_length=m).fit(small_data)

        def loss(hasher):
            v = hasher.project(small_data)
            b = np.where(v >= 0, 1.0, -1.0)
            return np.square(b - v).sum() / len(small_data)

        assert loss(itq) <= loss(pcah) + 1e-9

    def test_rotation_preserves_spectral_bound(self, small_data):
        """ITQ = PCA + rotation, so σ_max(H) stays 1 (orthonormal rows)."""
        hasher = ITQ(code_length=6, seed=0).fit(small_data)
        assert hasher.spectral_bound() == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_under_seed(self, small_data):
        a = ITQ(code_length=6, n_iterations=5, seed=9).fit(small_data)
        b = ITQ(code_length=6, n_iterations=5, seed=9).fit(small_data)
        assert np.array_equal(a.encode(small_data), b.encode(small_data))

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            ITQ(code_length=4, n_iterations=0)

    def test_code_length_exceeding_dims_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ITQ(code_length=10).fit(rng.standard_normal((50, 4)))

    def test_codes_balanced_on_clustered_data(self, small_data):
        hasher = ITQ(code_length=8, seed=0).fit(small_data)
        means = hasher.encode(small_data).mean(axis=0)
        assert (means > 0.1).all() and (means < 0.9).all()


class TestBufferedRounds:
    """The in-place Procrustes rounds change no bit of the fit."""

    @pytest.mark.parametrize("source", ["small_data", "mean_rows"])
    def test_bit_identical_to_the_allocating_loop(self, source, request):
        data = (
            data_with_mean_rows()
            if source == "mean_rows"
            else request.getfixturevalue("small_data")
        )
        hasher = ITQ(code_length=8, n_iterations=25, seed=3).fit(data)
        weights, losses, mean = reference_itq(data, 8, 25, 3)
        assert np.array_equal(hasher._weights, weights)
        assert hasher.quantization_loss == losses
        codes = hasher.encode(data)
        assert np.array_equal(codes, sign_quantize((data - mean) @ weights))
        if source == "mean_rows":
            assert (codes[-40:] == 1).all()

    def test_fit_peak_memory_is_bounded(self):
        # Past the centered copy (n·d·8 bytes) a fit holds V plus the
        # rounds' three buffers, about 3.1·n·m·8 bytes; allocating fresh
        # temporaries every round reaches about 5·n·m·8.
        n, d, m = 20_000, 32, 8
        data = np.random.default_rng(0).standard_normal((n, d))
        tracemalloc.start()
        try:
            ITQ(code_length=m, n_iterations=3, seed=0).fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * d * 8 + 3.5 * n * m * 8, peak / (n * m * 8)
