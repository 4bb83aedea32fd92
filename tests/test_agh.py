"""Tests for anchor graph hashing."""

import numpy as np
import pytest

from repro.data import gaussian_mixture
from repro.hashing.agh import AnchorGraphHashing
from repro.hashing.base import sign_quantize


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture(1500, 16, n_clusters=10, seed=131)


@pytest.fixture(scope="module")
def agh(data):
    return AnchorGraphHashing(
        code_length=8, n_anchors=48, n_nearest_anchors=3, seed=0
    ).fit(data)


class TestConstruction:
    def test_anchor_count_must_exceed_bits(self):
        with pytest.raises(ValueError):
            AnchorGraphHashing(code_length=16, n_anchors=16)

    def test_nearest_anchor_bounds(self):
        with pytest.raises(ValueError):
            AnchorGraphHashing(code_length=4, n_anchors=16,
                               n_nearest_anchors=0)

    def test_needs_more_items_than_anchors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            AnchorGraphHashing(code_length=4, n_anchors=64).fit(
                rng.standard_normal((32, 4))
            )


class TestEmbedding:
    def test_projection_shape(self, agh, data):
        assert agh.project(data[:20]).shape == (20, 8)

    def test_anchor_weights_row_normalised(self, agh, data):
        z = agh._anchor_weights(data[:50])
        assert np.allclose(z.sum(axis=1), 1.0)
        assert (z >= 0).all()

    def test_anchor_weights_sparse(self, agh, data):
        z = agh._anchor_weights(data[:50])
        assert ((z > 0).sum(axis=1) <= 3).all()

    def test_out_of_sample_extension(self, agh, data):
        """Unseen queries embed consistently: a near-copy of an item
        gets a nearly identical embedding."""
        item = data[7]
        copy = item + 1e-9
        assert np.allclose(
            agh.project(item[np.newaxis, :]), agh.project(copy[np.newaxis, :])
        )

    def test_similarity_preserving(self, agh, data):
        codes = agh.encode(data)
        dists = np.linalg.norm(data - data[3], axis=1)
        order = np.argsort(dists)
        near = np.mean([(codes[3] == codes[i]).mean() for i in order[1:15]])
        far = np.mean([(codes[3] == codes[i]).mean() for i in order[-15:]])
        assert near > far

    def test_nonlinear_no_spectral_bound(self, agh):
        assert agh.spectral_bound() is None


class TestSpectralRotation:
    def test_rotation_reduces_quantization_loss(self, data):
        plain = AnchorGraphHashing(
            code_length=8, n_anchors=48, seed=0
        ).fit(data)
        rotated = AnchorGraphHashing(
            code_length=8, n_anchors=48, spectral_rotation=True, seed=0
        ).fit(data)

        def loss(hasher):
            y = hasher.project(data)
            b = np.where(y >= 0, 1.0, -1.0)
            return float(np.square(b - y).sum())

        assert loss(rotated) <= loss(plain) + 1e-9

    def test_spectral_rotation_matches_the_inline_loop(self, data):
        """Differential: the shared Procrustes helper rotates AGH's
        embedding bit-identically to a plain allocating copy of the loop."""
        plain = AnchorGraphHashing(code_length=8, n_anchors=48, seed=0).fit(
            data
        )
        rotated = AnchorGraphHashing(
            code_length=8, n_anchors=48, spectral_rotation=True, seed=0
        ).fit(data)

        z = plain._anchor_weights(data)
        embedding = z @ plain._projection
        rng = np.random.default_rng(0)
        rotation, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        for _ in range(30):
            rotated_embedding = embedding @ rotation
            binary = np.where(rotated_embedding >= 0, 1.0, -1.0)
            u, _, vt = np.linalg.svd(embedding.T @ binary)
            rotation = u @ vt
        projection = plain._projection @ rotation

        assert np.array_equal(rotated._projection, projection)
        assert np.array_equal(
            rotated.encode(data), sign_quantize(z @ projection)
        )

    def test_works_with_gqr(self, data):
        from repro.core.gqr import GQR
        from repro.index.linear_scan import knn_linear_scan
        from repro.search.searcher import HashIndex

        hasher = AnchorGraphHashing(
            code_length=8, n_anchors=48, spectral_rotation=True, seed=0
        )
        index = HashIndex(hasher, data, prober=GQR())
        query = data[11]
        result = index.search(query, k=10, n_candidates=len(data))
        truth, _ = knn_linear_scan(query[None, :], data, 10)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))
