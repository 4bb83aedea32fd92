"""Anchor graph hashing (AGH), with optional spectral rotation.

Liu, Wang, Kumar & Chang, *Hashing with Graphs* (ICML 2011), the
scalable graph-spectral learner behind two of the paper's citations:
Discrete Graph Hashing [26] and Large Graph Hashing with Spectral
Rotation [25].

AGH approximates the data's neighbourhood graph with a small *anchor
graph*: each item connects to its ``s`` nearest of ``n_anchors``
k-means anchors with kernel weights ``Z`` (rows normalised).  The
graph Laplacian eigenvectors are then recovered from the tiny
``(anchors × anchors)`` matrix ``M = Λ^{-1/2} Z^T Z Λ^{-1/2}``
(Λ = anchor degrees): if ``M v = σ v`` then ``y = Z Λ^{-1/2} v / √σ``
is a spectral embedding coordinate.  Bits are signs of the embedding.

With ``spectral_rotation=True`` the embedding is additionally rotated
to minimise the binary quantization loss ``‖sign(Y R) − Y R‖`` by the
same Procrustes alternation ITQ uses — the essential move of Large
Graph Hashing with Spectral Rotation (AAAI 2017), giving a second
graph-based hasher for the generality experiments.

Out-of-sample extension: a new item's embedding uses its own anchor
weights, so the whole pipeline — including GQR's flip costs — works
for unseen queries.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import BinaryHasher
from repro.hashing.itq import procrustes_rotation
from repro.quantization.kmeans import KMeans

__all__ = ["AnchorGraphHashing"]


class AnchorGraphHashing(BinaryHasher):
    """Graph-spectral hashing via anchor graphs.

    Parameters
    ----------
    code_length:
        Number of bits ``m``; must be < ``n_anchors``.
    n_anchors:
        K-means anchors approximating the data manifold.
    n_nearest_anchors:
        Anchors each item connects to (``s``; 2-5 typical).
    spectral_rotation:
        Apply the Procrustes rotation minimising quantization loss.
    rotation_iterations, kmeans_iterations, seed:
        Optimisation knobs.
    """

    def __init__(
        self,
        code_length: int,
        n_anchors: int = 64,
        n_nearest_anchors: int = 3,
        spectral_rotation: bool = False,
        rotation_iterations: int = 30,
        kmeans_iterations: int = 15,
        seed: int | None = None,
    ) -> None:
        super().__init__(code_length)
        if n_anchors <= code_length:
            raise ValueError(
                "n_anchors must exceed code_length (need that many "
                "non-trivial graph eigenvectors)"
            )
        if not 1 <= n_nearest_anchors <= n_anchors:
            raise ValueError("n_nearest_anchors must be in [1, n_anchors]")
        self._n_anchors = n_anchors
        self._s = n_nearest_anchors
        self._spectral_rotation = spectral_rotation
        self._rotation_iterations = rotation_iterations
        self._kmeans_iterations = kmeans_iterations
        self._seed = seed
        self._anchors: np.ndarray | None = None
        self._bandwidth: float | None = None
        self._projection: np.ndarray | None = None  # (anchors, m)

    def _anchor_weights(self, items: np.ndarray) -> np.ndarray:
        """Truncated, row-normalised kernel weights Z, shape (n, anchors)."""
        sq_items = (items * items).sum(axis=1)[:, np.newaxis]
        sq_anchors = (self._anchors * self._anchors).sum(axis=1)[np.newaxis, :]
        d2 = sq_items - 2.0 * (items @ self._anchors.T) + sq_anchors
        np.maximum(d2, 0.0, out=d2)

        n = len(items)
        z = np.zeros_like(d2)
        nearest = np.argpartition(d2, self._s - 1, axis=1)[:, : self._s]
        rows = np.arange(n)[:, np.newaxis]
        kernel = np.exp(-d2[rows, nearest] / self._bandwidth)
        z[rows, nearest] = kernel
        sums = z.sum(axis=1, keepdims=True)
        sums[sums == 0] = 1.0
        return z / sums

    def fit(self, data: np.ndarray) -> "AnchorGraphHashing":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("training data must be a (n, d) array")
        if len(data) <= self._n_anchors:
            raise ValueError("need more items than anchors")

        km = KMeans(
            self._n_anchors, self._kmeans_iterations, seed=self._seed
        ).fit(data)
        self._anchors = km.centers
        # Bandwidth: mean squared distance to the assigned anchor.
        d2 = km.transform(data)
        self._bandwidth = float(max(d2.min(axis=1).mean(), 1e-12))

        z = self._anchor_weights(data)
        degrees = z.sum(axis=0)
        degrees[degrees == 0] = 1e-12
        inv_root = 1.0 / np.sqrt(degrees)
        m_small = (z * inv_root[np.newaxis, :]).T @ (
            z * inv_root[np.newaxis, :]
        )
        eigenvalues, eigenvectors = np.linalg.eigh(m_small)
        order = np.argsort(eigenvalues)[::-1]
        # Skip the trivial top eigenpair (σ=1, constant embedding).
        chosen = order[1 : self._m + 1]
        sigma = np.clip(eigenvalues[chosen], 1e-12, None)
        # Embedding map: y = Z Λ^{-1/2} V Σ^{-1/2}; fold the constants
        # into one (anchors × m) matrix applied to anchor weights.
        self._projection = (
            inv_root[:, np.newaxis] * eigenvectors[:, chosen]
        ) / np.sqrt(sigma)[np.newaxis, :]

        if self._spectral_rotation:
            rotation, _ = procrustes_rotation(
                z @ self._projection, self._rotation_iterations, self._seed
            )
            self._projection = self._projection @ rotation

        self._fitted = True
        return self

    def project(self, items: np.ndarray) -> np.ndarray:
        self._require_fitted()
        items = np.atleast_2d(np.asarray(items, dtype=np.float64))
        return self._anchor_weights(items) @ self._projection
