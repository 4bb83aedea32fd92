"""Iterative quantization (ITQ).

Gong & Lazebnik, *Iterative Quantization: A Procrustean Approach to
Learning Binary Codes* (CVPR 2011 / TPAMI 2013) — the default hash
learner in the paper's experiments.

ITQ first reduces the data to ``m`` dimensions with PCA, then finds a
rotation ``R`` of that subspace minimising the quantization loss
``‖B − V R‖_F²`` over binary matrices ``B ∈ {−1, 1}^{n×m}``, alternating:

1. fix ``R``: ``B = sign(V R)``;
2. fix ``B``: orthogonal Procrustes — given the SVD
   ``V^T B = U Ω S^T``, set ``R = U S^T``.

The final projection is ``p(o) = (o − µ) W R`` with ``W`` the PCA basis.

:func:`procrustes_rotation` runs the alternation.  Every round writes
into the same three ``(n, m)`` buffers (``V R``, its sign mask and
``B``), so a fit's transient memory past the centered copy and ``V`` is
about ``2.1 · n · m · 8`` bytes whatever the round count.  Writing in
place changes no arithmetic: tests pin rotations, losses and codes bit
for bit against a loop that allocates every round.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import ProjectionHasher
from repro.hashing.pcah import pca_directions

__all__ = ["ITQ", "procrustes_rotation"]


def procrustes_rotation(
    embedding: np.ndarray, n_iterations: int, seed: int | None
) -> tuple[np.ndarray, list[float]]:
    """Rotation ``R`` of ``embedding`` minimising ``‖sign(V R) − V R‖_F²``.

    Starts from a random orthogonal matrix drawn from ``seed`` and runs
    ``n_iterations`` rounds of the alternation; returns the final
    ``(m, m)`` rotation and each round's loss ``‖B − V R‖_F² / n``.
    Zero maps to ``+1``.
    """
    n, m = embedding.shape
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
    rotated = np.empty((n, m))
    binary = np.empty((n, m))
    signs = np.empty((n, m), dtype=bool)
    losses: list[float] = []
    for _ in range(n_iterations):
        np.matmul(embedding, rotation, out=rotated)
        np.greater_equal(rotated, 0, out=signs)
        np.multiply(signs, 2.0, out=binary)
        binary -= 1.0
        # The loss consumes ``rotated``: Procrustes needs only ``binary``.
        np.subtract(binary, rotated, out=rotated)
        np.square(rotated, out=rotated)
        losses.append(float(rotated.sum() / n))
        u, _, vt = np.linalg.svd(embedding.T @ binary)
        rotation = u @ vt
    return rotation, losses


class ITQ(ProjectionHasher):
    """PCA + learned rotation minimising binary quantization error.

    Parameters
    ----------
    code_length:
        Number of bits ``m`` (also the PCA target dimensionality).
    n_iterations:
        Alternating-minimisation rounds; the original paper uses 50 but
        reports convergence much earlier.
    seed:
        Seed for the random orthogonal initialisation of ``R``.
    """

    def __init__(
        self, code_length: int, n_iterations: int = 50, seed: int | None = None
    ) -> None:
        super().__init__(code_length)
        if n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        self._n_iterations = n_iterations
        self._seed = seed
        self._quantization_loss: list[float] = []

    @property
    def quantization_loss(self) -> list[float]:
        """Per-iteration ``‖B − V R‖_F² / n`` recorded during fit."""
        return list(self._quantization_loss)

    def _learn(self, centered: np.ndarray) -> np.ndarray:
        basis = pca_directions(centered, self._m)
        rotation, self._quantization_loss = procrustes_rotation(
            centered @ basis, self._n_iterations, self._seed
        )
        return basis @ rotation
