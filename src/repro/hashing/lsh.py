"""Sign-random-projection LSH.

The data-independent baseline the paper contrasts L2H against: hash
vectors are sampled from an isotropic Gaussian, ignoring the dataset.
Included as a sanity baseline.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import ProjectionHasher

__all__ = ["RandomProjectionLSH"]


class RandomProjectionLSH(ProjectionHasher):
    """Gaussian random hyperplane hashing.

    ``fit`` only records the data mean (centring makes the sign split
    informative on un-normalised data); the hyperplanes themselves are
    data-independent.
    """

    def __init__(self, code_length: int, seed: int | None = None) -> None:
        super().__init__(code_length)
        self._seed = seed

    def _learn(self, centered: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self._seed)
        d = centered.shape[1]
        return rng.standard_normal((d, self._m))
