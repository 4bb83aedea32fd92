"""Shared experiment machinery: cached workloads and fitted hashers.

Every exhibit and benchmark needs the same heavyweight artefacts:
materialised datasets, exact ground truth, fitted hashers.  An
:class:`ExperimentContext` memoises them per scale so a session
reproducing several figures trains each hasher once; the benchmark
suite shares one module-level context across all its benches.
"""

from __future__ import annotations

import numpy as np

from repro.data import Dataset, ground_truth_knn, load_dataset
from repro.hashing import (
    ITQ,
    KMeansHashing,
    PCAHashing,
    SpectralHashing,
)
from repro.hashing.base import BinaryHasher

__all__ = ["ExperimentContext", "budget_sweep"]


def budget_sweep(
    n_items: int, n_points: int = 6, top_fraction: float = 0.35
) -> list[int]:
    """Geometric candidate budgets up to ``top_fraction·N``.

    Sweeps stop short of N: the curves' interesting region is recall
    0.3–0.99, which the registered workloads reach well below a full
    scan.
    """
    lo = max(20, n_items // 500)
    hi = max(lo + 1, int(n_items * top_fraction))
    return [int(b) for b in np.unique(np.geomspace(lo, hi, n_points).astype(int))]


class ExperimentContext:
    """Per-scale cache of datasets, truth sets, and fitted hashers.

    Parameters
    ----------
    scale:
        Uniform downscale factor applied to every registered dataset
        (1.0 = the registry's default laptop scale).
    k:
        Default number of target neighbours (the paper uses 20).
    """

    def __init__(self, scale: float = 1.0, k: int = 20) -> None:
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if k < 1:
            raise ValueError("k must be positive")
        self.scale = scale
        self.k = k
        self._truth: dict[tuple[str, int], np.ndarray] = {}
        self._hashers: dict[tuple[str, str, int], BinaryHasher] = {}

    def dataset(self, name: str) -> Dataset:
        return load_dataset(name, scale=self.scale)

    def workload(
        self, name: str, k: int | None = None
    ) -> tuple[Dataset, np.ndarray]:
        """``(dataset, truth)`` with exact kNN truth memoised."""
        k = self.k if k is None else k
        dataset = self.dataset(name)
        key = (dataset.name, k)
        if key not in self._truth:
            self._truth[key] = ground_truth_knn(
                dataset.queries, dataset.data, k
            )
        return dataset, self._truth[key]

    def hasher(
        self, name: str, algo: str, code_length: int | None = None
    ) -> BinaryHasher:
        """A fitted hasher for a dataset, memoised by (dataset, algo, m)."""
        dataset = self.dataset(name)
        m = code_length if code_length is not None else dataset.code_length
        key = (dataset.name, algo, m)
        if key not in self._hashers:
            if algo == "itq":
                hasher = ITQ(code_length=m, seed=0)
            elif algo == "pcah":
                hasher = PCAHashing(code_length=m)
            elif algo == "sh":
                hasher = SpectralHashing(code_length=m)
            elif algo == "kmh":
                # KMH needs m divisible by the per-subspace bits; round
                # down to a multiple of 4 (b = 4 as in the KMH paper).
                m = max(4, m - m % 4)
                hasher = KMeansHashing(
                    code_length=m, bits_per_subspace=4,
                    kmeans_iterations=15, seed=0,
                )
            else:
                raise ValueError(f"unknown hasher algo {algo!r}")
            self._hashers[key] = hasher.fit(dataset.data)
        return self._hashers[key]
