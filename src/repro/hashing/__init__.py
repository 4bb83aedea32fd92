"""Learning-to-hash algorithms (the paper's hashing substrate)."""

from repro.hashing.base import (
    BinaryHasher,
    ProjectionHasher,
    sign_quantize,
    spectral_norm_bound,
)
from repro.hashing.itq import ITQ
from repro.hashing.kmh import KMeansHashing
from repro.hashing.lsh import RandomProjectionLSH
from repro.hashing.pcah import PCAHashing
from repro.hashing.sh import SpectralHashing

__all__ = [
    "ITQ",
    "BinaryHasher",
    "KMeansHashing",
    "PCAHashing",
    "ProjectionHasher",
    "RandomProjectionLSH",
    "SpectralHashing",
    "sign_quantize",
    "spectral_norm_bound",
]
