"""Querying methods (bucket probers): HR and GHR.

QR and GQR — the paper's contribution — live in :mod:`repro.core` and
implement the same :class:`~repro.core.prober.BucketProber` interface.
"""

from repro.probing.ghr import GenerateHammingRanking, hamming_ring_signatures
from repro.probing.hamming_ranking import HammingRanking

__all__ = [
    "GenerateHammingRanking",
    "HammingRanking",
    "hamming_ring_signatures",
]
