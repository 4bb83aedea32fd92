"""Querying methods (bucket probers): HR and GHR.

QR and GQR — the paper's contribution — live in :mod:`repro.core` and
implement the same :class:`~repro.probing.base.BucketProber` interface.
"""

from repro.probing.base import BucketProber, collect_candidates
from repro.probing.ghr import GenerateHammingRanking, hamming_ring_signatures
from repro.probing.hamming_ranking import HammingRanking

__all__ = [
    "BucketProber",
    "GenerateHammingRanking",
    "HammingRanking",
    "collect_candidates",
    "hamming_ring_signatures",
]
