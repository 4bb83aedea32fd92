"""Querying methods (bucket probers): HR, GHR, Multi-Probe LSH.

QR and GQR — the paper's contribution — live in :mod:`repro.core` and
implement the same :class:`~repro.probing.base.BucketProber` interface.
"""

from repro.probing.base import BucketProber, collect_candidates
from repro.probing.ghr import GenerateHammingRanking, hamming_ring_signatures
from repro.probing.hamming_ranking import HammingRanking
from repro.probing.multiprobe_lsh import MultiProbeLSH

__all__ = [
    "BucketProber",
    "GenerateHammingRanking",
    "HammingRanking",
    "MultiProbeLSH",
    "collect_candidates",
    "hamming_ring_signatures",
]
