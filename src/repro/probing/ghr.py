"""Generate-to-probe Hamming ranking (GHR), a.k.a. hash lookup.

The generate-to-probe counterpart of HR that the paper implements as a
stronger baseline (Section 6.3): instead of sorting buckets, enumerate
bucket signatures ring by ring — all codes at Hamming distance 0, then
1, then 2, … — by flipping every ``r``-subset of the query's bits.
Enumeration is lazy, so the slow start disappears, but the indicator is
still coarse: inside a ring the order is arbitrary (here: positional,
cheap bits first, purely for determinism).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

import numpy as np

from repro.core.prober import BucketProber
from repro.index.hash_table import HashTable

__all__ = ["GenerateHammingRanking", "hamming_ring_signatures"]


def hamming_ring_signatures(
    signature: int, code_length: int, radius: int
) -> Iterator[int]:
    """All signatures at exact Hamming distance ``radius`` from a code."""
    for positions in combinations(range(code_length), radius):
        flip = 0
        for pos in positions:
            flip |= 1 << pos
        yield signature ^ flip


class GenerateHammingRanking(BucketProber):
    """Enumerate the code space ring by ring around the query (hash lookup)."""

    def probe(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[int]:
        del flip_costs  # GHR only looks at binary codes.
        m = table.code_length
        for radius in range(m + 1):
            yield from hamming_ring_signatures(signature, m, radius)

    def probe_scored(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(bucket_signature, hamming_distance)`` pairs."""
        m = table.code_length
        for radius in range(m + 1):
            for bucket in hamming_ring_signatures(signature, m, radius):
                yield bucket, radius
