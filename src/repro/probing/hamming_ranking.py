"""Hamming ranking (HR) — the default L2H querying method the paper
improves upon.

HR sorts every occupied bucket by the Hamming distance between its
signature and the query's code, probing nearer rings first; ties inside
a ring are broken arbitrarily (here: by signature, for determinism).
Because the key is a small integer, a counting sort keeps retrieval
O(B) — still a full pass over all buckets up front, HR's share of the
slow-start problem.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.prober import BucketProber
from repro.index.codes import hamming_distance
from repro.index.hash_table import HashTable

__all__ = ["HammingRanking"]


class HammingRanking(BucketProber):
    """Sort all occupied buckets by Hamming distance to the query."""

    def probe(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[int]:
        del flip_costs  # HR only looks at binary codes.
        buckets = np.fromiter(
            table.signatures(), dtype=np.int64, count=table.num_buckets
        )
        if not len(buckets):
            return
        distances = hamming_distance(buckets, np.int64(signature))
        # Counting sort on distance (0..m), signature order inside rings.
        bucket_order = np.argsort(buckets, kind="stable")
        ring_order = np.argsort(distances[bucket_order], kind="stable")
        for index in bucket_order[ring_order]:
            yield int(buckets[index])

    def batch_scores(
        self,
        bucket_signatures: np.ndarray,
        bucket_bits: np.ndarray,
        query_signatures: np.ndarray,
        query_bits: np.ndarray,
        cost_matrix: np.ndarray,
        bucket_complement: np.ndarray | None = None,
    ) -> np.ndarray:
        """Hamming distance of every (query, bucket) pair in one XOR.

        Integer scores, so the batched order (score, then signature) is
        bit-for-bit the per-query probe order — and the engine can sort
        on a collision-free composite integer key.
        """
        del bucket_bits, query_bits, cost_matrix, bucket_complement
        return np.asarray(hamming_distance(
            np.asarray(query_signatures, dtype=np.int64)[:, np.newaxis],
            np.asarray(bucket_signatures, dtype=np.int64)[np.newaxis, :],
        ), dtype=np.int64)
