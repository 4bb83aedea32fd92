"""QD ranking (QR) — Algorithm 1.

Score every occupied bucket by quantization distance, sort ascending,
probe in order.  Retrieval is O(B log B) in the number of buckets (the
"slow start" GQR later removes), but the probe order itself is what
delivers the paper's accuracy gains over Hamming ranking: QD can
distinguish buckets inside the same Hamming ring.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.prober import BucketProber
from repro.core.quantization_distance import (
    batch_quantization_distances,
    quantization_distances,
)
from repro.core.tree_prefix import TreePrefix, cached_tree_prefix
from repro.index.hash_table import HashTable

__all__ = ["QDRanking"]


class QDRanking(BucketProber):
    """Sort all occupied buckets by quantization distance (Algorithm 1)."""

    def probe(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[int]:
        buckets = np.fromiter(table.signatures(), dtype=np.int64, count=table.num_buckets)
        if not len(buckets):
            return
        distances = quantization_distances(signature, buckets, flip_costs)
        # Tie-break on signature so QR's order is deterministic and
        # comparable with GQR's stable generation order.
        order = np.lexsort((buckets, distances))
        yield from (int(sig) for sig in buckets[order])

    def batch_scores(
        self,
        bucket_signatures: np.ndarray,
        bucket_bits: np.ndarray,
        query_signatures: np.ndarray,
        query_bits: np.ndarray,
        cost_matrix: np.ndarray,
        bucket_complement: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised QD of every (query, bucket) pair — Algorithm 1 batched."""
        del bucket_signatures, query_signatures
        return batch_quantization_distances(
            query_bits, cost_matrix, bucket_bits, bucket_complement
        )

    def tree_prefix(self, code_length: int, size: int) -> TreePrefix:
        """The shared tree prefix: its order is this prober's QD order."""
        return cached_tree_prefix(code_length, size)
