"""Generate-to-probe QD ranking (GQR) — Algorithms 2–4.

GQR probes buckets in exactly the same ascending-QD order as QD ranking
but *generates* the next bucket on demand instead of sorting all buckets
up front, fixing QR's slow start.  Per query it:

1. sorts the ``m`` flip costs once (the *sorted projected vector*,
   Definition 3) and remembers the permutation ``f``;
2. runs a min-heap over the Append/Swap generation tree
   (:mod:`repro.core.generation_tree`) to emit sorted flipping vectors
   in non-decreasing QD order;
3. maps each sorted vector back through ``f`` and XORs it onto the
   query's code (Algorithm 3) to obtain the bucket signature.

Correctness rests on the tree's Properties 1 and 2: every bucket is
generated exactly once and in ascending QD.  A
:class:`~repro.core.generation_tree.SharedGenerationTree` can be plugged
in to reuse precomputed tree structure across queries (the paper's final
optimisation remark).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.generation_tree import FlippingVectorGenerator, SharedGenerationTree
from repro.core.prober import BucketProber
from repro.core.quantization_distance import batch_quantization_distances
from repro.core.tree_prefix import TreePrefix, cached_tree_prefix
from repro.index.hash_table import HashTable

__all__ = ["GQR"]


class GQR(BucketProber):
    """Generate-to-probe QD ranking (Algorithm 2).

    Parameters
    ----------
    shared_tree:
        Optional precomputed generation tree shared across queries; must
        match the table's code length.  ``None`` builds the tree lazily
        per query (pure Algorithm 4).
    """

    def __init__(self, shared_tree: SharedGenerationTree | None = None) -> None:
        self._shared_tree = shared_tree

    def probe(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[int]:
        for bucket, _ in self.probe_scored(table, signature, flip_costs):
            yield bucket

    def probe_scored(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[tuple[int, float]]:
        """Yield ``(bucket_signature, quantization_distance)`` pairs.

        The QD stream is non-decreasing, which enables the Theorem 2
        early-stop rule in the search layer.
        """
        costs = np.asarray(flip_costs, dtype=np.float64)
        m = table.code_length
        if len(costs) != m:
            raise ValueError(
                f"expected {m} flip costs for table, got {len(costs)}"
            )

        # f: sorted position -> original bit position (Definition 3).
        permutation = np.argsort(costs, kind="stable")
        sorted_costs = costs[permutation]
        # Algorithm 3 reduced to an XOR: sorted-mask bit x flips query
        # bit permutation[x].
        bit_map = [1 << int(pos) for pos in permutation]

        if self._shared_tree is not None:
            if self._shared_tree.code_length != m:
                raise ValueError(
                    "shared tree code length does not match table"
                )
            stream = self._shared_tree.generate(sorted_costs)
        else:
            stream = iter(FlippingVectorGenerator(sorted_costs))

        for mask, cost in stream:
            flip = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                flip ^= bit_map[low.bit_length() - 1]
                remaining ^= low
            yield signature ^ flip, cost

    def batch_scores(
        self,
        bucket_signatures: np.ndarray,
        bucket_bits: np.ndarray,
        query_signatures: np.ndarray,
        query_bits: np.ndarray,
        cost_matrix: np.ndarray,
        bucket_complement: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised QD over occupied buckets for a whole query batch.

        Restricted to occupied buckets, :meth:`probe_scored` yields
        buckets in ascending ``(score, signature)`` order of these
        scores (``tests/test_gqr.py`` checks it, with and without a
        shared tree).  The batched path (``HashIndex.search_batch``,
        ``DynamicHashIndex.search``) and the Theorem 2 scan
        (``search_early_stop`` / ``search_range``) rank a row from
        :meth:`tree_prefix` first, and call this only for the rows the
        prefix does not certify: it is their fallback, sorted up to the
        budget, and its scores are the scan's bounds.
        Pass ``bucket_complement`` (``1 − bucket_bits``, float64) to
        score without converting the bucket bits; see
        :func:`~repro.core.quantization_distance.batch_quantization_distances`.
        """
        del bucket_signatures, query_signatures
        return batch_quantization_distances(
            query_bits, cost_matrix, bucket_bits, bucket_complement
        )

    def tree_prefix(self, code_length: int, size: int) -> TreePrefix:
        """The shared tree prefix: its order is this prober's QD order."""
        return cached_tree_prefix(code_length, size)
