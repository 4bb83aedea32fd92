"""Prober interface: the querying-method contract.

A *querying method* (Section 2.2) decides which buckets of a hash table
to probe, and in what order.  Every method in this package — Hamming
ranking, generate-to-probe Hamming ranking, QD ranking and GQR —
implements :class:`BucketProber`: given the query's binary code
signature and per-bit flip costs (see
:meth:`repro.hashing.base.BinaryHasher.probe_info`), yield bucket
signatures best-first.

Probers are deliberately ignorant of raw vectors: retrieval (choosing
buckets) is separated from evaluation (exact re-ranking of the gathered
candidates), mirroring the paper's cost model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.core.tree_prefix import TreePrefix
from repro.index.hash_table import HashTable

__all__ = ["BucketProber"]


class BucketProber(ABC):
    """Order the buckets of a hash table for one query."""

    @abstractmethod
    def probe(
        self, table: HashTable, signature: int, flip_costs: np.ndarray
    ) -> Iterator[int]:
        """Yield bucket signatures in probe order, each at most once."""

    def batch_scores(
        self,
        bucket_signatures: np.ndarray,
        bucket_bits: np.ndarray,
        query_signatures: np.ndarray,
        query_bits: np.ndarray,
        cost_matrix: np.ndarray,
        bucket_complement: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Score every occupied bucket for every query at once, or ``None``.

        Probers whose probe order is "sort occupied buckets by a score,
        ties by signature" can vectorise that score across a query batch
        — one ``(B, nb)`` matrix instead of B generator walks.  The
        query-execution engine takes this fast path for every prober
        that overrides the method, deciding before it hashes or scores,
        so an override always returns the matrix; it is called for the
        rows :meth:`tree_prefix` does not rank (every row when that
        returns ``None``).  This base version returns ``None`` and keeps
        the per-query stream path.
        ``bucket_bits`` is ``(nb, m)``; callers may pass it
        as float64 with its complement ``1 − bucket_bits`` in
        ``bucket_complement`` so a QD kernel converts nothing.
        """
        del bucket_signatures, bucket_bits, query_signatures
        del query_bits, cost_matrix, bucket_complement
        return None

    def tree_prefix(self, code_length: int, size: int) -> TreePrefix | None:
        """The generation-tree prefix that ranks in this prober's order, or ``None``.

        Probers whose order is ascending ``(QD, signature)`` over
        occupied buckets (QR, GQR) return the shared
        :class:`~repro.core.tree_prefix.TreePrefix` of ``(code_length,
        size)``; the query-execution engine then ranks a block's rows
        from it and scores with :meth:`batch_scores` only the rows it
        does not certify.  This base version returns ``None``, and
        every row is scored.
        """
        del code_length, size
        return None
