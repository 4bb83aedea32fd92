"""Inverted multi-index (IMI).

Babenko & Lempitsky (CVPR 2012).  A product quantizer with two
codebooks of ``K`` codewords induces a grid of ``K²`` cells; the IMI
stores every item in its cell and answers a query by visiting cells in
non-decreasing ``d₁(q, u_i) + d₂(q, v_j)`` using the *multi-sequence
algorithm*: a min-heap seeded with cell ``(0, 0)`` of the per-codebook
sorted distance lists, pushing the two successor cells of each popped
cell.

This is the querying side of the OPQ + IMI comparator (Figure 17).
Candidates are re-ranked with exact distances by the caller, matching
how the other querying methods in this package are evaluated.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np

from repro.quantization.opq import OptimizedProductQuantizer
from repro.quantization.pq import ProductQuantizer

__all__ = ["InvertedMultiIndex", "multi_sequence"]


def multi_sequence(
    row_costs: np.ndarray, column_costs: np.ndarray
) -> Iterator[tuple[int, int, float]]:
    """Visit grid cells in non-decreasing ``row_costs[i] + column_costs[j]``.

    Both cost arrays must be sorted ascending.  Yields
    ``(i, j, total_cost)`` over the full grid, each cell exactly once,
    using the multi-sequence algorithm's frontier heap.
    """
    rows = len(row_costs)
    columns = len(column_costs)
    if not rows or not columns:
        return
    heap: list[tuple[float, int, int]] = [
        (float(row_costs[0] + column_costs[0]), 0, 0)
    ]
    pushed = {(0, 0)}
    while heap:
        cost, i, j = heapq.heappop(heap)
        yield i, j, cost
        # Push (i+1, j) only from j == 0 or when (i+1, j-1) was already
        # popped; the standard guard "predecessors pushed" is subsumed by
        # the visited set, which is simpler and still O(K²) total.
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if ni < rows and nj < columns and (ni, nj) not in pushed:
                pushed.add((ni, nj))
                heapq.heappush(
                    heap, (float(row_costs[ni] + column_costs[nj]), ni, nj)
                )


class InvertedMultiIndex:
    """Second-order inverted multi-index over a (O)PQ with 2 codebooks.

    Parameters
    ----------
    quantizer:
        A fitted :class:`ProductQuantizer` or
        :class:`OptimizedProductQuantizer` with ``n_subspaces == 2``.
    data:
        The ``(n, d)`` indexed items (in original, un-rotated space).
    """

    def __init__(
        self,
        quantizer: ProductQuantizer | OptimizedProductQuantizer,
        data: np.ndarray,
    ) -> None:
        if quantizer.n_subspaces != 2:
            raise ValueError("InvertedMultiIndex requires exactly 2 subspaces")
        self._quantizer = quantizer
        codes = quantizer.encode(np.asarray(data, dtype=np.float64))
        k = quantizer.n_centroids
        self._k = k
        cells: dict[tuple[int, int], list[int]] = {}
        for item_id, (a, b) in enumerate(codes):
            cells.setdefault((int(a), int(b)), []).append(item_id)
        self._cells = {
            cell: np.asarray(ids, dtype=np.int64) for cell, ids in cells.items()
        }

    @property
    def num_cells(self) -> int:
        """Number of occupied cells (≤ K²)."""
        return len(self._cells)

    def _query_tables(self, query: np.ndarray) -> list[np.ndarray]:
        if isinstance(self._quantizer, OptimizedProductQuantizer):
            rotated = self._quantizer.rotate(
                np.asarray(query, dtype=np.float64)[np.newaxis, :]
            )[0]
            return self._quantizer.pq.distance_tables(rotated)
        return self._quantizer.distance_tables(np.asarray(query, dtype=np.float64))

    def probe(self, query: np.ndarray) -> Iterator[np.ndarray]:
        """Yield item-id arrays cell by cell in multi-sequence order.

        Empty cells are skipped (nothing is yielded for them); iteration
        covers all ``K²`` cells, so every item is eventually returned
        exactly once.
        """
        table_a, table_b = self._query_tables(query)
        order_a = np.argsort(table_a, kind="stable")
        order_b = np.argsort(table_b, kind="stable")
        sorted_a = table_a[order_a]
        sorted_b = table_b[order_b]
        for i, j, _ in multi_sequence(sorted_a, sorted_b):
            cell = (int(order_a[i]), int(order_b[j]))
            ids = self._cells.get(cell)
            if ids is not None:
                yield ids
