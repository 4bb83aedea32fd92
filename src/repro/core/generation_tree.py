"""Flipping vectors and the Append/Swap generation tree (Section 5).

A *flipping vector* ``v`` marks the bits in which a bucket differs from
the query's code (Definition 2): ``b = c(q) ⊕ v`` and
``dist(q, b) = Σ v_i |p_i(q)|``.  GQR never sorts buckets; it generates
*sorted flipping vectors* — masks over the ascending-cost permutation of
``|p(q)|`` — in non-decreasing QD order using two moves on the rightmost
set bit (Definition 4):

* ``Append``: set the bit just right of the rightmost 1
  (cost `+ cost[j+1]`);
* ``Swap``: move the rightmost 1 one position right
  (cost `+ cost[j+1] − cost[j]`).

Rooted at ``(1, 0, …, 0)``, these moves form a binary tree containing
every non-zero vector exactly once (Property 1) in which children never
cost less than parents (Property 2), so a min-heap over tree nodes emits
vectors in exactly ascending-QD order — Algorithm 4.

Masks here are integers whose bit ``i`` is the ``(i+1)``-th entry of the
sorted flipping vector, i.e. bit 0 flips the *cheapest* position; the
"rightmost 1" of the paper is the *highest* set bit of the mask.

The batched query paths do not walk a heap per row, nor score every
bucket: they rank a fixed, precomputed prefix of this tree and certify
the result with Properties 1 and 2 (:mod:`repro.core.tree_prefix`).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np

from repro.index.codes import validate_code_length

__all__ = [
    "append_move",
    "swap_move",
    "FlippingVectorGenerator",
    "SharedGenerationTree",
    "mask_cost",
]


def _rightmost_one(mask: int) -> int:
    """Index of the paper's "rightmost 1" — the highest set bit."""
    return mask.bit_length() - 1


def append_move(mask: int) -> int:
    """``Append``: add a 1 just past the rightmost 1."""
    return mask | (1 << (_rightmost_one(mask) + 1))


def swap_move(mask: int) -> int:
    """``Swap``: move the rightmost 1 one position further right."""
    j = _rightmost_one(mask)
    return (mask & ~(1 << j)) | (1 << (j + 1))


def mask_cost(mask: int, sorted_costs: np.ndarray) -> float:
    """QD of a sorted flipping vector: sum of costs at its set bits."""
    total = 0.0
    remaining = mask
    while remaining:
        low = remaining & -remaining
        total += float(sorted_costs[low.bit_length() - 1])
        remaining ^= low
    return total


class FlippingVectorGenerator:
    """Lazily emit sorted-flipping-vector masks in ascending QD order.

    This is the ``generate_bucket`` heap of Algorithm 4.  The first
    emitted mask is always ``0`` (probe the query's own bucket), after
    which masks cover all ``2^m − 1`` non-zero vectors exactly once, in
    non-decreasing ``Σ cost`` order.

    Parameters
    ----------
    sorted_costs:
        Flip costs sorted ascending (the *sorted projected vector*
        ``p̄(q)`` of Definition 3).  Must be non-negative.
    """

    def __init__(self, sorted_costs: np.ndarray) -> None:
        costs = np.asarray(sorted_costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError("sorted_costs must be 1-D")
        m = validate_code_length(len(costs))
        if len(costs) > 1 and np.any(np.diff(costs) < 0):
            raise ValueError("sorted_costs must be ascending")
        if costs[0] < 0:
            raise ValueError("flip costs must be non-negative")
        self._costs = costs
        self._m = m
        # Heap entries are (cost, mask); mask is the deterministic
        # tie-break so equal-cost vectors emit in a stable order.
        self._heap: list[tuple[float, int]] = []
        self._started = False
        self._emitted = 0

    @property
    def heap_size(self) -> int:
        """Current heap occupancy (the paper proves it is ≤ #emitted)."""
        return len(self._heap)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        """Yield ``(mask, cost)`` pairs; ``2^m`` of them in total."""
        if self._started:
            raise RuntimeError("generator can only be iterated once")
        self._started = True

        yield 0, 0.0
        self._emitted = 1
        heapq.heappush(self._heap, (float(self._costs[0]), 1))

        while self._heap:
            cost, mask = heapq.heappop(self._heap)
            j = _rightmost_one(mask)
            if j + 1 < self._m:
                step = float(self._costs[j + 1])
                heapq.heappush(self._heap, (cost + step, append_move(mask)))
                heapq.heappush(
                    self._heap,
                    (cost + step - float(self._costs[j]), swap_move(mask)),
                )
            self._emitted += 1
            yield mask, cost


class SharedGenerationTree:
    """Precomputed Append/Swap children, shared across queries.

    The paper's final optimisation remark: the generation tree's *shape*
    is query-independent, so the child masks of every node can be coded
    as integers once and reused by all queries — only the heap priorities
    depend on the query.  Children are memoised on first touch, bounded
    by ``max_nodes`` to keep memory predictable.
    """

    #: Above this code length a flat node table (3 ints per possible
    #: mask) would dominate memory, so the cache degrades to a dict.
    FLAT_TABLE_LIMIT = 16

    def __init__(self, code_length: int, max_nodes: int = 1 << 20) -> None:
        self._m = validate_code_length(code_length)
        self._max_nodes = max_nodes
        # mask -> (append_child, swap_child, rightmost_one); -1 = leaf.
        # Flat list indexed by mask for short codes (O(1), no hashing);
        # dict for long codes where 2^m entries would be wasteful.
        self._flat = self._m <= self.FLAT_TABLE_LIMIT
        if self._flat:
            self._table: list[tuple[int, int, int] | None] = (
                [None] * (1 << self._m)
            )
            self._cached = 0
        else:
            self._children: dict[int, tuple[int, int, int]] = {}

    @property
    def code_length(self) -> int:
        return self._m

    @property
    def num_cached_nodes(self) -> int:
        return self._cached if self._flat else len(self._children)

    def children(self, mask: int) -> tuple[int, int, int]:
        """``(append_child, swap_child, rightmost_one)`` of a node.

        Children are ``-1`` when the node is a leaf (rightmost 1 already
        at position ``m − 1``).
        """
        cached = self._table[mask] if self._flat else self._children.get(mask)
        if cached is not None:
            return cached
        j = _rightmost_one(mask)
        if j + 1 >= self._m:
            result = (-1, -1, j)
        else:
            result = (append_move(mask), swap_move(mask), j)
        if self._flat:
            if self._cached < self._max_nodes:
                self._table[mask] = result
                self._cached += 1
        elif len(self._children) < self._max_nodes:
            self._children[mask] = result
        return result

    def generate(self, sorted_costs: np.ndarray) -> Iterator[tuple[int, float]]:
        """Same stream as :class:`FlippingVectorGenerator` via the cache."""
        costs = np.asarray(sorted_costs, dtype=np.float64)
        if len(costs) != self._m:
            raise ValueError(
                f"expected {self._m} costs, got {len(costs)}"
            )
        cost_list = [float(c) for c in costs]
        yield 0, 0.0
        heap: list[tuple[float, int]] = [(cost_list[0], 1)]
        push = heapq.heappush
        pop = heapq.heappop
        children = self.children
        while heap:
            cost, mask = pop(heap)
            append_child, swap_child, j = children(mask)
            if append_child >= 0:
                step = cost_list[j + 1]
                push(heap, (cost + step, append_child))
                push(heap, (cost + step - cost_list[j], swap_child))
            yield mask, cost
