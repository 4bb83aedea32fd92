"""Certified generation-tree prefixes: rank a row's buckets without scoring all.

QD ranking scores every occupied bucket before it probes the first one
(Algorithm 1's slow start); GQR generates buckets in the same order
from a heap over the Append/Swap tree (Algorithms 2–4), but a heap walk
per row is slow in Python.  A :class:`TreePrefix` ranks a whole block
of rows in numpy from a *fixed* part of the tree.

Precomputed once per code length ``m`` and size ``L``:

* the *down-set* ``D``: the first ``L`` masks
  :class:`~repro.core.generation_tree.FlippingVectorGenerator` emits
  under a data-independent cost profile (the expected order statistics
  of ``m`` half-normal costs), masks tied with the ``L``-th included.
  Any prefix of the heap's emission is closed under tree parents;
* the *frontier* ``F``: the Append/Swap children of ``D`` that are not
  in ``D`` (mask 1, the tree's root, is the child of mask 0).

Walking up from a non-zero mask outside ``D`` reaches ``D`` (the root is
in it, or in ``F`` when ``D = {0}``), so the mask descends from a member
of ``F`` (Property 1); by Property 2 it costs at least as much under
*any* ascending cost vector, not just the profile's.

Per block of rows, :meth:`TreePrefix.rank` sorts the flip costs,
scores ``D ∪ F`` with one matmul, maps ``D`` to bucket signatures with
a second product over the same bits (sorted position ``x`` weighs
``2^permutation[x]``, exact in float64) and to bucket slots through the
table's dense slot table, and ranks ``D``'s present slots by QD, with a
fixed number of numpy calls whatever the number of rows.
It does so first on the *lead*, the shared prefix of size ``L // 2``
(at least 64 masks), whose down-set is the front of ``D`` in the same
emission, and again on ``D`` only for the rows the lead cannot certify:
a row certified on the lead is certified on ``D`` with the same answer,
since every mask of ``D`` past the lead descends from the lead's
frontier.  The lead ranks half the columns, and most rows stop well
inside it.
The row's *stop* is the first ranked slot whose cumulative size meets
the budget.  The row is **certified** when

1. the stop's QD is below the smallest QD in ``F``, so no bucket outside
   ``D`` ranks before it; and
2. every two neighbours among the ranked slots up to the stop, and the
   stop and the slot after it, differ in QD,

each comparison with a margin for the rounding of an ``m``-term sum
(see :meth:`TreePrefix.rank`).  A certified row's probe order up to its
stop, and its cumulative sizes, are then exactly those of sorting the
score row of :meth:`~repro.core.prober.BucketProber.batch_scores` by
``(score, signature)``.  A row that fails either test (a budget beyond
``D``'s buckets, a tie or near-tie, a negative or NaN cost) is the
caller's to rank from the score row.  ``docs/theory.md`` has the proof.
"""

from __future__ import annotations

import functools
import weakref
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from repro.core.generation_tree import (
    FlippingVectorGenerator,
    append_move,
    swap_move,
)
from repro.index.codes import unpack_bits, validate_code_length

__all__ = [
    "RankedPrefix",
    "TreePrefix",
    "cached_tree_prefix",
]

# Smallest lead: a prefix under twice this size ranks in one stage, its
# whole ``D`` being cheap to rank already.
_MIN_LEAD = 64


class RankedPrefix(NamedTuple):
    """:meth:`TreePrefix.rank` of a block of rows.

    ``order``, ``cumulative`` and ``scores`` are ``(rows, |D|)``: each
    row's present slots ranked by QD, their running size total and
    their QDs, then its absent masks (slot ``-1``, QD ``inf``).  Only
    the columns up to ``stops[i]`` of a row with ``certified[i]`` set
    are meaningful.
    """

    certified: np.ndarray
    order: np.ndarray
    cumulative: np.ndarray
    scores: np.ndarray
    stops: np.ndarray


def _half_normal_profile(m: int) -> np.ndarray:
    """Ascending expected order statistics of ``m`` half-normal costs.

    Blom's plotting positions ``(i + 0.625)/(m + 0.25)`` through the
    half-normal quantile ``Φ⁻¹((1 + p)/2)``.
    """
    normal = NormalDist()
    return np.array(
        [normal.inv_cdf(0.5 + 0.5 * (i + 0.625) / (m + 0.25)) for i in range(m)],
        dtype=np.float64,
    )


def _children(mask: int, m: int) -> tuple[int, ...]:
    """Tree children of ``mask``; mask 0 has the root, mask 1."""
    if mask == 0:
        return (1,)
    if mask.bit_length() >= m:
        return ()
    return append_move(mask), swap_move(mask)


class TreePrefix:
    """The down-set ``D`` and frontier ``F`` of one ``(m, L)``.

    Parameters
    ----------
    code_length:
        ``m``, the table's code length.
    size:
        ``L``: how many masks of the profile's emission ``D`` holds
        (more when masks tie at the cut; all ``2^m`` at most).
    """

    def __init__(self, code_length: int, size: int) -> None:
        m = validate_code_length(code_length)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        down: list[int] = []
        cut = 0.0
        for mask, cost in FlippingVectorGenerator(_half_normal_profile(m)):
            if len(down) >= size and cost != cut:
                break
            down.append(mask)
            cut = cost
        members = set(down)
        # D's emission order fixes F's order; the set only answers
        # membership.
        frontier = [
            child
            for mask in down
            for child in _children(mask, m)
            if child not in members
        ]
        self.down_set = np.array(down, dtype=np.int64)
        self.frontier = np.array(frontier, dtype=np.int64)
        # QD of every mask of D ∪ F is sorted_costs @ _bits.
        masks = np.concatenate((self.down_set, self.frontier))
        self._bits = np.ascontiguousarray(
            unpack_bits(masks, m).T, dtype=np.float64
        )
        # Margin of the certificate's comparisons: rounding error of an
        # m-term sum of non-negative terms, with room to spare.
        self._grow = 1.0 + 8.0 * (m + 1) * 2.0 ** -53
        # The shared prefix of half the size, whose down-set leads this
        # one's in the same emission; none when small or when D already
        # holds every mask the lead would.
        half = size // 2
        self._lead = (
            cached_tree_prefix(m, half)
            if half >= _MIN_LEAD and half < len(down)
            else None
        )

    def rank(
        self,
        query_signatures: np.ndarray,
        cost_matrix: np.ndarray,
        slot_table: np.ndarray,
        sizes: np.ndarray,
        budget: int,
    ) -> RankedPrefix:
        """Rank ``D``'s present slots for every row, and certify the rows.

        ``query_signatures`` is ``(rows,)`` and ``cost_matrix``
        ``(rows, m)`` flip costs; ``slot_table[s]`` is the slot of
        signature ``s``, or ``-1`` when the table has none, and
        ``sizes[slot]`` the slot's id count.  Row ``i``'s stop is the
        first ranked slot whose cumulative size reaches ``budget``.

        Every row is ranked on the lead (the prefix of half the size)
        first, and only the rows it leaves uncertified are re-ranked on
        ``D``.  A row the lead certifies has the order, stop and
        cumulative sizes of ranking it on ``D``, and its QDs up to
        rounding (``docs/theory.md``); its columns past the lead's
        width are padding.  The certified flags are those of ranking
        every row on ``D``.

        Each comparison of the certificate is ``a·(1 + 8(m+1)·2⁻⁵³) < b``
        on the matmul's QDs.  Every QD here and in ``batch_scores`` is
        a rounded sum of the same non-negative costs, within ``γ =
        (m−1)·2⁻⁵³/(1 − (m−1)·2⁻⁵³)`` of the exact sum relatively, so a
        comparison that passes orders the two exact sums, and the two
        ``batch_scores`` values, the same way.  The lead compares with
        that margin squared, which covers its QDs and ``D``'s QDs of
        the same masks differing by rounding.
        """
        costs = np.asarray(cost_matrix, dtype=np.float64)
        query_signatures = np.asarray(query_signatures, dtype=np.int64)
        lead = self._lead
        if lead is None:
            return self._rank_rows(
                query_signatures, costs, slot_table, sizes, budget, self._grow
            )
        first = lead._rank_rows(
            query_signatures, costs, slot_table, sizes, budget,
            self._grow * self._grow,
        )
        rest = np.flatnonzero(~first.certified)
        n_rows, width = first.order.shape
        n_down = len(self.down_set)
        order = np.empty((n_rows, n_down), dtype=np.int64)
        cumulative = np.empty((n_rows, n_down), dtype=first.cumulative.dtype)
        scores = np.empty((n_rows, n_down), dtype=np.float64)
        order[:, :width], order[:, width:] = first.order, -1
        cumulative[:, :width] = first.cumulative
        cumulative[:, width:] = first.cumulative[:, -1:]
        scores[:, :width], scores[:, width:] = first.scores, np.inf
        certified, stops = first.certified, first.stops
        if len(rest):
            second = self._rank_rows(
                query_signatures[rest], costs[rest], slot_table, sizes,
                budget, self._grow,
            )
            order[rest], cumulative[rest] = second.order, second.cumulative
            scores[rest] = second.scores
            certified[rest], stops[rest] = second.certified, second.stops
        return RankedPrefix(certified, order, cumulative, scores, stops)

    def _rank_rows(
        self,
        query_signatures: np.ndarray,
        costs: np.ndarray,
        slot_table: np.ndarray,
        sizes: np.ndarray,
        budget: int,
        grow: float,
    ) -> RankedPrefix:
        """:meth:`rank` on this prefix's ``D`` alone, comparing with ``grow``."""
        (n_rows, m), n_down = costs.shape, len(self.down_set)
        # A flat take reads row i's entry j at i·width + j.
        rows = np.arange(n_rows)
        permutation = np.argsort(costs, axis=1, kind="stable")
        sorted_costs = costs.take(permutation + rows[:, np.newaxis] * m)
        qds = sorted_costs @ self._bits
        # Sorted position x flips bit permutation[x] of the query's code,
        # so a mask's flip pattern is the sum of 2^permutation[x] over
        # its set bits: exact in float64 (docs/theory.md).
        signatures = (
            np.ldexp(1.0, permutation) @ self._bits[:, :n_down]
        ).astype(np.int64)
        signatures ^= query_signatures[:, np.newaxis]
        slots = slot_table.take(signatures)
        present = slots >= 0
        keyed = np.where(present, qds[:, :n_down], np.inf)
        ranking = np.argsort(keyed, axis=1)
        ranking += rows[:, np.newaxis] * n_down
        order = slots.take(ranking).astype(np.int64, copy=False)
        scores = keyed.take(ranking)
        cumulative = np.cumsum(
            np.where(order >= 0, sizes.take(order), 0), axis=1
        )
        stops = (cumulative < budget).sum(axis=1)
        # Two trailing infs: the last pair never clears, so argmin finds
        # each row's first uncleared pair.
        padded = np.concatenate(
            (scores, np.full((n_rows, 2), np.inf)), axis=1
        )
        cleared = padded[:, :-1] * grow < padded[:, 1:]
        floor = qds[:, n_down:].min(axis=1, initial=np.inf)
        at_stop = padded.take(stops + rows * (n_down + 2))
        certified = (
            (stops < np.count_nonzero(present, axis=1))
            & (np.argmin(cleared, axis=1) > stops)
            & (at_stop * grow < floor)
            & (costs >= 0).all(axis=1)
        )
        return RankedPrefix(certified, order, cumulative, scores, stops)


#: Every prefix still alive, so a lead its parent holds is shared even
#: after the bounded cache below has evicted it.
_LIVE: weakref.WeakValueDictionary[tuple[int, int], TreePrefix] = (
    weakref.WeakValueDictionary()
)


@functools.lru_cache(maxsize=16)
def cached_tree_prefix(code_length: int, size: int) -> TreePrefix:
    """The shared :class:`TreePrefix` of ``(code_length, size)``.

    The 16 most recently used stay alive; an older one is rebuilt only
    when nothing (such as a parent holding it as its lead) keeps it.
    """
    key = (code_length, size)
    prefix = _LIVE.get(key)
    if prefix is None:
        prefix = _LIVE[key] = TreePrefix(code_length, size)
    return prefix
