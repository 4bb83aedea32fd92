"""Mutable hash table: insertions and deletions without rebuilds.

The paper's tables are static (built once from the training set), but a
production deployment ingests and expires items continuously.
:class:`DynamicHashTable` implements the same read interface as
:class:`~repro.index.hash_table.HashTable` — ``code_length``,
``num_items``, ``num_buckets``, ``get``, ``signatures`` — so every
prober works on it unchanged, while supporting ``add`` and ``remove``.

Storage is a :class:`BucketLayout`: bucket slots sorted by signature,
each with its size and its id array, plus the float64 bucket bits and
their complement that :meth:`~repro.core.prober.BucketProber.batch_scores`
multiplies and a dense signature-to-slot table, both built on a read's
first use of them.  The same layout serves the engine's ordered kernel
(rank slots from a certified prefix of GQR's generation tree, or from a
score row of every slot, then gather a prefix), so a search whose
prober ranks buckets never walks a generator through ``get``.

Writes are batched numpy operations under one writer lock, applied in
place: a removed id leaves its bucket array at once (there are no
tombstones), and a slot whose bucket empties keeps its signature with
size 0.  A new layout is built and published — one attribute
assignment — only when a write inserts a signature the layout lacks,
or when more than half of its slots are empty (compaction).  Reads take
no lock and never mutate the table.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from itertools import accumulate, groupby

import numpy as np

from repro.index.codes import (
    pack_bits,
    slot_table,
    unpack_bits,
    validate_code_length,
)

__all__ = ["BucketLayout", "DynamicHashTable"]


class BucketLayout:
    """One published layout of a :class:`DynamicHashTable`.

    ``signatures`` ascend, so a column index is also the signature's
    rank (the ordered kernel's tie-break).  ``sizes`` and ``buckets``
    are updated in place by the table's writers; ``signatures`` never
    change, so one read scores, ranks and gathers from one layout even
    while the table publishes a newer one.
    """

    __slots__ = (
        "_bits", "_slots", "_table", "buckets", "code_length", "signatures",
        "sizes",
    )

    def __init__(
        self,
        table: DynamicHashTable,
        signatures: np.ndarray,
        sizes: np.ndarray,
        buckets: list[np.ndarray],
    ) -> None:
        self._table = table
        self.code_length = table.code_length
        self.signatures = signatures
        self.sizes = sizes
        self.buckets = buckets
        self._bits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._slots: np.ndarray | None = None

    def widened(self, fresh: np.ndarray) -> BucketLayout:
        """A copy with empty slots for the ascending new ``fresh`` signatures."""
        at = np.searchsorted(self.signatures, fresh)
        buckets: list[np.ndarray] = []
        done = 0
        for slot in at.tolist():
            buckets += self.buckets[done:slot]
            buckets.append(_EMPTY_IDS)
            done = slot
        buckets += self.buckets[done:]
        return BucketLayout(
            self._table,
            np.insert(self.signatures, at, fresh),
            np.insert(self.sizes, at, 0),
            buckets,
        )

    def compacted(self) -> BucketLayout:
        """A copy without the slots of size 0."""
        keep = np.flatnonzero(self.sizes)
        return BucketLayout(
            self._table,
            self.signatures[keep],
            self.sizes[keep],
            [self.buckets[slot] for slot in keep.tolist()],
        )

    def dense_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """``(signatures, sizes)`` of every slot, empty ones included."""
        return self.signatures, self.sizes

    def bucket_bits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(signatures, bits, 1 − bits)``, the scoring operands.

        The float64 bits and complement are built on the first call and
        kept, as :meth:`slot_table` is: a write that widens or compacts
        the layout copies no bit matrix, and a read that ranks only from
        the tree prefix never builds one.
        """
        cached = self._bits
        if cached is None:
            bits = unpack_bits(self.signatures, self.code_length).astype(
                np.float64
            )
            cached = self._bits = (self.signatures, bits, 1.0 - bits)
        return cached

    def slot_table(self) -> np.ndarray:
        """Dense map from signature to slot, ``-1`` where there is none.

        Built on the first ranked read of this layout and kept: the
        signatures never change.  Two reads racing to build it build
        equal arrays.
        """
        slots = self._slots
        if slots is None:
            slots = self._slots = slot_table(self.signatures, self.code_length)
        return slots

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the slots at ``positions``, and each slot's id count.

        The bucket arrays are read between two writes: a read that
        overlapped one is retried, so the gathered ids are the table's
        contents at one instant (an id a writer moved between buckets
        appears once).  The counts are those of the arrays read, which
        may differ from ``sizes`` as the caller saw it.
        """
        buckets = self.buckets
        slots = positions.tolist()
        while True:
            before = self._table._writes
            arrays = [buckets[slot] for slot in slots]
            if before % 2 == 0 and self._table._writes == before:
                break
            time.sleep(0)  # let the writer finish
        lengths = np.fromiter(
            map(len, arrays), dtype=np.int64, count=len(arrays)
        )
        ids = np.concatenate(arrays) if arrays else _EMPTY_IDS
        return ids, lengths


class DynamicHashTable:
    """Bucketed id storage supporting batched add/remove in place.

    Parameters
    ----------
    code_length:
        Number of bits per code; fixed for the table's lifetime.

    Writers hold one lock and validate a whole batch before changing
    anything.  A removed id leaves its bucket array in the same write;
    there are no tombstones.  Readers take the published
    :meth:`layout` and never mutate the table; ``get`` returns a bucket
    as of the latest write.  Item ids are non-negative integers and
    index a dense array of their signatures, so keep them compact
    (``DynamicHashIndex`` assigns ``0 … n-1`` and recycles freed ids).
    """

    def __init__(self, code_length: int) -> None:
        self._m = validate_code_length(code_length)
        self._n_alive = 0
        # Item id -> signature, -1 when absent.
        self._signature_of = np.full(16, -1, dtype=np.int64)
        # Odd while a writer mutates the published layout in place;
        # BucketLayout.gather retries a read that overlapped a write.
        self._writes = 0
        self._layout = BucketLayout(
            self,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            [],
        )
        # Writers only: reads go through the published layout.
        self._lock = threading.Lock()

    @property
    def code_length(self) -> int:
        return self._m

    @property
    def num_items(self) -> int:
        """Number of stored items."""
        return self._n_alive

    @property
    def num_buckets(self) -> int:
        """Occupied buckets (slots of size 0 are not counted)."""
        return int(np.count_nonzero(self._layout.sizes))

    def layout(self) -> BucketLayout:
        """The published layout: what one read scores, ranks and gathers."""
        return self._layout

    def add(self, item_id: int, code: np.ndarray | int) -> None:
        """Insert one item under its bit-array or signature code."""
        if isinstance(code, (int, np.integer)):
            signature = int(code)
        else:
            signature = int(pack_bits(code))
        self._insert(
            np.array([item_id], dtype=np.int64),
            np.array([signature], dtype=np.int64),
        )

    def add_batch(self, item_ids: np.ndarray, codes: np.ndarray) -> None:
        """Insert many items; ``codes`` is a ``(n, m)`` bit array.

        All or nothing: a repeated or already present id, or a code
        out of range, raises before the table changes.
        """
        ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        signatures = np.atleast_1d(
            np.asarray(pack_bits(codes), dtype=np.int64)
        )
        if len(ids) != len(signatures):
            raise ValueError("item_ids must align with codes")
        self._insert(ids, signatures)

    def remove(self, item_id: int) -> None:
        """Remove one item; raises ``KeyError`` if absent."""
        self.remove_batch(np.array([item_id], dtype=np.int64))

    def remove_batch(self, item_ids: np.ndarray) -> None:
        """Remove many items, all or nothing.

        Raises ``KeyError`` before the table changes if any id is
        absent or repeated.
        """
        ids = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        keys = ids.tolist()
        if not keys:
            return
        with self._lock:
            if min(keys) < 0 or max(keys) >= len(self._signature_of):
                absent = ids[(ids < 0) | (ids >= len(self._signature_of))]
                raise KeyError(f"item {int(absent[0])} not present")
            signatures = self._signature_of[ids]
            if min(signatures.tolist()) < 0:
                absent = ids[signatures < 0]
                raise KeyError(f"item {int(absent[0])} not present")
            _reject_repeats(keys)
            layout = self._layout
            slots = sorted(set(
                layout.signatures.searchsorted(signatures).tolist()
            ))
            # One membership test over every touched bucket's ids.
            arrays = [layout.buckets[slot] for slot in slots]
            keep = ~_within(np.concatenate(arrays), np.sort(ids))
            ends = list(accumulate(map(len, arrays)))
            emptied = False
            self._writes += 1
            try:
                for slot, bucket, lo, hi in zip(
                    slots, arrays, [0, *ends], ends
                ):
                    kept = bucket[keep[lo:hi]]
                    layout.buckets[slot] = kept
                    layout.sizes[slot] = len(kept)
                    emptied = emptied or not len(kept)
            finally:
                self._writes += 1
            self._signature_of[ids] = -1
            self._n_alive -= len(ids)
            empty = np.count_nonzero(layout.sizes == 0) if emptied else 0
            if 2 * empty > len(layout.sizes):
                self._layout = layout.compacted()

    def _insert(self, ids: np.ndarray, signatures: np.ndarray) -> None:
        """Validate a batch, then append it to its buckets in place."""
        if not len(ids):
            return
        keys = ids.tolist()
        codes = signatures.tolist()
        if min(codes) < 0 or max(codes) >> self._m:
            raise ValueError(f"signature out of range for m={self._m}")
        if min(keys) < 0:
            raise ValueError("item ids must be non-negative")
        with self._lock:
            _reject_repeats(keys)
            if max(keys) >= len(self._signature_of):
                grown = np.full(
                    max(2 * len(self._signature_of), max(keys) + 1),
                    -1,
                    dtype=np.int64,
                )
                grown[: len(self._signature_of)] = self._signature_of
                self._signature_of = grown
            if max(self._signature_of[ids].tolist()) >= 0:
                present = ids[self._signature_of[ids] >= 0]
                raise KeyError(f"item {int(present[0])} already present")
            target = self._layout
            known = _within(signatures, target.signatures)
            if not known.all():
                # New signatures: widen a copy of the layout and publish
                # it once it holds the batch.
                target = target.widened(np.unique(signatures[~known]))
            # Group the batch by slot, keeping its order inside a slot.
            slots = target.signatures.searchsorted(signatures)
            order = slots.argsort(kind="stable")
            grouped = ids[order]
            self._writes += 1
            try:
                lo = 0
                for slot, run in groupby(slots[order].tolist()):
                    hi = lo + len(list(run))
                    target.buckets[slot] = np.concatenate(
                        (target.buckets[slot], grouped[lo:hi])
                    )
                    target.sizes[slot] += hi - lo
                    lo = hi
            finally:
                self._writes += 1
            # Publish only after the buckets hold the items.
            self._signature_of[ids] = signatures
            self._n_alive += len(ids)
            self._layout = target

    def __contains__(self, signature: int) -> bool:
        return len(self.get(int(signature))) > 0

    def get(self, signature: int) -> np.ndarray:
        """Item ids in the bucket, or an empty array if unoccupied."""
        layout = self._layout
        slot = int(np.searchsorted(layout.signatures, int(signature)))
        if (
            slot < len(layout.signatures)
            and layout.signatures[slot] == signature
        ):
            return layout.buckets[slot]
        return _EMPTY_IDS

    def signatures(self) -> Iterator[int]:
        """Iterate over occupied bucket signatures, ascending."""
        layout = self._layout
        return iter(layout.signatures[layout.sizes > 0].tolist())

    def bucket_sizes(self) -> dict[int, int]:
        layout = self._layout
        occupied = layout.sizes > 0
        return dict(zip(
            layout.signatures[occupied].tolist(),
            layout.sizes[occupied].tolist(),
        ))

    def expected_population(self) -> float:
        buckets = self.num_buckets
        if not buckets:
            return 0.0
        return self._n_alive / buckets

    def __repr__(self) -> str:
        return (
            f"DynamicHashTable(code_length={self._m}, items={self._n_alive}, "
            f"buckets={self.num_buckets})"
        )


def _within(values: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the ascending array ``ordered``."""
    if not len(ordered):
        return np.zeros(len(values), dtype=bool)
    return ordered.take(ordered.searchsorted(values), mode="clip") == values


def _reject_repeats(keys: list[int]) -> None:
    """Raise ``KeyError`` naming an id that occurs twice in ``keys``."""
    if len(set(keys)) != len(keys):
        ordered = np.sort(np.array(keys, dtype=np.int64))
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        raise KeyError(f"item {int(repeated[0])} repeated")


_EMPTY_IDS = np.empty(0, dtype=np.int64)
