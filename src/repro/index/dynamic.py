"""Mutable hash table: insertions and deletions without rebuilds.

The paper's tables are static (built once from the training set), but a
production deployment ingests and expires items continuously.
:class:`DynamicHashTable` implements the same read interface as
:class:`~repro.index.hash_table.HashTable` — ``code_length``,
``num_items``, ``num_buckets``, ``get``, ``signatures`` — so every
prober works on it unchanged, while supporting ``add`` and ``remove``.

Deletions are tombstoned and compacted lazily per bucket: ``remove`` is
O(1), and a bucket pays its cleanup cost on its next ``get`` only when
tombstones exceed half its population.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.index.codes import pack_bits, validate_code_length

__all__ = ["DynamicHashTable"]


class DynamicHashTable:
    """Bucketed id storage supporting add/remove with lazy compaction.

    Parameters
    ----------
    code_length:
        Number of bits per code; fixed for the table's lifetime.
    """

    def __init__(self, code_length: int) -> None:
        self._m = validate_code_length(code_length)
        self._buckets: dict[int, list[int]] = {}
        self._dead: set[int] = set()
        self._bucket_of: dict[int, int] = {}
        self._n_alive = 0
        # ``get`` compacts lazily, so *reads* mutate the table too;
        # AsyncFrontDoor(max_workers>1) worker threads call ``get``
        # concurrently and must not interleave with each other or with
        # add/remove.  Non-reentrant by design: no method below calls
        # another locked method while holding the lock
        # (num_buckets/signatures call ``get`` from outside it).
        self._lock = threading.Lock()

    @property
    def code_length(self) -> int:
        return self._m

    @property
    def num_items(self) -> int:
        """Number of live (non-removed) items."""
        return self._n_alive

    @property
    def num_buckets(self) -> int:
        """Occupied buckets, counting only live items.

        Iterates a snapshot of the bucket keys: ``get`` compacts lazily
        and deletes a bucket whose members are all tombstoned, which
        would otherwise mutate the dict mid-iteration and raise
        ``RuntimeError`` (crashing any search whose prober asks for the
        bucket count after removals emptied a bucket).
        """
        return sum(1 for sig in list(self._buckets) if len(self.get(sig)))

    def add(self, item_id: int, code: np.ndarray | int) -> None:
        """Insert one item under its bit-array or signature code."""
        item_id = int(item_id)
        if isinstance(code, (int, np.integer)):
            signature = int(code)
        else:
            signature = int(pack_bits(code))
        if not 0 <= signature < (1 << self._m):
            raise ValueError(f"signature out of range for m={self._m}")
        with self._lock:
            if item_id in self._bucket_of:
                if item_id not in self._dead:
                    raise KeyError(f"item {item_id} already present")
                # Re-using a tombstoned id: purge it from its old
                # bucket now.
                old_signature = self._bucket_of.pop(item_id)
                members = self._buckets.get(old_signature)
                if members is not None:
                    members.remove(item_id)
                    if not members:
                        del self._buckets[old_signature]
                self._dead.discard(item_id)
            self._buckets.setdefault(signature, []).append(item_id)
            self._bucket_of[item_id] = signature
            self._dead.discard(item_id)
            self._n_alive += 1

    def add_batch(self, item_ids: np.ndarray, codes: np.ndarray) -> None:
        """Insert many items; ``codes`` is a ``(n, m)`` bit array."""
        ids = np.asarray(item_ids, dtype=np.int64)
        signatures = np.atleast_1d(
            np.asarray(pack_bits(codes), dtype=np.int64)
        )
        if len(ids) != len(signatures):
            raise ValueError("item_ids must align with codes")
        for item_id, signature in zip(ids, signatures):
            self.add(int(item_id), int(signature))

    def remove(self, item_id: int) -> None:
        """Tombstone one item; raises ``KeyError`` if absent."""
        item_id = int(item_id)
        with self._lock:
            if item_id not in self._bucket_of or item_id in self._dead:
                raise KeyError(f"item {item_id} not present")
            self._dead.add(item_id)
            self._n_alive -= 1

    def __contains__(self, signature: int) -> bool:
        return len(self.get(int(signature))) > 0

    def get(self, signature: int) -> np.ndarray:
        """Live item ids in the bucket (compacting tombstones lazily)."""
        with self._lock:
            members = self._buckets.get(int(signature))
            if not members:
                return _EMPTY_IDS
            dead_here = [item for item in members if item in self._dead]
            if dead_here:
                if len(dead_here) * 2 >= len(members):
                    # Compact: drop tombstones for good.
                    members[:] = [m for m in members if m not in self._dead]
                    for item in dead_here:
                        del self._bucket_of[item]
                        self._dead.discard(item)
                    if not members:
                        del self._buckets[int(signature)]
                        return _EMPTY_IDS
                    return np.asarray(members, dtype=np.int64)
                return np.asarray(
                    [m for m in members if m not in self._dead],
                    dtype=np.int64,
                )
            return np.asarray(members, dtype=np.int64)

    def signatures(self) -> Iterator[int]:
        """Iterate over buckets that currently hold at least one live item."""
        for signature in list(self._buckets):
            if len(self.get(signature)):
                yield signature

    def bucket_sizes(self) -> dict[int, int]:
        return {
            sig: len(self.get(sig))
            for sig in self.signatures()
        }

    def expected_population(self) -> float:
        sizes = self.bucket_sizes()
        if not sizes:
            return 0.0
        return self._n_alive / len(sizes)

    def __repr__(self) -> str:
        return (
            f"DynamicHashTable(code_length={self._m}, items={self._n_alive}, "
            f"buckets={len(self._buckets)})"
        )


_EMPTY_IDS = np.empty(0, dtype=np.int64)
