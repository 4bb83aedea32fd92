"""Hash-table substrate: buckets of item ids keyed by binary signature.

A :class:`HashTable` is the storage layer shared by every querying method
in this package.  It maps each occupied ``m``-bit signature to the array
of item ids whose code equals that signature.  Empty buckets are not
stored — with code length ``m ≈ log2(N / 10)`` most of the ``2^m`` code
space is occupied, but probers must still tolerate missing signatures.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.index.codes import pack_bits, validate_code_length

__all__ = ["HashTable"]


class HashTable:
    """Bucketed storage of item ids keyed by integer code signature.

    Parameters
    ----------
    codes:
        ``(n, m)`` bit array or ``(n,)`` integer signatures of the indexed
        items.  Item ids are their row positions (``0 … n-1``) unless
        ``ids`` is given.
    code_length:
        Required when ``codes`` is already packed into signatures.
    ids:
        Optional explicit item ids aligned with ``codes``.
    """

    def __init__(
        self,
        codes: np.ndarray,
        code_length: int | None = None,
        ids: np.ndarray | None = None,
    ) -> None:
        # Deliberately dtype-polymorphic: accepts bool/int bit matrices
        # or packed signatures; both branches below pin int64.
        arr = np.asarray(codes)  # reprolint: disable=RL002
        if arr.ndim == 2:
            m = validate_code_length(arr.shape[1])
            signatures = np.asarray(pack_bits(arr), dtype=np.int64)
        elif arr.ndim == 1:
            if code_length is None:
                raise ValueError(
                    "code_length is required when codes are packed signatures"
                )
            m = validate_code_length(code_length)
            signatures = arr.astype(np.int64)
        else:
            raise ValueError(f"codes must be 1-D or 2-D, got ndim={arr.ndim}")
        if code_length is not None and code_length != m:
            raise ValueError(
                f"code_length={code_length} disagrees with codes width {m}"
            )

        n = len(signatures)
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != n:
                raise ValueError("ids must align with codes")

        self._m = m
        self._n = n
        # Group ids by signature with one argsort instead of n dict appends.
        order = np.argsort(signatures, kind="stable")
        sorted_sigs = signatures[order]
        sorted_ids = ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_sigs)) + 1
        groups = np.split(sorted_ids, boundaries)
        uniques = sorted_sigs[np.concatenate(([0], boundaries))] if n else []
        self._buckets: dict[int, np.ndarray] = {
            int(sig): group for sig, group in zip(uniques, groups)
        }
        self._layout: tuple[np.ndarray, ...] | None = None
        # The table is immutable but the layout cache is not:
        # AsyncFrontDoor(max_workers>1) worker threads may race to
        # build it on first use.
        self._layout_lock = threading.Lock()

    @property
    def code_length(self) -> int:
        """Number of bits per code."""
        return self._m

    @property
    def num_items(self) -> int:
        """Total number of indexed items."""
        return self._n

    @property
    def num_buckets(self) -> int:
        """Number of occupied buckets."""
        return len(self._buckets)

    def get(self, signature: int) -> np.ndarray:
        """Item ids in the bucket, or an empty array if unoccupied."""
        return self._buckets.get(int(signature), _EMPTY_IDS)

    def __contains__(self, signature: int) -> bool:
        return int(signature) in self._buckets

    def signatures(self) -> Iterator[int]:
        """Iterate over the occupied bucket signatures."""
        return iter(self._buckets)

    def dense_layout(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style view: ``(signatures, sizes, offsets, ids_flat)``.

        Occupied signatures in ascending order, each bucket's size, its
        start offset into the flat id array, and all ids concatenated in
        that order.  Built lazily and cached — the table is immutable —
        so batched execution pays the flattening cost once per table.
        """
        layout = self._layout
        if layout is None:
            # Double-checked: the fast path above stays lock-free once
            # built (assignment of the ready tuple is atomic), losers
            # of the build race just re-read the winner's tuple.
            with self._layout_lock:
                layout = self._layout
                if layout is None:
                    count = len(self._buckets)
                    signatures = np.fromiter(
                        self._buckets, dtype=np.int64, count=count
                    )
                    sizes = np.fromiter(
                        (len(ids) for ids in self._buckets.values()),
                        dtype=np.int64,
                        count=count,
                    )
                    ids_flat = (
                        np.concatenate(list(self._buckets.values()))
                        if count
                        else _EMPTY_IDS
                    )
                    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
                    layout = (signatures, sizes, offsets, ids_flat)
                    self._layout = layout
        return layout

    def bucket_sizes(self) -> dict[int, int]:
        """Mapping of signature to bucket population."""
        return {sig: len(ids) for sig, ids in self._buckets.items()}

    def expected_population(self) -> float:
        """Average number of items per occupied bucket (the paper's EP)."""
        if not self._buckets:
            return 0.0
        return self._n / len(self._buckets)

    def memory_bytes(self) -> int:
        """Approximate resident size: id arrays plus dict overhead.

        Used for the paper's memory-efficiency comparisons (e.g. the
        multi-table trade-off of Figure 12).
        """
        id_bytes = sum(ids.nbytes for ids in self._buckets.values())
        # 8-byte key + ~100 bytes/entry dict overhead, a CPython-ish
        # estimate that keeps multi-table ratios honest.
        overhead = len(self._buckets) * 108
        return id_bytes + overhead

    def __repr__(self) -> str:
        return (
            f"HashTable(code_length={self._m}, items={self._n}, "
            f"buckets={self.num_buckets})"
        )


_EMPTY_IDS = np.empty(0, dtype=np.int64)
