"""Binary code utilities.

Learning-to-hash maps every item to an ``m``-bit binary code.  Throughout
this package codes live in two interchangeable representations:

* **bit arrays** — ``numpy`` arrays of shape ``(n, m)`` (or ``(m,)`` for a
  single code) with ``uint8`` entries in ``{0, 1}``; column ``i`` holds bit
  ``c_i`` from the paper.
* **signatures** — non-negative ``int64`` integers where bit position
  ``i`` stores ``c_i``.  Signatures are compact dictionary keys for hash
  tables and are what probers pass around.

This module provides loss-free conversion between the two
(:func:`pack_bits` / :func:`unpack_bits`) plus Hamming arithmetic on
signatures (:func:`hamming_weight` / :func:`hamming_distance`, one
``np.bitwise_count`` each).  Code length is limited to 63 bits so that signatures fit in
``int64``; the paper never exceeds 28 bits (code length is chosen as
``log2(N / 10)``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_CODE_LENGTH",
    "MAX_SLOT_BITS",
    "pack_bits",
    "slot_table",
    "unpack_bits",
    "hamming_distance",
    "hamming_weight",
    "validate_code_length",
]

MAX_CODE_LENGTH = 63

#: Longest code with a dense slot table (:func:`slot_table`): ``2^m``
#: int32 entries are 64 KB at m = 14 and 4 MB at m = 20.
MAX_SLOT_BITS = 20


def validate_code_length(m: int) -> int:
    """Return ``m`` if it is a usable code length, raise otherwise."""
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"code length must be an integer, got {type(m).__name__}")
    if not 1 <= m <= MAX_CODE_LENGTH:
        raise ValueError(
            f"code length must be in [1, {MAX_CODE_LENGTH}], got {m}"
        )
    return int(m)


def pack_bits(bits: np.ndarray) -> np.ndarray | int:
    """Pack a ``(n, m)`` or ``(m,)`` array of {0, 1} into integer signatures.

    Bit ``i`` of each code becomes bit position ``i`` of the signature, so
    ``pack_bits([1, 0, 1]) == 0b101 == 5``.

    Returns an ``int64`` array of shape ``(n,)``, or a scalar ``int`` for a
    single code.
    """
    # Deliberately dtype-polymorphic: accepts bool/int/float {0, 1}
    # arrays; entries are range-checked below, then cast to int64.
    arr = np.asarray(bits)  # reprolint: disable=RL002
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D bit array, got ndim={arr.ndim}")
    m = validate_code_length(arr.shape[1])
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("bit array entries must be 0 or 1")
    weights = (np.int64(1) << np.arange(m, dtype=np.int64))
    sigs = (arr.astype(np.int64) * weights).sum(axis=1)
    if single:
        return int(sigs[0])
    return sigs


def unpack_bits(signatures: np.ndarray | int, m: int) -> np.ndarray:
    """Unpack integer signatures back into a {0, 1} bit array.

    Inverse of :func:`pack_bits`.  Returns shape ``(m,)`` for a scalar
    input and ``(n, m)`` for an array.
    """
    m = validate_code_length(m)
    scalar = np.isscalar(signatures)
    sigs = np.atleast_1d(np.asarray(signatures, dtype=np.int64))
    if sigs.size and (sigs.min() < 0 or sigs.max() >= (1 << m)):
        raise ValueError(f"signature out of range for code length {m}")
    positions = np.arange(m, dtype=np.int64)
    bits = ((sigs[:, np.newaxis] >> positions) & 1).astype(np.uint8)
    if scalar:
        return bits[0]
    return bits


def slot_table(signatures: np.ndarray, m: int) -> np.ndarray:
    """Dense map from signature to its position in ``signatures``.

    An int32 array of ``2^m`` entries holding ``i`` at
    ``signatures[i]`` and ``-1`` elsewhere; for ``m`` up to
    :data:`MAX_SLOT_BITS`.
    """
    m = validate_code_length(m)
    if m > MAX_SLOT_BITS:
        raise ValueError(
            f"no slot table above {MAX_SLOT_BITS} bits, got code length {m}"
        )
    slots = np.full(1 << m, -1, dtype=np.int32)
    slots[signatures] = np.arange(len(signatures), dtype=np.int32)
    return slots


def hamming_weight(signatures: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits (popcount) of each signature."""
    scalar = np.isscalar(signatures)
    sigs = np.atleast_1d(np.asarray(signatures, dtype=np.uint64))
    counts = np.bitwise_count(sigs).astype(np.int64)
    if scalar:
        return int(counts[0])
    return counts


def hamming_distance(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """Hamming distance between signatures (broadcasting like ``a ^ b``)."""
    both_scalar = np.isscalar(a) and np.isscalar(b)
    xa = np.asarray(a, dtype=np.uint64)
    xb = np.asarray(b, dtype=np.uint64)
    counts = np.bitwise_count(xa ^ xb).astype(np.int64)
    if both_scalar:
        return int(counts)
    return counts
