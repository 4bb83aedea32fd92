"""Quantization distance (QD) — Definition 1 and Theorem 2 of the paper.

The quantization distance between a query ``q`` and a bucket ``b`` is

    dist(q, b) = Σ_i (c_i(q) ⊕ b_i) · |p_i(q)|

— the minimum L1 change to the projected query vector ``p(q)`` that
re-quantizes ``q`` into ``b``.  Unlike integer Hamming distance it is
continuous, distinguishes buckets within the same Hamming ring, and by
Theorem 2 lower-bounds the true distance of every item in the bucket:

    ‖o − q‖₂ ≥ µ · dist(q, b),   µ = 1 / (M·√m),   M = σ_max(H).
"""

from __future__ import annotations

import numpy as np

from repro.index.codes import unpack_bits, validate_code_length

__all__ = [
    "quantization_distance",
    "quantization_distances",
    "batch_quantization_distances",
    "theorem2_mu",
    "distance_lower_bound",
]


def quantization_distance(
    query_signature: int, bucket_signature: int, flip_costs: np.ndarray
) -> float:
    """QD between one query and one bucket (Definition 1).

    ``flip_costs`` is ``|p(q)|`` for threshold hashers (or codeword flip
    costs for K-means hashing), indexed by bit position.
    """
    costs = np.asarray(flip_costs, dtype=np.float64)
    m = validate_code_length(len(costs))
    differing = unpack_bits(int(query_signature) ^ int(bucket_signature), m)
    return float(differing @ costs)


def quantization_distances(
    query_signature: int, bucket_signatures: np.ndarray, flip_costs: np.ndarray
) -> np.ndarray:
    """Vectorised QD from one query to many buckets.

    This is the sorting key of QD ranking (Algorithm 1): the whole bucket
    list is scored in one ``(B, m) @ (m,)`` product.
    """
    costs = np.asarray(flip_costs, dtype=np.float64)
    m = validate_code_length(len(costs))
    sigs = np.asarray(bucket_signatures, dtype=np.int64)
    differing = unpack_bits(sigs ^ np.int64(query_signature), m)
    return differing.astype(np.float64) @ costs


def batch_quantization_distances(
    query_bits: np.ndarray,
    cost_matrix: np.ndarray,
    bucket_bits: np.ndarray,
    bucket_complement: np.ndarray | None = None,
) -> np.ndarray:
    """QD from every query in a batch to every bucket, two matmuls total.

    For query ``q`` and bucket ``b``, ``qd = Σ_i (c_i(q) ⊕ b_i)·cost_i(q)``
    splits by the query's bit value: bits where the query has 0 cost when
    the bucket has 1, and vice versa.  Each half is a ``(B, m) @ (m, nb)``
    product, so the whole batch is scored in one shot — the vectorised
    counterpart of calling :func:`quantization_distances` per query.

    Callers that score one table many times pass ``bucket_bits`` as
    float64 together with ``bucket_complement`` (``1 − bucket_bits``),
    both C-contiguous ``(nb, m)``; neither is then converted or
    recomputed, and the result is bit-identical to passing the bits
    alone.
    """
    qb = np.asarray(query_bits, dtype=np.float64)
    costs = np.asarray(cost_matrix, dtype=np.float64)
    bits = np.asarray(bucket_bits, dtype=np.float64)
    if bucket_complement is None:
        bucket_complement = 1.0 - bits
    return (costs * (1.0 - qb)) @ bits.T + (costs * qb) @ bucket_complement.T


def theorem2_mu(hashing_matrix: np.ndarray) -> float:
    """The Theorem 2 scaling factor ``µ = 1/(σ_max(H)·√m)``."""
    h = np.asarray(hashing_matrix, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("hashing matrix must be 2-D (m, d)")
    m = h.shape[0]
    sigma_max = float(np.linalg.norm(h, ord=2))
    if sigma_max <= 0:
        raise ValueError("hashing matrix must be non-zero")
    return 1.0 / (sigma_max * np.sqrt(m))


def distance_lower_bound(
    qd: float | np.ndarray, mu: float
) -> float | np.ndarray:
    """Theorem 2 lower bound ``µ·dist(q, b)`` on ``‖o − q‖₂`` for o ∈ b.

    Useful as an early-stop rule: once every unprobed bucket's bound
    exceeds the current k-th nearest distance, probing can stop without
    losing exactness of the candidate ranking.
    """
    return mu * qd
