"""Index substrates: binary codes, hash tables, exact-search baselines."""

from repro.index.codes import (
    MAX_CODE_LENGTH,
    hamming_distance,
    hamming_weight,
    pack_bits,
    unpack_bits,
    validate_code_length,
)
from repro.index.distance import (
    METRICS,
    angular_distances,
    cosine_distances,
    knn_exact,
    pairwise_distances,
)
from repro.index.dynamic import DynamicHashTable
from repro.index.hash_table import HashTable
from repro.index.linear_scan import LinearScan, euclidean_distances, knn_linear_scan
from repro.index.mih import MultiIndexHashing

__all__ = [
    "MAX_CODE_LENGTH",
    "METRICS",
    "DynamicHashTable",
    "HashTable",
    "LinearScan",
    "MultiIndexHashing",
    "angular_distances",
    "cosine_distances",
    "euclidean_distances",
    "hamming_distance",
    "hamming_weight",
    "knn_exact",
    "knn_linear_scan",
    "pack_bits",
    "pairwise_distances",
    "unpack_bits",
    "validate_code_length",
]
