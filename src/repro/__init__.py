"""repro — reproduction of *A General and Efficient Querying Method for
Learning to Hash* (Li et al., SIGMOD 2018).

The package implements the paper's contribution — quantization-distance
(QD) ranking and its generate-to-probe variant GQR — together with every
substrate the evaluation depends on: L2H hash learners (ITQ, PCAH, SH,
KMH, LSH), Hamming-based querying baselines (HR, GHR, MIH), the
vector-quantization comparator stack (k-means, PQ, OPQ, IMI), synthetic
datasets, and a recall-time experiment harness.

Quickstart::

    from repro import ITQ, GQR, HashIndex
    from repro.data import gaussian_mixture

    data = gaussian_mixture(10_000, 64, seed=0)
    index = HashIndex(ITQ(code_length=10, seed=0), data, prober=GQR())
    result = index.search(data[0], k=10, n_candidates=500)
    print(result.ids, result.distances)
"""

from repro import obs
from repro.core import (
    GQR,
    BucketProber,
    FlippingVectorGenerator,
    QDRanking,
    SharedGenerationTree,
    quantization_distance,
    quantization_distances,
    theorem2_mu,
)
from repro.hashing import (
    ITQ,
    BinaryHasher,
    KMeansHashing,
    PCAHashing,
    RandomProjectionLSH,
    SpectralHashing,
)
from repro.index import (
    HashTable,
    LinearScan,
    MultiIndexHashing,
)
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.quantization import (
    InvertedMultiIndex,
    KMeans,
    OptimizedProductQuantizer,
    ProductQuantizer,
)
from repro.search import (
    DynamicHashIndex,
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
    SearchResult,
)

__version__ = "1.0.0"

__all__ = [
    "GQR",
    "ITQ",
    "BinaryHasher",
    "BucketProber",
    "DynamicHashIndex",
    "FlippingVectorGenerator",
    "GenerateHammingRanking",
    "HammingRanking",
    "HashIndex",
    "HashTable",
    "IMISearchIndex",
    "InvertedMultiIndex",
    "KMeans",
    "KMeansHashing",
    "LinearScan",
    "MIHSearchIndex",
    "MultiIndexHashing",
    "OptimizedProductQuantizer",
    "PCAHashing",
    "ProductQuantizer",
    "QDRanking",
    "RandomProjectionLSH",
    "SearchResult",
    "obs",
    "SharedGenerationTree",
    "SpectralHashing",
    "quantization_distance",
    "quantization_distances",
    "theorem2_mu",
]
