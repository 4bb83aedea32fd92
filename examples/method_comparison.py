"""Grand tour: every hasher x every querying method on one dataset.

Shows the package's full surface — four L2H algorithms (ITQ, PCAH, SH,
KMH), LSH, the OPQ+IMI vector-quantization pipeline, and four querying
methods — on a single workload, reporting recall at a fixed candidate
budget.  Reproduces the paper's generality claim (Section 6.4) in one
table.

Run:  python examples/method_comparison.py
"""

import numpy as np

from repro import (
    GQR,
    ITQ,
    GenerateHammingRanking,
    HammingRanking,
    HashIndex,
    IMISearchIndex,
    KMeansHashing,
    OptimizedProductQuantizer,
    PCAHashing,
    QDRanking,
    RandomProjectionLSH,
    SpectralHashing,
)
from repro.data import gaussian_mixture, ground_truth_knn, sample_queries
from repro.eval import format_table

K = 20
BUDGET = 300


def mean_recall(index, queries, truth):
    hits = 0
    for query, truth_row in zip(queries, truth):
        result = index.search(query, k=K, n_candidates=BUDGET)
        hits += len(np.intersect1d(result.ids, truth_row))
    return hits / (K * len(queries))


def main() -> None:
    data = gaussian_mixture(8_000, 48, n_clusters=32,
                            cluster_spread=1.0, seed=5)
    queries = sample_queries(data, 60, perturbation=0.1, seed=6)
    truth = ground_truth_knn(queries, data, K)
    m = 10  # log2(8000 / 10) ≈ 9.6

    print(f"dataset: {data.shape}, m = {m}, k = {K}, budget = {BUDGET}\n")

    hashers = {
        "ITQ": ITQ(code_length=m, seed=0),
        "PCAH": PCAHashing(code_length=m),
        "SH": SpectralHashing(code_length=m),
        "KMH": KMeansHashing(code_length=8, bits_per_subspace=4, seed=0),
        "LSH": RandomProjectionLSH(code_length=m, seed=0),
    }
    probers = {
        "HR": HammingRanking,
        "GHR": GenerateHammingRanking,
        "QR": QDRanking,
        "GQR": GQR,
    }

    rows = []
    for hasher_name, hasher in hashers.items():
        hasher.fit(data)
        row = [hasher_name]
        for prober_factory in probers.values():
            index = HashIndex(hasher, data, prober=prober_factory())
            row.append(f"{mean_recall(index, queries, truth):.3f}")
        rows.append(row)

    # The VQ comparator has its own querying method (IMI).
    opq = OptimizedProductQuantizer(
        n_subspaces=2, n_centroids=28, n_iterations=4, seed=0
    ).fit(data)
    rows.append(
        ["OPQ"] + ["-"] * 3
        + [f"{mean_recall(IMISearchIndex(opq, data), queries, truth):.3f}"]
    )

    print(format_table(
        ["hasher \\ prober"] + list(probers), rows,
    ))
    print("\n(OPQ row: recall under its native IMI probing, shown in the "
          "GQR column for comparison.)")
    print("Read down the GQR column: every L2H algorithm improves over "
          "its HR/GHR columns — the paper's generality claim.")


if __name__ == "__main__":
    main()
