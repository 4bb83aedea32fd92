"""Ablation: lazy heap generation versus enumerate-and-sort per query.

GQR's generation tree exists so the next-best bucket costs O(log i)
instead of enumerating and sorting all 2^m flipping vectors.  This
ablation replaces the tree with the naive strategy (score every mask,
argsort, walk the order) and compares time at a small probe budget —
the regime the slow-start argument is about.
"""

import time

import numpy as np

from repro.core.generation_tree import FlippingVectorGenerator
from repro.core.quantization_distance import quantization_distances
from repro.eval.reporting import format_table
from repro_bench import CONTEXT, save_report

N_PROBES = 32
# Each side is timed as its best of this many runs: at reduced scale
# one run takes about 2 ms, within scheduler noise of the other side.
ROUNDS = 5


def naive_bucket_order(signature, costs, m):
    """Enumerate all 2^m buckets, score, sort — what GQR avoids."""
    buckets = np.arange(1 << m, dtype=np.int64)
    qds = quantization_distances(signature, buckets, costs)
    order = np.argsort(qds, kind="stable")
    return buckets[order]


def lazy_bucket_order(signature, costs, n_probes):
    permutation = np.argsort(costs, kind="stable")
    sorted_costs = costs[permutation]
    bit_map = [1 << int(p) for p in permutation]
    out = []
    for mask, _ in FlippingVectorGenerator(sorted_costs):
        flip = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            flip ^= bit_map[low.bit_length() - 1]
            remaining ^= low
        out.append(signature ^ flip)
        if len(out) >= n_probes:
            break
    return out


def test_ablation_lazy_generation_vs_full_sort(benchmark):
    dataset, _ = CONTEXT.workload("SIFT10M")
    hasher = CONTEXT.hasher("SIFT10M", "itq")
    m = dataset.code_length
    probe_infos = [hasher.probe_info(q) for q in dataset.queries]

    def run_lazy():
        for signature, costs in probe_infos:
            lazy_bucket_order(signature, costs, N_PROBES)

    def run_naive():
        for signature, costs in probe_infos:
            naive_bucket_order(signature, costs, m)[:N_PROBES]

    lazy_time = benchmark.pedantic(
        lambda: _best_of(run_lazy), rounds=1, iterations=1
    )
    naive_time = _best_of(run_naive)

    # Same probe order (up to exact-QD ties).
    signature, costs = probe_infos[0]
    lazy = lazy_bucket_order(signature, costs, N_PROBES)
    naive = naive_bucket_order(signature, costs, m)[:N_PROBES]
    lazy_qd = quantization_distances(signature, np.asarray(lazy), costs)
    naive_qd = quantization_distances(signature, np.asarray(naive), costs)
    assert np.allclose(lazy_qd, naive_qd)

    save_report(
        "ablation_generation",
        format_table(
            ["strategy", f"seconds, best of {ROUNDS} "
             f"({len(probe_infos)} queries, {N_PROBES} probes)"],
            [["lazy heap (GQR)", round(lazy_time, 4)],
             ["enumerate+sort 2^m", round(naive_time, 4)]],
        ),
    )

    # At a small budget the lazy generator must win: it touches tens of
    # masks instead of 2^m.
    assert lazy_time < naive_time


def _best_of(fn):
    return min(_timed(fn) for _ in range(ROUNDS))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
