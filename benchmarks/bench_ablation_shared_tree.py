"""Ablation: shared precomputed generation tree versus per-query tree.

The paper's closing optimisation: the Append/Swap tree's shape is
query-independent, so child masks can be computed once and reused by
all queries.  We compare GQR with and without a shared tree over the
query batch and assert identical probe output.
"""

import time

from repro.core.generation_tree import SharedGenerationTree
from repro.core.gqr import GQR
from repro.eval.reporting import format_table
from repro.index.hash_table import HashTable
from repro_bench import CONTEXT, save_report

N_PROBES = 256


def _drain(prober, table, probe_infos):
    out = 0
    for signature, costs in probe_infos:
        for i, _ in enumerate(prober.probe(table, signature, costs)):
            out += 1
            if i + 1 >= N_PROBES:
                break
    return out


def test_ablation_shared_generation_tree(benchmark):
    dataset, _ = CONTEXT.workload("SIFT10M")
    hasher = CONTEXT.hasher("SIFT10M", "itq")
    table = HashTable(hasher.encode(dataset.data))
    probe_infos = [hasher.probe_info(q) for q in dataset.queries]

    shared_tree = SharedGenerationTree(dataset.code_length)
    shared = GQR(shared_tree=shared_tree)
    plain = GQR()

    # Warm the cache once so the measurement reflects steady state.
    _drain(shared, table, probe_infos[:5])

    def timed(prober):
        start = time.perf_counter()
        _drain(prober, table, probe_infos)
        return time.perf_counter() - start

    shared_time = benchmark.pedantic(
        lambda: timed(shared), rounds=1, iterations=1
    )
    plain_time = timed(plain)

    # Identical probe streams.
    signature, costs = probe_infos[0]
    a = list(plain.probe(table, signature, costs))[:N_PROBES]
    b = list(shared.probe(table, signature, costs))[:N_PROBES]
    assert a == b

    save_report(
        "ablation_shared_tree",
        format_table(
            ["variant", "seconds", "cached nodes"],
            [
                ["per-query tree", round(plain_time, 4), 0],
                ["shared tree", round(shared_time, 4),
                 shared_tree.num_cached_nodes],
            ],
        ),
    )

    # The shared tree must not be a pessimisation (in Python the win is
    # modest; correctness-identical output is the hard requirement).
    assert shared_time <= plain_time * 1.5
