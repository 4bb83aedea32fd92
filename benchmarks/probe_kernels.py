"""Probe-kernel crossover: GQR's heap, the scored row, the streams path.

Two kernels give the same probe order over occupied buckets:

* GQR's generation heap (``GQR.probe_scored``), one bucket at a time,
  empty buckets included;
* one QD score row per query over every occupied bucket
  (``GQR.batch_scores`` on the index's cached bucket bits), then a
  partitioned prefix of it.  The Theorem 2 scan and the ordered batch
  path rank from the certified generation-tree prefix
  (``repro.core.tree_prefix``) and run this score row only for the
  rows the prefix leaves uncertified.

Part 1 times the first N occupied buckets of one query both ways, by
depth.  Part 2 times ``search_batch`` (the ordered path) against the
streams path (per-query heap streams through
``QueryEngine.execute_batch_streams``) by batch size, at bulk-recall's
candidate budget.  Both parts use bulk-recall's index
(``perfbench/inputs.py``: 200k x 64, ITQ with 14 bits) and report the
best of five repetitions in ms per query.  Run from the repository
root (about a minute):

    PYTHONPATH=src:. python benchmarks/probe_kernels.py
"""

from __future__ import annotations

import os
import platform
import time
from collections.abc import Callable
from itertools import islice

import numpy as np

from perfbench import inputs
from repro.core.gqr import GQR
from repro.hashing import ITQ
from repro.index.codes import unpack_bits
from repro.search.engine import _probe_order_prefix
from repro.search.searcher import HashIndex

DEPTHS = (35, 280, 1000)
BATCH_SIZES = (1, 2, 3, 4, 16, 64, 256)
N_QUERIES = 256
REPEATS = 5


def best_ms_per_query(run: Callable[[], object], n: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) / n * 1e3


def main() -> None:
    data = inputs.static_data()
    hasher = ITQ(inputs.static_code_length(), seed=inputs.hasher_seed())
    index = HashIndex(hasher, data, prober=GQR())
    queries = inputs.bulk_plan(1, 15, data).batch_queries[:N_QUERIES]
    table = index.tables[0]
    prober = GQR()
    signatures = table.dense_layout()[0]
    bits = unpack_bits(signatures, table.code_length).astype(np.float64)
    complement = 1.0 - bits
    infos = hasher.probe_info_batch(queries)
    print(
        f"cores={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"buckets={table.num_buckets}"
    )

    def heap(depth: int) -> None:
        for signature, costs in infos:
            occupied = (
                bucket
                for bucket, _ in prober.probe_scored(table, signature, costs)
                if bucket in table
            )
            for _ in islice(occupied, depth):
                pass

    def scored_row(depth: int) -> None:
        for signature, costs in infos:
            query = np.array([signature], dtype=np.int64)
            row = prober.batch_scores(
                signatures, bits, query,
                unpack_bits(query, table.code_length),
                costs[np.newaxis, :], complement,
            )
            _probe_order_prefix(row, signatures, depth)

    print("\n| N buckets | GQR heap | scored row + prefix |")
    print("|----------:|---------:|--------------------:|")
    for depth in DEPTHS:
        heap_ms = best_ms_per_query(lambda d=depth: heap(d), N_QUERIES)
        row_ms = best_ms_per_query(lambda d=depth: scored_row(d), N_QUERIES)
        print(f"| {depth} | {heap_ms:.3f} ms | {row_ms:.3f} ms |")

    plan = index.plan(inputs.K, inputs.BUDGET)

    def ordered(size: int) -> None:
        for lo in range(0, N_QUERIES, size):
            index.search_batch(queries[lo:lo + size], inputs.K, inputs.BUDGET)

    def streams(size: int) -> None:
        for lo in range(0, N_QUERIES, size):
            batch = queries[lo:lo + size]
            batch_infos = hasher.probe_info_batch(batch)
            index.engine.execute_batch_streams(batch, plan, [
                index.candidate_stream(query, [info])
                for query, info in zip(batch, batch_infos)
            ])

    print(f"\n| batch | ordered path | streams path | (budget {inputs.BUDGET})")
    print("|------:|-------------:|-------------:|")
    for size in BATCH_SIZES:
        ordered_ms = best_ms_per_query(lambda s=size: ordered(s), N_QUERIES)
        streams_ms = best_ms_per_query(lambda s=size: streams(s), N_QUERIES)
        print(f"| {size} | {ordered_ms:.3f} ms | {streams_ms:.3f} ms |")


if __name__ == "__main__":
    main()
