"""Serving-layer bench: the query-result cache under repeated queries.

One claim, measured on one synthetic GQR workload: under a skewed
(Zipfian) repeated-query stream — the shape of real serving traffic —
the query-result cache lifts throughput by at least 2x, because the
popular head of the distribution is answered from the LRU instead of
re-probed.  Cached answers must be bit-identical to uncached ones
(ids and distances, checked with ``np.array_equal``).

The JSON records the machine (available cores, Python and numpy
versions) next to the numbers.

Writes ``benchmarks/results/BENCH_cache.json``.
``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI and relaxes the
assertion bar; the committed JSON comes from a full local run.
"""

import json
import os
import platform
import time

import numpy as np

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.data.workloads import zipfian_stream
from repro.eval.reporting import format_table
from repro.hashing import ITQ
from repro.search import HashIndex, QueryResultCache
from repro_bench import RESULTS_DIR, save_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_POINTS = 4_000 if SMOKE else 60_000
N_DISTINCT = 64 if SMOKE else 512       # distinct queries in the pool
N_REQUESTS = 512 if SMOKE else 8_192    # total requests in the stream
ZIPF_EXPONENT = 1.1                     # rank-frequency skew of the stream
K = 10
BUDGET = 400 if SMOKE else 1_000

MIN_CACHE_SPEEDUP = 1.2 if SMOKE else 2.0


def available_cores() -> int:
    """Cores this process may actually run on, not cores in the box."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def throughput(index, queries, request_ids):
    start = time.perf_counter()
    for qi in request_ids:
        index.search(queries[qi], K, BUDGET)
    return len(request_ids) / (time.perf_counter() - start)


def test_cache(benchmark):
    data = gaussian_mixture(N_POINTS, 32, n_clusters=40,
                            cluster_spread=1.0, seed=0)
    queries = sample_queries(data, N_DISTINCT, seed=1)
    hasher = ITQ(code_length=10, seed=0)
    plain = HashIndex(hasher, data, prober=GQR())
    cached = HashIndex(
        hasher, data, prober=GQR(),
        cache=QueryResultCache(capacity=N_DISTINCT, name="bench"),
    )
    stream = zipfian_stream(
        N_DISTINCT, N_REQUESTS, exponent=ZIPF_EXPONENT, seed=2
    )

    # Warm both paths before timing, including the cache's first misses.
    warm = stream[:32]
    throughput(plain, queries, warm)
    throughput(cached, queries, warm)

    measured = {}

    def run_all():
        measured["uncached_qps"] = throughput(plain, queries, stream)
        measured["cached_qps"] = throughput(cached, queries, stream)
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The cached stream must return exactly what the plain index does.
    bit_identical = True
    for qi in stream[:64]:
        a = plain.search(queries[qi], K, BUDGET)
        b = cached.search(queries[qi], K, BUDGET)
        bit_identical &= np.array_equal(a.ids, b.ids) and np.array_equal(
            a.distances, b.distances
        )

    cache_speedup = measured["cached_qps"] / measured["uncached_qps"]
    stats = cached.cache.stats
    hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])

    report = {
        "smoke": SMOKE,
        "machine": {
            "cpu_count": os.cpu_count(),
            "available_cores": available_cores(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "n_points": N_POINTS,
        "n_distinct_queries": N_DISTINCT,
        "n_requests": N_REQUESTS,
        "zipf_exponent": ZIPF_EXPONENT,
        "k": K,
        "budget": BUDGET,
        "uncached_qps": measured["uncached_qps"],
        "cached_qps": measured["cached_qps"],
        "cache_speedup": cache_speedup,
        "min_cache_speedup": MIN_CACHE_SPEEDUP,
        "cache_hit_rate": hit_rate,
        "cache_stats": stats,
        "results_bit_identical": bit_identical,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_cache.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    rows = [
        ["uncached", f"{measured['uncached_qps']:.0f}", "-"],
        ["cached", f"{measured['cached_qps']:.0f}",
         f"{cache_speedup:.2f}x"],
    ]
    save_report(
        "cache",
        f"Zipf(s={ZIPF_EXPONENT}) stream of {N_REQUESTS} requests over "
        f"{N_DISTINCT} distinct queries (hit rate "
        f"{hit_rate * 100:.0f}%):\n"
        + format_table(["mode", "qps", "speedup"], rows),
    )

    assert bit_identical
    assert cache_speedup >= MIN_CACHE_SPEEDUP
