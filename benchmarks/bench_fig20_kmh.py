"""Figure 20 (appendix): GQR versus GHR on K-means hashing.

Paper: KMH quantizes with codewords rather than hyperplanes, so the
appendix defines the flipping cost of bit i as
d(q, c_q') − d(q, c_q); with those costs GQR outperforms GHR (hash
lookup, the original KMH paper's querying method) by a large margin.
SIFT10M is skipped as in the paper (KMH training ran out of memory
there); we use the remaining three stand-ins.
"""

from repro_bench import run_exhibit


def test_fig20_kmh_gqr_vs_ghr(benchmark):
    results = run_exhibit(benchmark, "fig20")

    for name, (_, series) in results.items():
        for g, h in zip(series["GQR"], series["GHR"]):
            assert g >= h - 0.02, name
