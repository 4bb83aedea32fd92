"""Figures 13-14: GQR versus GHR/HR with PCAH hash functions.

Paper: the same dominance pattern as with ITQ holds when the hash
functions come from plain PCA hashing — evidence that GQR is a general
querying method (Section 6.4).  Figure 14's time-at-recall table is
printed alongside.
"""

from bench_fig07_gqr_vs_hr import assert_gqr_dominates
from repro_bench import run_exhibit


def test_fig13_14_pcah(benchmark):
    assert_gqr_dominates(run_exhibit(benchmark, "fig13"))
