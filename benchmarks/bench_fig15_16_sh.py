"""Figures 15-16: GQR versus GHR/HR with spectral hashing.

Paper: GQR's advantage persists under SH's *non-linear* projection —
the strongest generality test, since QD here is computed on sinusoid
eigenfunction values rather than hyperplane margins.
"""

from bench_fig07_gqr_vs_hr import assert_gqr_dominates
from repro_bench import run_exhibit


def test_fig15_16_sh(benchmark):
    assert_gqr_dominates(run_exhibit(benchmark, "fig15"))
