"""Figure 17: PCAH + GQR versus PCAH + GHR versus OPQ + IMI.

Paper: with Hamming ranking there is a large gap between PCAH and the
state-of-the-art vector-quantization pipeline (OPQ + inverted
multi-index); switching PCAH's querying method to GQR closes it —
"a simple querying method produces performance gain equivalent to
advanced learning algorithms".  (SIFT1M replaces SIFT10M as in the
paper, where OPQ ran out of memory.)
"""

from repro_bench import run_exhibit


def test_fig17_pcah_gqr_vs_opq_imi(benchmark):
    results = run_exhibit(benchmark, "fig17")

    # NOTE on the expected shape: our synthetic stand-ins are Gaussian
    # mixtures — the best case for k-means codebooks — so OPQ+IMI is
    # stronger here than on the paper's real descriptors.  The paper's
    # transferable claim is that switching PCAH's querying method from
    # GHR to GQR closes most of the gap to the VQ state of the art; we
    # assert that directly (see EXPERIMENTS.md for the discussion).
    for name, (budgets, series) in results.items():
        mid = len(budgets) // 2
        ghr = series["PCAH+GHR"][mid]
        gqr = series["PCAH+GQR"][mid]
        opq = series["OPQ+IMI"][mid]
        assert gqr >= ghr - 0.02, name
        if opq > ghr + 0.02:
            gap_closed = (gqr - ghr) / (opq - ghr)
            assert gap_closed >= 0.4, (name, gap_closed)
        # By the second-to-last budget PCAH+GQR is within 8 recall
        # points of OPQ+IMI ("comparable").
        assert series["PCAH+GQR"][-2] >= series["OPQ+IMI"][-2] - 0.08, name
