"""Figure 2: number of buckets versus Hamming distance.

Paper: with code length m = 20, the count of buckets at Hamming distance
r from a query is C(m, r) — thousands of indistinguishable buckets even
at moderate r, the coarse-grain problem motivating QD.  We print the
C(20, r) series the figure plots plus the *occupied*-bucket histogram of
a real table, and benchmark ring enumeration.
"""

from repro_bench import run_exhibit


def test_fig02_buckets_per_hamming_ring(benchmark):
    counts = run_exhibit(benchmark, "fig02")
    theoretical = counts.theoretical
    assert counts.enumerated == sum(theoretical[:6])

    # The figure's point: the ring population explodes combinatorially.
    assert theoretical[10] == 184756
    assert max(theoretical) > 1000 * theoretical[1]
