"""Extension bench: GQR generality over every learner the figures use.

Section 6.4 demonstrates GQR with ITQ, PCAH and SH; this bench repeats
that comparison and adds KMH (codeword flip costs), asserting the
generality claim across all four: on the same hash functions, GQR's
recall at a fixed candidate budget never loses to GHR.
"""

from repro.core.gqr import GQR
from repro.eval.harness import recall_at_budgets
from repro.eval.reporting import format_table
from repro.hashing import ITQ, KMeansHashing, PCAHashing, SpectralHashing
from repro.probing import GenerateHammingRanking
from repro.search.searcher import HashIndex
from repro_bench import K, save_report, workload

DATASET = "GIST1M"
BUDGET_POINTS = [200, 800]


def build_hashers(m):
    return {
        "ITQ": ITQ(code_length=m, seed=0),
        "PCAH": PCAHashing(code_length=m),
        "SH": SpectralHashing(code_length=m),
        "KMH": KMeansHashing(
            code_length=max(4, m - m % 4), bits_per_subspace=4,
            kmeans_iterations=15, seed=0,
        ),
    }


def test_extended_generality(benchmark):
    dataset, truth = workload(DATASET)
    data = dataset.data
    queries = dataset.queries[:60]
    truth = truth[:60]
    m = dataset.code_length

    results = {}

    def run_all():
        for label, hasher in build_hashers(m).items():
            hasher.fit(data)
            gqr = recall_at_budgets(
                HashIndex(hasher, data, prober=GQR()),
                queries, truth, BUDGET_POINTS,
            )
            ghr = recall_at_budgets(
                HashIndex(hasher, data, prober=GenerateHammingRanking()),
                queries, truth, BUDGET_POINTS,
            )
            results[label] = (gqr, ghr)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, (gqr, ghr) in results.items():
        for i, budget in enumerate(BUDGET_POINTS):
            rows.append(
                [label, budget, round(gqr[i], 4), round(ghr[i], 4),
                 round(gqr[i] - ghr[i], 4)]
            )
    save_report(
        "extended_generality",
        f"{DATASET}, recall@{K} at item budgets, every hasher:\n"
        + format_table(["hasher", "# items", "GQR", "GHR", "gap"], rows),
    )

    # The generality claim: GQR >= GHR on every hasher at every budget.
    for label, (gqr, ghr) in results.items():
        for g, h in zip(gqr, ghr):
            assert g >= h - 0.02, label
