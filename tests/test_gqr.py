"""Tests for generate-to-probe QD ranking (Algorithms 2-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation_tree import SharedGenerationTree
from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.core.quantization_distance import quantization_distances
from repro.index import HashTable
from repro.index.codes import unpack_bits
from repro.search.searcher import HashIndex


@pytest.fixture()
def probe_inputs(fitted_itq, small_data):
    query = small_data[23]
    signature, costs = fitted_itq.probe_info(query)
    return signature, costs


class TestGQR:
    def test_generates_full_code_space_once(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        buckets = list(GQR().probe(small_table, signature, costs))
        assert sorted(buckets) == list(range(1 << 8))

    def test_first_bucket_is_query_code(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        assert next(GQR().probe(small_table, signature, costs)) == signature

    def test_qd_stream_non_decreasing(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        qds = [qd for _, qd in GQR().probe_scored(small_table, signature, costs)]
        assert all(b >= a - 1e-12 for a, b in zip(qds, qds[1:]))

    def test_scored_qd_matches_definition(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        pairs = list(GQR().probe_scored(small_table, signature, costs))
        buckets = np.asarray([b for b, _ in pairs])
        expected = quantization_distances(signature, buckets, costs)
        assert np.allclose([qd for _, qd in pairs], expected)

    def test_equivalent_to_qd_ranking(self, small_table, probe_inputs):
        """R2: GQR is QD ranking in semantics — same occupied-bucket
        order up to exact-QD ties."""
        signature, costs = probe_inputs
        qr_order = list(QDRanking().probe(small_table, signature, costs))
        gqr_order = [
            b for b in GQR().probe(small_table, signature, costs)
            if b in small_table
        ]
        qr_qds = quantization_distances(signature, np.asarray(qr_order), costs)
        gqr_qds = quantization_distances(signature, np.asarray(gqr_order), costs)
        assert np.allclose(qr_qds, gqr_qds)
        assert sorted(qr_order) == sorted(gqr_order)

    def test_collect_matches_qr_candidates(self, fitted_itq, small_data):
        """Same candidate sets at any budget (modulo QD ties)."""
        gqr = HashIndex(fitted_itq, small_data, prober=GQR())
        qr = HashIndex(fitted_itq, small_data, prober=QDRanking())
        # k = every item: each search returns its whole candidate set.
        n = len(small_data)
        for qi in (5, 50, 500):
            gqr_ids = set(
                gqr.search(small_data[qi], k=n, n_candidates=150).ids.tolist()
            )
            qr_ids = set(
                qr.search(small_data[qi], k=n, n_candidates=150).ids.tolist()
            )
            # Tie-broken orders may swap equal-QD buckets at the margin;
            # the overwhelming majority of candidates must coincide.
            assert len(gqr_ids & qr_ids) / len(gqr_ids | qr_ids) > 0.9

    def test_flip_cost_length_validated(self, small_table):
        with pytest.raises(ValueError):
            list(GQR().probe(small_table, 0, np.zeros(5)))

    def test_shared_tree_same_order(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        plain = list(GQR().probe(small_table, signature, costs))
        tree = SharedGenerationTree(code_length=8)
        shared = list(GQR(shared_tree=tree).probe(small_table, signature, costs))
        assert plain == shared

    def test_shared_tree_code_length_mismatch(self, small_table, probe_inputs):
        signature, costs = probe_inputs
        tree = SharedGenerationTree(code_length=9)
        with pytest.raises(ValueError):
            list(GQR(shared_tree=tree).probe(small_table, signature, costs))

    def test_zero_costs_fine(self, small_table):
        buckets = list(GQR().probe(small_table, 0, np.zeros(8)))
        assert sorted(buckets) == list(range(256))


@settings(max_examples=150, deadline=None)
@given(
    code_length=st.integers(1, 10),
    n_items=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
)
def test_probe_scored_follows_batch_score_order(
    code_length, n_items, seed, shared
):
    """Over occupied buckets, GQR's heap yields ascending
    ``(batch_scores, signature)`` — the order the batched path and the
    Theorem 2 scan sort by instead of walking the heap.

    Costs come from a seeded generator: continuous draws leave no exact
    or ulp-level QD ties, whose order neither kernel defines.
    """
    rng = np.random.default_rng(seed)
    table = HashTable(
        rng.integers(0, 1 << code_length, n_items), code_length=code_length
    )
    signature = int(rng.integers(0, 1 << code_length))
    costs = rng.exponential(size=code_length)
    buckets = table.dense_layout()[0]
    bits = unpack_bits(buckets, code_length).astype(np.float64)
    query = np.array([signature], dtype=np.int64)
    scores = GQR().batch_scores(
        buckets, bits, query, unpack_bits(query, code_length),
        costs[np.newaxis, :], 1.0 - bits,
    )[0]
    expected = buckets[np.lexsort((buckets, scores))]
    tree = SharedGenerationTree(code_length) if shared else None
    walked = [
        bucket
        for bucket, _ in GQR(shared_tree=tree).probe_scored(
            table, signature, costs
        )
        if bucket in table
    ]
    assert walked == expected.tolist()
