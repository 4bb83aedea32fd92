"""Differential tests: the chunked Theorem 2 scan against per-bucket loops.

``HashIndex.search_early_stop`` and ``HashIndex.search_range`` rank the
occupied buckets from one vectorised QD score row, take them in chunks
and score each chunk with one distance call.  The reference loops below
walk GQR's generation heap one non-empty bucket at a time — the simple
path the scan replaced — and every test requires the two to agree
exactly: the same ids and distances, the same ``n_candidates`` and
``n_buckets_probed`` (non-empty buckets), and the same
``early_stop_triggered`` (False once every occupied bucket is probed).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gqr import GQR
from repro.core.quantization_distance import theorem2_mu
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.index.linear_scan import knn_linear_scan
from repro.search import engine, searcher
from repro.search.engine import ExactEvaluator
from repro.search.searcher import HashIndex

N_ITEMS = 600


@lru_cache(maxsize=None)
def _index(code_length: int, tight: bool) -> tuple[HashIndex, ITQ]:
    data = gaussian_mixture(
        N_ITEMS, 12, n_clusters=20,
        cluster_spread=0.25 if tight else 1.0, seed=code_length,
    )
    hasher = ITQ(code_length=code_length, seed=0)
    return HashIndex(hasher, data, prober=GQR()), hasher


def _probe(index: HashIndex, hasher: ITQ, query: np.ndarray):
    """Yield ``(µ·qd, bucket ids)`` of non-empty buckets in GQR order."""
    table = index.tables[0]
    mu = theorem2_mu(hasher.hashing_matrix)
    signature, costs = hasher.probe_info(query)
    for bucket, qd in index.prober.probe_scored(table, signature, costs):
        ids = table.get(bucket)
        if len(ids):
            yield mu * qd, ids


def reference_early_stop(index, hasher, query, k, max_candidates=None):
    """The per-bucket Theorem 2 kNN loop: sort a list on every bucket."""
    exact = ExactEvaluator(index.data)
    if max_candidates is None:
        max_candidates = index.num_items
    n_candidates = n_buckets = 0
    triggered = False
    kth_distance = np.inf
    best: list[tuple[float, int]] = []
    for bound, ids in _probe(index, hasher, query):
        if bound > kth_distance:
            triggered = True
            break
        n_buckets += 1
        if not len(ids):
            continue
        n_candidates += len(ids)
        dists = exact.distances(query, ids)
        best.extend((float(d), int(i)) for i, d in zip(ids, dists))
        best.sort()
        del best[k:]
        if len(best) == k:
            kth_distance = best[-1][0]
        if n_candidates >= max_candidates:
            break
    return (
        np.asarray([i for _, i in best], dtype=np.int64),
        np.asarray([d for d, _ in best], dtype=np.float64),
        n_candidates, n_buckets, triggered,
    )


def reference_range(index, hasher, query, radius):
    """The per-bucket Theorem 2 range loop."""
    exact = ExactEvaluator(index.data)
    n_candidates = n_buckets = 0
    triggered = False
    hits: list[tuple[float, int]] = []
    for bound, ids in _probe(index, hasher, query):
        if bound > radius:
            triggered = True
            break
        n_buckets += 1
        if not len(ids):
            continue
        n_candidates += len(ids)
        dists = exact.distances(query, ids)
        hits.extend(
            (float(d), int(i)) for i, d in zip(ids, dists) if d <= radius
        )
    hits.sort()
    return (
        np.asarray([i for _, i in hits], dtype=np.int64),
        np.asarray([d for d, _ in hits], dtype=np.float64),
        n_candidates, n_buckets, triggered,
    )


def assert_same(result, expected) -> None:
    ids, dists, n_candidates, n_buckets, triggered = expected
    assert np.array_equal(result.ids, ids)
    assert np.array_equal(result.distances, dists)
    assert result.n_candidates == n_candidates
    assert result.n_buckets_probed == n_buckets
    assert result.stats.early_stop_triggered == triggered


def _query(index: HashIndex, row: int, noise: float) -> np.ndarray:
    rng = np.random.default_rng(row)
    point = index.data[row % index.num_items]
    return point + noise * rng.standard_normal(point.shape)


def _cap(kind: str, index: HashIndex, hasher: ITQ, query: np.ndarray):
    """``max_candidates`` of one kind, sized from the query's buckets."""
    if kind == "none":
        return None
    if kind == "all":
        return index.num_items + 1
    sizes = [len(ids) for _, ids in _probe(index, hasher, query) if len(ids)]
    if kind == "below_one_bucket":
        return max(1, sizes[0] - 1)
    return int(np.cumsum(sizes)[len(sizes) // 2])  # "mid"


@settings(max_examples=80, deadline=None)
@given(
    code_length=st.integers(4, 10),
    tight=st.booleans(),
    k=st.integers(1, 20),
    cap=st.sampled_from(["none", "below_one_bucket", "mid", "all"]),
    row=st.integers(0, N_ITEMS - 1),
    noise=st.sampled_from([0.0, 0.02, 0.3]),
)
def test_early_stop_matches_per_bucket_loop(
    code_length, tight, k, cap, row, noise
):
    index, hasher = _index(code_length, tight)
    query = _query(index, row, noise)
    max_candidates = _cap(cap, index, hasher, query)
    result = index.search_early_stop(query, k, max_candidates)
    expected = reference_early_stop(index, hasher, query, k, max_candidates)
    assert_same(result, expected)
    if result.stats.early_stop_triggered:
        truth, _ = knn_linear_scan(query[np.newaxis, :], index.data, k)
        assert np.array_equal(np.sort(result.ids), np.sort(truth[0]))


@settings(max_examples=60, deadline=None)
@given(
    code_length=st.integers(4, 10),
    tight=st.booleans(),
    row=st.integers(0, N_ITEMS - 1),
    quantile=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
)
def test_range_matches_per_bucket_loop(code_length, tight, row, quantile):
    index, hasher = _index(code_length, tight)
    query = _query(index, row, 0.02)
    dists = np.linalg.norm(index.data - query, axis=1)
    radius = float(np.quantile(dists, quantile))
    result = index.search_range(query, radius)
    assert_same(result, reference_range(index, hasher, query, radius))


class TestChunkEdges:
    def test_bound_fires_in_tight_regime(self):
        index, hasher = _index(10, True)
        fired = 0
        for row in range(0, N_ITEMS, 60):
            query = _query(index, row, 0.02)
            result = index.search_early_stop(query, 5)
            assert_same(result, reference_early_stop(index, hasher, query, 5))
            fired += result.stats.early_stop_triggered
        assert fired > 0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bucket_exactly_reaching_chunk_target(self, monkeypatch, offset):
        index, hasher = _index(8, True)
        query = _query(index, 7, 0.02)
        sizes = [
            len(ids) for _, ids in _probe(index, hasher, query) if len(ids)
        ]
        # First chunks that end exactly on, just before and just after
        # each of the first bucket boundaries.
        for boundary in np.cumsum(sizes)[:6]:
            target = max(1, int(boundary) + offset)
            monkeypatch.setattr(searcher, "_FIRST_CHUNK", target)
            for k in (1, 5, 40):
                assert_same(
                    index.search_early_stop(query, k),
                    reference_early_stop(index, hasher, query, k),
                )
            assert_same(
                index.search_range(query, 1.0),
                reference_range(index, hasher, query, 1.0),
            )

    def test_exhausted_generator_and_k_above_n(self):
        index, hasher = _index(4, False)
        query = _query(index, 3, 0.3)
        k = N_ITEMS + 5
        cap = N_ITEMS + 1
        result = index.search_early_stop(query, k, cap)
        assert_same(result, reference_early_stop(index, hasher, query, k, cap))
        assert result.n_buckets_probed == 2**4  # every bucket, none pruned
        assert len(result.ids) == N_ITEMS
        result = index.search_range(query, 1e9)
        assert_same(result, reference_range(index, hasher, query, 1e9))
        assert result.n_buckets_probed == 2**4

    def test_prefix_widens_past_small_buckets(self, monkeypatch):
        # Two rows stored 1,000 times each make the mean bucket large,
        # so a query among the one-item buckets exhausts its first
        # probe-order prefix before the cap and the prefix widens.
        rng = np.random.default_rng(3)
        sparse = rng.standard_normal((400, 12))
        data = np.vstack([np.repeat(sparse[:2], 1000, axis=0), sparse])
        hasher = ITQ(code_length=10, seed=0)
        index = HashIndex(hasher, data, prober=GQR())
        widths: list[int] = []
        order_prefix = engine._probe_order_prefix

        def spy(row, signatures, width):
            widths.append(width)
            return order_prefix(row, signatures, width)

        monkeypatch.setattr(engine, "_probe_order_prefix", spy)
        widened = 0
        for row in range(2, 40):
            for cap in (50, 100):
                widths.clear()
                assert_same(
                    index.search_early_stop(sparse[row], 5, cap),
                    reference_early_stop(index, hasher, sparse[row], 5, cap),
                )
                widened += len(widths) > 1
        assert widened > 0

    def test_empty_buckets_are_not_counted(self):
        index, hasher = _index(10, False)
        query = _query(index, 11, 0.3)
        result = index.search_early_stop(query, 20)
        assert_same(result, reference_early_stop(index, hasher, query, 20))
        # 600 items cannot fill 1024 buckets: the heap's walk to the
        # last probed bucket passes empty ones, and only the non-empty
        # buckets whose items were gathered are counted.
        table = index.tables[0]
        signature, costs = hasher.probe_info(query)
        walked, gathered = 0, []
        for bucket in index.prober.probe(table, signature, costs):
            walked += 1
            if bucket in table:
                gathered.append(len(table.get(bucket)))
            if sum(gathered) == result.n_candidates:
                break
        assert result.n_buckets_probed == len(gathered)
        assert walked > len(gathered)
