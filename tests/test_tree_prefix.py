"""The certified generation-tree prefix (``repro.core.tree_prefix``).

* (a) For every code length up to 12, the down-set ``D`` is closed
  under tree parents, and every mask outside it has an ancestor in the
  frontier ``F`` (exhaustively).
* (b) On continuous costs, over static tables and over dynamic layouts
  with size-0 slots, every row :meth:`TreePrefix.rank` certifies has the
  probe order, stop and cumulative sizes of sorting the
  ``batch_scores`` row by ``(score, signature)`` (``_probe_prefix``).
* (c) With exact ties (zero, equal and integer costs) a certified row
  breaks them by signature; a row whose ties it cannot settle stays
  uncertified.
* (d) The engine answers a row the certificate rejects from the score
  row, bit for bit, and ``search_batch`` answers every row as it does
  with no tree prefix at all.
* (e) The kernel: the bucket signatures of ``D`` are those of a
  per-mask reference for every code length a slot table serves, and a
  row ranked alone is ranked as in a block of 64.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gqr import GQR
from repro.core.tree_prefix import TreePrefix, cached_tree_prefix
from repro.hashing import ITQ
from repro.index.codes import MAX_SLOT_BITS, unpack_bits
from repro.index.dynamic import DynamicHashTable
from repro.index.hash_table import HashTable
from repro.search import HashIndex
from repro.search.engine import _bucket_scores, _probe_prefix, _ranked_prefixes


def _parent(mask: int) -> int:
    """Inverse of Append/Swap; mask 0 is the root's parent."""
    top = mask.bit_length() - 1
    if top == 0:
        return 0
    if mask >> (top - 1) & 1:
        return mask ^ (1 << top)  # Append set the top bit
    return mask ^ (1 << top) ^ (1 << (top - 1))  # Swap moved it up


# -- (a) tree structure --------------------------------------------------

@pytest.mark.parametrize("m", range(1, 13))
def test_down_set_is_parent_closed_and_frontier_covers_the_rest(m):
    for size in sorted({1, 2, 3, 7, 64, (1 << m) - 1, 1 << m, (1 << m) + 5}):
        prefix = TreePrefix(m, size)
        down = prefix.down_set.tolist()
        frontier = prefix.frontier.tolist()
        members, edge = set(down), set(frontier)
        assert len(members) == len(down) >= min(size, 1 << m)
        assert down[0] == 0
        assert not members & edge
        assert all(_parent(mask) in members for mask in down[1:])
        assert all(_parent(mask) in members for mask in frontier)
        for mask in range(1, 1 << m):
            if mask in members:
                continue
            walk = mask
            while walk not in edge:
                walk = _parent(walk)
                assert walk not in members
        if len(down) == 1 << m:
            assert not frontier


def test_outside_masks_cost_at_least_the_frontier_minimum():
    rng = np.random.default_rng(0)
    m = 10
    prefix = TreePrefix(m, 100)
    outside = np.setdiff1d(np.arange(1 << m), prefix.down_set)
    bits = unpack_bits(outside, m).astype(np.int64)
    frontier_bits = unpack_bits(prefix.frontier, m).astype(np.int64)
    for _ in range(20):
        costs = np.sort(rng.integers(0, 50, m))
        assert (bits @ costs).min() >= (frontier_bits @ costs).min()


# -- (b) differential against the score row ------------------------------

def _static(rng: np.random.Generator, m: int, n_items: int):
    signatures = rng.integers(0, 1 << m, n_items)
    return HashTable(signatures, code_length=m)


def _dynamic(rng: np.random.Generator, m: int, n_items: int):
    table = DynamicHashTable(m)
    table.add_batch(
        np.arange(n_items), unpack_bits(rng.integers(0, 1 << m, n_items), m)
    )
    # Emptied buckets keep their slots (size 0) until half are empty.
    gone = rng.choice(n_items, size=n_items // 3, replace=False)
    table.remove_batch(gone)
    return table.layout()


def _score_prefix(table, query_signatures, costs, budget):
    """``_probe_prefix`` over ``GQR.batch_scores``, with each row's stop."""
    signatures, sizes = table.dense_layout()[:2]
    scores = _bucket_scores(GQR(), table, query_signatures, costs)
    order, cumulative = _probe_prefix(scores, signatures, sizes, budget)
    stops = np.minimum((cumulative < budget).sum(axis=1), order.shape[1] - 1)
    return order, cumulative, np.take_along_axis(scores, order, 1), stops


def _assert_certified_rows_match(table, ranked, expected):
    order, cumulative, scores, stops = expected
    for row in np.flatnonzero(ranked.certified):
        stop = int(ranked.stops[row])
        assert stop == stops[row]
        assert np.array_equal(ranked.order[row, :stop + 1], order[row, :stop + 1])
        assert np.array_equal(
            ranked.cumulative[row, :stop + 1], cumulative[row, :stop + 1]
        )
        np.testing.assert_allclose(
            ranked.scores[row, :stop + 1], scores[row, :stop + 1], rtol=1e-12
        )


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 16),
    dynamic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 3000),
    size=st.integers(1, 1200),
    budget=st.integers(1, 400),
    spread=st.sampled_from(["uniform", "exponential", "skewed"]),
)
def test_certified_rows_match_score_row(
    m, dynamic, seed, n_items, size, budget, spread
):
    rng = np.random.default_rng(seed)
    table = (_dynamic if dynamic else _static)(rng, m, n_items)
    rows = 16
    query_signatures = rng.integers(0, 1 << m, rows)
    if spread == "uniform":
        costs = rng.random((rows, m))
    elif spread == "exponential":
        costs = rng.exponential(size=(rows, m))
    else:  # a few cheap bits and the rest far dearer
        costs = rng.random((rows, m)) * np.where(rng.random(m) < 0.3, 1e-3, 1e3)
    ranked = cached_tree_prefix(m, size).rank(
        query_signatures, costs, table.slot_table(),
        table.dense_layout()[1], budget,
    )
    expected = _score_prefix(table, query_signatures, costs, budget)
    _assert_certified_rows_match(table, ranked, expected)


def test_realistic_rows_are_certified():
    rng = np.random.default_rng(1)
    table = _static(rng, 12, 40_000)
    query_signatures = rng.integers(0, 1 << 12, 64)
    costs = np.abs(rng.standard_normal((64, 12)))
    budget = 100
    ranked = cached_tree_prefix(12, 128).rank(
        query_signatures, costs, table.slot_table(),
        table.dense_layout()[1], budget,
    )
    assert ranked.certified.mean() > 0.9
    _assert_certified_rows_match(
        table, ranked, _score_prefix(table, query_signatures, costs, budget)
    )


# -- (c) exact ties --------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["zero", "equal", "integer"]),
    size=st.integers(1, 600),
    budget=st.integers(1, 60),
)
def test_ties_break_by_signature_or_stay_uncertified(m, seed, kind, size, budget):
    rng = np.random.default_rng(seed)
    table = _static(rng, m, 400)
    rows = 16
    query_signatures = rng.integers(0, 1 << m, rows)
    if kind == "zero":
        costs = np.zeros((rows, m), dtype=np.int64)
    elif kind == "equal":
        costs = np.full((rows, m), 3, dtype=np.int64)
    else:
        costs = rng.integers(0, 4, (rows, m))
    signatures, sizes = table.dense_layout()[:2]
    ranked = cached_tree_prefix(m, size).rank(
        query_signatures, costs.astype(np.float64), table.slot_table(),
        sizes, budget,
    )
    if kind == "zero":
        assert not ranked.certified.any()
    for row in np.flatnonzero(ranked.certified):
        # Integer QDs are exact: the true order is (QD, signature).
        exact = unpack_bits(signatures ^ query_signatures[row], m) @ costs[row]
        truth = np.lexsort((signatures, exact))
        stop = int(ranked.stops[row])
        assert np.array_equal(ranked.order[row, :stop + 1], truth[:stop + 1])
        reached = np.cumsum(sizes[truth]) >= budget
        assert stop == int(np.argmax(reached))


def test_negative_or_nan_costs_stay_uncertified():
    # Property 2 needs non-negative costs; the generator refuses others.
    rng = np.random.default_rng(2)
    table = _static(rng, 8, 2000)
    costs = np.abs(rng.standard_normal((3, 8)))
    costs[1, 4] = -costs[1, 4]
    costs[2, 0] = np.nan
    ranked = cached_tree_prefix(8, 64).rank(
        rng.integers(0, 256, 3), costs, table.slot_table(),
        table.dense_layout()[1], 20,
    )
    assert ranked.certified.tolist() == [True, False, False]


# -- (d) the fallback ------------------------------------------------------

@pytest.fixture(scope="module")
def wide_index():
    # Unclustered items fill most of the 1,024 buckets, so a budget of
    # 120 ranks from a tree prefix far smaller than the table.
    data = np.random.default_rng(4).standard_normal((8000, 16))
    return HashIndex(ITQ(code_length=10, seed=0), data), data


def _mixed_queries(data: np.ndarray) -> np.ndarray:
    queries = data[:40] + 0.05
    # At the data mean every flip cost is 0: every QD ties, so the
    # certificate rejects these rows.
    queries[[3, 17, 30]] = data.mean(axis=0)
    return queries


def test_rejected_rows_get_the_score_row_answer(wide_index):
    index, data = wide_index
    table, budget = index.tables[0], 120
    infos = index._hashers[0].probe_info_batch(_mixed_queries(data))
    order, cumulative, scores, stops = _ranked_prefixes(
        index.prober, table, infos, budget
    )
    query_signatures = np.array([sig for sig, _ in infos], dtype=np.int64)
    costs = np.stack([c for _, c in infos])
    size = 256  # twice the prefix width of budget 120, a power of two
    certified = cached_tree_prefix(10, size).rank(
        query_signatures, costs, table.slot_table(),
        table.dense_layout()[1], budget,
    ).certified
    rejected = np.flatnonzero(~certified)
    assert set(rejected.tolist()) == {3, 17, 30}
    expected = _score_prefix(
        table, query_signatures[rejected], costs[rejected], budget
    )
    for i, row in enumerate(rejected):
        stop = int(stops[row])
        assert stop == expected[3][i]
        for got, want in zip((order, cumulative, scores), expected[:3]):
            assert got[row, :stop + 1].tobytes() == want[i, :stop + 1].tobytes()


class _ScoreRowGQR(GQR):
    """GQR ranked from score rows only: no tree prefix."""

    def tree_prefix(self, code_length, size):
        return None


def test_search_batch_matches_score_rows_only(wide_index):
    index, data = wide_index
    plain = HashIndex(
        ITQ(code_length=10, seed=0), data, prober=_ScoreRowGQR()
    )
    queries = _mixed_queries(data)
    for k, budget in ((5, 120), (10, 40), (3, 600)):
        got = index.search_batch(queries, k, budget)
        want = plain.search_batch(queries, k, budget)
        for a, b in zip(got, want, strict=True):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()
            assert a.n_candidates == b.n_candidates
            assert a.n_buckets_probed == b.n_buckets_probed
    for query in queries[:10]:
        a = index.search_early_stop(query, 5, 300)
        b = plain.search_early_stop(query, 5, 300)
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.n_candidates == b.n_candidates
        assert a.n_buckets_probed == b.n_buckets_probed
        assert a.stats.early_stop_triggered == b.stats.early_stop_triggered


# -- (e) the kernel --------------------------------------------------------

@pytest.mark.parametrize("m", range(1, MAX_SLOT_BITS + 1))
def test_down_set_signatures_match_a_per_mask_reference(m):
    rng = np.random.default_rng(m)
    prefix = TreePrefix(m, 200)
    costs = np.stack([
        rng.random(m),
        np.ones(m),  # every cost tied
        rng.integers(0, 3, m).astype(np.float64),  # ties among a few
        np.repeat(rng.random((m + 1) // 2), 2)[:m],  # tied pairs
    ])
    query_signatures = rng.integers(0, 1 << m, len(costs))
    # Every signature is its own slot of size 1, so each row ranks all
    # of D: its slots are D's signatures, each next to its QD.
    ranked = prefix._rank_rows(
        query_signatures, costs, np.arange(1 << m), np.ones(1 << m, int),
        budget=1, grow=1.0,
    )
    for row in range(len(costs)):
        # Sorted position x (a stable sort) flips bit ``flips[x]``.
        flips = sorted(range(m), key=costs[row].__getitem__)
        want = {}
        for mask in prefix.down_set.tolist():
            signature = int(query_signatures[row])
            qd = 0.0
            for x in range(m):
                if mask >> x & 1:
                    signature ^= 1 << flips[x]
                    qd += costs[row, flips[x]]
            want[signature] = qd
        got = ranked.order[row]
        assert sorted(got.tolist()) == sorted(want)
        np.testing.assert_allclose(
            ranked.scores[row], [want[s] for s in got.tolist()], rtol=1e-13
        )


@pytest.mark.parametrize(
    "m, size, budget", [(10, 100, 200), (13, 1024, 1200)]
)
@pytest.mark.parametrize("kind", ["integer", "continuous"])
def test_a_row_ranked_alone_is_its_row_of_a_block(m, size, budget, kind):
    """``(10, 100)`` ranks in one stage and ``(13, 1024)`` on a lead
    first, its budget past the lead for some rows.  Integer costs make
    every QD exact, so all five fields match bit for bit; on continuous
    costs the one-row and 64-row products may round a QD differently,
    and everything else still matches."""
    rng = np.random.default_rng(size)
    table = _static(rng, m, 4 << m)
    prefix = cached_tree_prefix(m, size)
    assert (prefix._lead is None) == (size == 100)
    query_signatures = rng.integers(0, 1 << m, 64)
    if kind == "integer":
        costs = rng.integers(0, 1 << 20, (64, m)).astype(np.float64)
    else:
        costs = np.abs(rng.standard_normal((64, m)))
    costs[::16] = 0.0  # every QD tied: uncertified
    slot_table, sizes = table.slot_table(), table.dense_layout()[1]
    block = prefix.rank(query_signatures, costs, slot_table, sizes, budget)
    assert 0 < block.certified.sum() < 64
    exact = ("certified", "order", "cumulative", "stops")
    if kind == "integer":
        exact += ("scores",)
    for row in range(64):
        one = prefix.rank(
            query_signatures[row:row + 1], costs[row:row + 1], slot_table,
            sizes, budget,
        )
        for field in exact:
            got, want = getattr(one, field)[0], getattr(block, field)[row]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), field
        np.testing.assert_allclose(
            one.scores[0], block.scores[row], rtol=1e-13
        )
