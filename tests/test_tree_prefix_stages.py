"""The two-stage :meth:`TreePrefix.rank`: the lead half first, then ``D``.

A prefix of size ``L`` ranks every row on its lead, the shared prefix of
size ``L // 2``, and re-ranks on its own ``D`` only the rows the lead
leaves uncertified.  Against one ranking of every row on ``D``
(``TreePrefix._rank_rows``), at code lengths 10–16 with uniform, skewed
and tied costs:

* the certified flags are the same;
* every certified row has the same order and cumulative sizes up to its
  stop, the same stop, and the same QDs up to rounding;
* the second stage ranks exactly the rows the lead left uncertified.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tree_prefix import _static

from repro.core.tree_prefix import TreePrefix, cached_tree_prefix


def _costs(rng: np.random.Generator, kind: str, rows: int, m: int):
    if kind == "uniform":
        return rng.random((rows, m))
    if kind == "skewed":  # a few cheap bits and the rest far dearer
        return rng.random((rows, m)) * np.where(rng.random(m) < 0.3, 1e-3, 1e3)
    # Small integers: exact ties among the QDs.
    return rng.integers(0, 4, (rows, m)).astype(np.float64)


@contextmanager
def _stage_calls():
    """``(prefix, costs, certified)`` of each ``_rank_rows`` call."""
    calls: list[tuple[TreePrefix, np.ndarray, np.ndarray]] = []
    rank_rows = TreePrefix._rank_rows

    def spy(self, query_signatures, costs, *args):
        ranked = rank_rows(self, query_signatures, costs, *args)
        calls.append((self, costs.copy(), ranked.certified.copy()))
        return ranked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TreePrefix, "_rank_rows", spy)
        yield calls


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(10, 16),
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(2000, 20000),
    size=st.integers(128, 1500),
    budget=st.integers(1, 400),
    kind=st.sampled_from(["uniform", "skewed", "tied"]),
)
def test_staged_rank_matches_one_rank_of_d(m, seed, n_items, size, budget, kind):
    rng = np.random.default_rng(seed)
    table = _static(rng, m, n_items)
    rows = 32
    query_signatures = rng.integers(0, 1 << m, rows)
    costs = _costs(rng, kind, rows, m)
    prefix = cached_tree_prefix(m, size)
    assert prefix._lead is not None
    args = (table.slot_table(), table.dense_layout()[1], budget)
    staged = prefix.rank(query_signatures, costs, *args)
    single = prefix._rank_rows(query_signatures, costs, *args, prefix._grow)
    assert staged.certified.tolist() == single.certified.tolist()
    assert staged.order.shape == single.order.shape == (rows, len(prefix.down_set))
    for row in np.flatnonzero(staged.certified):
        stop = int(single.stops[row])
        assert staged.stops[row] == stop
        for got, want in zip(staged[1:3], single[1:3]):
            assert got[row, :stop + 1].tobytes() == want[row, :stop + 1].tobytes()
        # The lead's matmul has fewer columns than D's, and BLAS may
        # round a column's sum differently in the two shapes.
        np.testing.assert_allclose(
            staged.scores[row, :stop + 1], single.scores[row, :stop + 1],
            rtol=1e-14,
        )


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(10, 16),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([128, 256, 512, 1024]),
    budget=st.integers(1, 400),
    kind=st.sampled_from(["uniform", "skewed", "tied"]),
)
def test_second_stage_gets_the_leads_uncertified_rows(
    m, seed, size, budget, kind
):
    rng = np.random.default_rng(seed)
    table = _static(rng, m, 8000)
    costs = _costs(rng, kind, 24, m)
    prefix = cached_tree_prefix(m, size)
    with _stage_calls() as calls:
        ranked = prefix.rank(
            rng.integers(0, 1 << m, 24), costs, table.slot_table(),
            table.dense_layout()[1], budget,
        )
    (lead, lead_costs, lead_certified), *second = calls
    assert lead is prefix._lead
    assert lead_costs.tobytes() == costs.tobytes()
    if lead_certified.all():
        assert not second
        assert ranked.certified.all()
        # Columns past the lead's width are padding.
        width = len(lead.down_set)
        assert (ranked.order[:, width:] == -1).all()
        assert np.isinf(ranked.scores[:, width:]).all()
        return
    [(full, rest_costs, rest_certified)] = second
    assert full is prefix
    assert rest_costs.tobytes() == costs[~lead_certified].tobytes()
    assert ranked.certified[~lead_certified].tolist() == rest_certified.tolist()
    assert ranked.certified[lead_certified].all()


def test_lead_is_the_front_of_the_same_emission():
    prefix = cached_tree_prefix(12, 128)
    lead = prefix._lead.down_set
    assert len(lead) >= 64
    assert lead.tobytes() == prefix.down_set[:len(lead)].tobytes()
    assert lead.tobytes() == TreePrefix(12, 64).down_set.tobytes()
    assert cached_tree_prefix(12, 127)._lead is None
    # Every mask of m = 6 is in both halves: nothing to lead with.
    assert cached_tree_prefix(6, 128)._lead is None


def test_cache_returns_a_lead_that_is_still_alive():
    parent = cached_tree_prefix(12, 128)
    # Evict everything from the bounded cache; the parent keeps its lead.
    for m in range(6, 30):
        cached_tree_prefix(m, 32)
    assert parent._lead is cached_tree_prefix(12, 64)
    assert parent is cached_tree_prefix(12, 128)
