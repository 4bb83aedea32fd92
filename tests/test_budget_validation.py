"""Budgets and bounds that make no sense are rejected, not run.

A negative or zero candidate budget, a bucket budget below one, a NaN
or negative time budget, a NaN radius, a Theorem 2 candidate cap below
one, and a ``k`` or rerank pool that is not an integer >= 1 each raise
``ValueError`` before any bucket is probed, even for an empty query
batch.
"""

import math

import numpy as np
import pytest

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search.engine import QueryPlan
from repro.search.stages import RerankSpec
from repro.search.searcher import HashIndex

QUERY = np.zeros(16)


@pytest.fixture(scope="module")
def index():
    data = gaussian_mixture(2000, 16, seed=0)
    return HashIndex(ITQ(code_length=8, seed=0), data, prober=GQR())


@pytest.mark.parametrize(
    "budget",
    [
        {"n_candidates": 0},
        {"n_candidates": -1},
        {"max_buckets": 0},
        {"max_buckets": -3},
        {"max_buckets": math.nan},
        {"time_budget": math.nan},
        {"time_budget": -0.5},
    ],
    ids=lambda budget: "-".join(f"{k}={v}" for k, v in budget.items()),
)
def test_query_plan_rejects_meaningless_budget(index, budget):
    with pytest.raises(ValueError):
        QueryPlan(k=10, **budget)
    with pytest.raises(ValueError):
        index.search(QUERY, 10, **budget)


def test_zero_time_budget_stays_legal(index):
    plan = QueryPlan(k=10, time_budget=0.0)
    assert plan.time_budget == 0.0
    index.search(QUERY, 10, time_budget=0.0)


def test_search_range_rejects_nan_radius(index):
    with pytest.raises(ValueError, match="radius"):
        index.search_range(QUERY, math.nan)


@pytest.mark.parametrize("max_candidates", [0, -5])
def test_search_early_stop_rejects_cap_below_one(index, max_candidates):
    with pytest.raises(ValueError, match="max_candidates"):
        index.search_early_stop(QUERY, 10, max_candidates=max_candidates)


def test_search_batch_validates_budget_on_an_empty_batch(index):
    # Regression: an empty batch returned [] before the plan was built,
    # so a meaningless budget passed silently.
    with pytest.raises(ValueError):
        index.search_batch(np.empty((0, 16)), k=0, n_candidates=-5)


NON_INTEGERS = [math.nan, 2.5, 3.0]


@pytest.mark.parametrize("k", [*NON_INTEGERS, "3"], ids=repr)
def test_k_must_be_an_integer(index, k):
    # Regression: NaN and fractional k constructed a plan, then failed
    # with a TypeError ("slice indices must be integers") in the engine;
    # a string k failed search_early_stop's own ``k < 1`` with a
    # TypeError before its plan was built.
    with pytest.raises(ValueError, match="k must be"):
        QueryPlan(k=k, n_candidates=100)
    with pytest.raises(ValueError, match="k must be"):
        index.search(QUERY, k, n_candidates=100)
    with pytest.raises(ValueError, match="k must be"):
        index.search_batch(QUERY[None, :], k, n_candidates=100)
    with pytest.raises(ValueError, match="k must be"):
        index.search_early_stop(QUERY, k, max_candidates=100)


@pytest.mark.parametrize("pool", NON_INTEGERS, ids=repr)
def test_rerank_pool_must_be_an_integer(pool):
    with pytest.raises(ValueError, match="pool must be"):
        RerankSpec(mode="exact", pool=pool)


def test_numpy_integers_and_fractional_budgets_stay_legal(index):
    rerank = RerankSpec(mode="exact", pool=np.int32(40))
    result = index.search(QUERY, np.int64(5), n_candidates=100, rerank=rerank)
    assert len(result.ids) == 5
    # The Theorem 2 scan takes a fractional cap's ceiling on purpose.
    early = index.search_early_stop(QUERY, 5, max_candidates=99.5)
    assert len(early.ids) == 5
