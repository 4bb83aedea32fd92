"""Plan vocabulary: stage names, cache-key sensitivity, the degrade ladder.

The equivalence suite (`test_pipeline_equivalence.py`) proves the
engine is bit-identical to the classic inline loop; this file covers
the plan's declarative stage list and the cache keys built from it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search import QueryPlan, QueryResultCache


class TestSpecs:
    def test_plan_stage_names(self):
        plain = QueryPlan(k=5, n_candidates=10)
        assert plain.stage_names() == (
            "retrieve", "dedup_budget", "evaluate"
        )


class TestCacheStageFingerprint:
    """Cache keys must hash the full serialized stage list."""

    def test_every_stage_parameter_perturbs_the_key(self):
        cache = QueryResultCache(capacity=8)
        query = np.arange(4, dtype=np.float64)
        base = QueryPlan(k=5, n_candidates=50)
        variants = [
            QueryPlan(k=6, n_candidates=50),
            QueryPlan(k=5, n_candidates=51),
            QueryPlan(k=5, n_candidates=50, max_buckets=8),
            QueryPlan(k=5, n_candidates=50, metric="cosine"),
        ]
        base_key = cache.key_for("tok", 0, base, query)
        for variant in variants:
            assert cache.key_for("tok", 0, variant, query) != base_key


class TestDowngraded:
    """The serving layer's degrade ladder: budgets halve once per level."""

    PLAN = QueryPlan(k=10, n_candidates=400, max_buckets=40, time_budget=1.0)

    @pytest.mark.parametrize(
        "level,n_candidates,max_buckets,time_budget",
        [
            (1, 200, 20, 0.5),
            (2, 100, 10, 0.25),
            (3, 50, 5, 0.125),
        ],
    )
    def test_each_level_halves_every_budget(
        self, level, n_candidates, max_buckets, time_budget
    ):
        got = self.PLAN.downgraded(level)
        assert (got.n_candidates, got.max_buckets, got.time_budget) == (
            n_candidates, max_buckets, time_budget
        )
        assert got.stage_names() == self.PLAN.stage_names()
        assert (got.k, got.metric) == (10, "euclidean")

    def test_level_zero_is_the_plan_itself(self):
        assert self.PLAN.downgraded(0) is self.PLAN

    @pytest.mark.parametrize(
        "plan,level,floor,n_candidates,max_buckets",
        [
            # The default floor of 16 candidates and one bucket.
            (QueryPlan(k=10, n_candidates=40, max_buckets=3), 3, 16, 16, 1),
            # k above the floor: never fewer candidates than k.
            (QueryPlan(k=30, n_candidates=64, max_buckets=8), 2, 16, 30, 2),
            # A custom floor, above and then below the halved budget.
            (QueryPlan(k=2, n_candidates=40), 3, 4, 5, None),
            (QueryPlan(k=2, n_candidates=40), 4, 4, 4, None),
        ],
    )
    def test_floors(self, plan, level, floor, n_candidates, max_buckets):
        got = plan.downgraded(level, floor=floor)
        assert (got.n_candidates, got.max_buckets) == (
            n_candidates, max_buckets
        )

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            self.PLAN.downgraded(-1)
