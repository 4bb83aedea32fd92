"""Differential tests: the float32 screen against float64 scoring of all.

``ExactEvaluator`` keeps a float32 copy of a fixed Euclidean corpus,
screens every candidate on it and re-scores in float64 only those its
error margin cannot rule out (``engine._screened_distances``).  The
tests below build each index twice over the same items and fitted
hasher — as built, and a twin whose evaluator has no copy and scores
every candidate in float64 — and require ``search_batch``,
``search_early_stop`` and ``search_range`` to return the same ids and
distances bit for bit, with the same counters.

The corpora are adversarial for a float32 screen: exact duplicates,
items whose distances to the query tie within the margin, a 1e4 offset
with a 1e-3 spread (float32's spacing there is about 1e-3), items
scaled to 1e-30 and 1e-20 (float32 squares underflow), items beyond
float32's range (they round to inf), and ``half_ulp``: items half-way
to the query, every coordinate of both nearly half a float32 ulp off
the grid, so that each rounding moves the distance the most it can (in
one dimension the query's rounding term of the bound decides whether
it holds).
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search.engine import (
    ExactEvaluator,
    _ragged_distances,
    _screen_cut,
    _screen_error,
    _screen_partials,
    _screen_upper,
)
from repro.search.searcher import HashIndex

N_ITEMS = 600

# Family -> the spread of its items around their centre, which also
# scales the noise added to the queries drawn from its rows.
FAMILIES = {
    "gaussian": 1.0,
    "duplicates": 1.0,
    "near_ties": 0.0,
    "offset": 1e-3,
    "tiny": 1e-30,
    "subnormal": 1e-20,
    "beyond_float32": 1.0,
    "half_ulp": 1.0,
}


def _off_grid(values: np.ndarray, side: np.ndarray) -> np.ndarray:
    """``values`` moved 0.49 of a float32 ulp off the float32 grid
    towards ``side`` (±1): each rounds back by nearly half an ulp."""
    grid = values.astype(np.float32)
    return grid + side * 0.49 * np.spacing(np.abs(grid)).astype(np.float64)


def _half_ulp_point(dim: int, seed: int) -> np.ndarray:
    """The ``half_ulp`` family's query point, before it leaves the grid.

    Coordinates just above 1 round with nearly float32's largest
    relative error, as do its items' coordinates just above 1/2.
    """
    return np.random.default_rng(seed).uniform(1.0, 1.1, dim)


def _alternating(rows: int) -> np.ndarray:
    """``+1`` in even rows and ``-1`` in odd ones, as a column."""
    return np.where(np.arange(rows) % 2, -1.0, 1.0)[:, np.newaxis]


def _items(family: str, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, list(FAMILIES).index(family)])
    items = rng.standard_normal((N_ITEMS, dim))
    if family == "duplicates":
        items = items[rng.integers(0, N_ITEMS // 10, N_ITEMS)]
    elif family == "near_ties":
        # Every item at distance 3 from the origin (the queries), up to
        # a few 1e-7 steps: ties within the screen's margin.
        radii = 3.0 * (1.0 + 1e-7 * rng.integers(-3, 4, N_ITEMS))
        items *= (radii / np.linalg.norm(items, axis=1))[:, np.newaxis]
    elif family == "offset":
        items = 1e4 + 1e-3 * items
    elif family in ("tiny", "subnormal"):
        items *= FAMILIES[family]
    elif family == "beyond_float32":
        items[: N_ITEMS // 3] *= 1e39
    elif family == "half_ulp":
        # On the segment from the origin to the query point, just past
        # its middle; even rows round down and odd rows up.
        scale = rng.uniform(0.5, 0.54, (N_ITEMS, 1))
        items = _off_grid(
            scale * _half_ulp_point(dim, seed), _alternating(N_ITEMS)
        )
    return items


@lru_cache(maxsize=None)
def _indexes(family: str, dim: int, seed: int) -> tuple[HashIndex, HashIndex]:
    """The screened index and its copy-less twin over the same items."""
    items = _items(family, dim, seed)
    hasher = ITQ(code_length=min(6, dim), seed=0).fit(items)
    screened = HashIndex(hasher, items, prober=GQR())
    twin = HashIndex(hasher, items, prober=GQR())
    twin.engine.evaluator._screen = None
    assert screened.memory_footprint()["screen"] > 0
    assert twin.memory_footprint()["screen"] == 0
    return screened, twin


def _queries(family: str, items: np.ndarray, rows, noise: float, seed: int):
    if family == "near_ties":
        return np.zeros((len(rows), items.shape[1]))
    rng = np.random.default_rng(seed)
    if family == "half_ulp":
        # The query point, rounding down in even rows and up in odd.
        picked = _off_grid(
            np.tile(_half_ulp_point(items.shape[1], seed), (len(rows), 1)),
            _alternating(len(rows)),
        )
    else:
        picked = items[list(rows)]
    return picked + noise * FAMILIES[family] * rng.standard_normal(picked.shape)


def _same(got, want) -> None:
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.n_candidates == want.n_candidates
    assert got.n_buckets_probed == want.n_buckets_probed
    assert got.stats.early_stop_triggered == want.stats.early_stop_triggered


corpora = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from([2, 8, 24]),
    st.integers(0, 2),
)
query_rows = st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=6)
noises = st.sampled_from([0.0, 1e-6, 0.3])


@settings(max_examples=40, deadline=None)
@given(
    corpus=corpora,
    rows=query_rows,
    noise=noises,
    k=st.integers(1, 12),
    budget=st.integers(1, 300),
)
def test_search_batch_screened_equals_float64(corpus, rows, noise, k, budget):
    screened, twin = _indexes(*corpus)
    queries = _queries(corpus[0], twin.data, rows, noise, corpus[2])
    for got, want in zip(
        screened.search_batch(queries, k, budget),
        twin.search_batch(queries, k, budget),
        strict=True,
    ):
        _same(got, want)


@settings(max_examples=30, deadline=None)
@given(
    corpus=corpora,
    rows=query_rows,
    noise=noises,
    k=st.integers(1, 12),
    cap=st.sampled_from([None, 300, 450]),
)
def test_early_stop_screened_equals_float64(corpus, rows, noise, k, cap):
    screened, twin = _indexes(*corpus)
    for query in _queries(corpus[0], twin.data, rows, noise, corpus[2]):
        _same(
            screened.search_early_stop(query, k, cap),
            twin.search_early_stop(query, k, cap),
        )


@settings(max_examples=30, deadline=None)
@given(
    corpus=corpora,
    rows=query_rows,
    noise=noises,
    nth=st.integers(0, N_ITEMS - 1),
)
def test_range_screened_equals_float64(corpus, rows, noise, nth):
    screened, twin = _indexes(*corpus)
    every = np.arange(N_ITEMS)
    for query in _queries(corpus[0], twin.data, rows, noise, corpus[2]):
        # The radius is an item's own float64 distance: that item and
        # its ties sit exactly on the boundary.
        radius = float(
            np.sort(twin.engine.evaluator.distances(query, every))[nth]
        )
        _same(
            screened.search_range(query, radius),
            twin.search_range(query, radius),
        )


def _screen_terms(items: np.ndarray, queries: np.ndarray):
    """Every (query, item) pair's screen part, its query's error terms
    ``(Q, E, w)`` repeated per item, and its float64 distance."""
    evaluator = ExactEvaluator(items)
    ids = np.tile(np.arange(N_ITEMS), len(queries))
    counts = np.full(len(queries), N_ITEMS)
    with np.errstate(over="ignore", invalid="ignore"):
        queries32 = queries.astype(np.float32)
        parts = _screen_partials(
            queries32, evaluator._screen, evaluator._screen_norms, ids,
            range(0, len(ids) + 1, N_ITEMS),
        )
        terms = [
            np.repeat(term, counts)
            for term in _screen_error(queries32, evaluator._screen_top)
        ]
        d64 = _ragged_distances(queries, items, ids, counts, "euclidean")
    return parts, terms, d64


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    dim=st.sampled_from([1, 2, 8, 24, 64]),
    seed=st.integers(0, 50),
    noise=noises,
)
def test_screen_bounds_bracket_float64(family, dim, seed, noise):
    """Every finite part's bounds hold the float64 distance, as the
    proof says: the upper bound is at least ``d64``, and the cut at
    ``τ = d64`` keeps the candidate (a lower bound at most ``d64``)."""
    items = _items(family, dim, seed)
    queries = _queries(family, items, range(0, N_ITEMS, 100), noise, seed)
    parts, terms, d64 = _screen_terms(items, queries)
    with np.errstate(over="ignore", invalid="ignore"):
        upper = _screen_upper(parts, *terms)
        cut = _screen_cut(d64, *terms)
    finite = np.isfinite(parts)
    assert (d64[finite] <= upper[finite]).all()
    assert (parts[finite] <= cut[finite]).all()


@pytest.mark.parametrize("seed", range(4))
def test_query_rounding_term_holds_the_half_ulp_bounds(seed):
    """In one dimension the ``half_ulp`` family brings each bound within
    ``w``, the query's rounding term, of failing: with ``w = 0`` some
    candidate's upper bound falls below its ``d64`` and some cut at
    ``τ = d64`` drops it, while the full bounds hold for every one."""
    items = _items("half_ulp", 1, seed)
    queries = _queries("half_ulp", items, range(2), 0.0, seed)
    parts, (squares, err, slack), d64 = _screen_terms(items, queries)
    assert (d64 <= _screen_upper(parts, squares, err, slack)).all()
    assert (parts <= _screen_cut(d64, squares, err, slack)).all()
    bare = np.zeros_like(slack)
    assert (d64 > _screen_upper(parts, squares, err, bare)).any()
    assert (parts > _screen_cut(d64, squares, err, bare)).any()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_screen_raises_no_warning(family):
    """Overflow and nan inside the screen are expected, never reported."""
    items = _items(family, 8, 0)
    queries = _queries(family, items, range(0, N_ITEMS, 50), 0.3, 0)
    ids = np.tile(np.arange(N_ITEMS), len(queries))
    counts = np.full(len(queries), N_ITEMS)
    order = np.random.default_rng(0).permutation(N_ITEMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluator in (
            ExactEvaluator(items), ExactEvaluator(items, order=order)
        ):
            evaluator.distances(queries, ids, counts, k=5)
            evaluator.distances(queries[0], ids[:N_ITEMS], limit=1.0)


class TestScreenScope:
    @pytest.fixture(scope="class")
    def data(self):
        return gaussian_mixture(2000, 16, n_clusters=8, seed=3)

    def test_top_k_drops_only_candidates_that_cannot_rank(self, data):
        screened = ExactEvaluator(data)
        plain = ExactEvaluator(lambda: data)
        query, ids = data[0] + 0.1, np.arange(len(data))
        exact = plain.distances(query, ids)
        got = screened.distances(query, ids, k=10)
        finite = np.isfinite(got)
        # The screen ran: most candidates were ruled out...
        assert finite.sum() < len(ids) // 10
        # ...every distance it kept is the float64 one, bit for bit...
        assert got[finite].tobytes() == exact[finite].tobytes()
        # ...and the ten nearest are among them.
        assert finite[np.argsort(exact, kind="stable")[:10]].all()

    def test_limit_keeps_everything_within_it(self, data):
        screened = ExactEvaluator(data)
        query, ids = data[5], np.arange(len(data))
        exact = ExactEvaluator(lambda: data).distances(query, ids)
        limit = float(np.sort(exact)[40])
        got = screened.distances(query, ids, limit=limit)
        within = exact <= limit
        assert got[within].tobytes() == exact[within].tobytes()
        assert np.isinf(got[~within]).any()

    def test_rows_beyond_float32_leave_the_rest_screened(self, data):
        # A third of the items round to inf in float32.  Their rows are
        # re-scored, and the largest norm the error bound uses is the
        # largest finite one, so the other items are still screened.
        wide = data.copy()
        scaled = len(wide) // 3
        wide[:scaled] *= 1e39
        screened = ExactEvaluator(wide)
        assert np.isfinite(screened._screen_top)
        query, ids = wide[-1] + 0.1, np.arange(len(wide))
        exact = ExactEvaluator(lambda: wide).distances(query, ids)
        got = screened.distances(query, ids, k=10)
        finite = np.isfinite(got)
        assert finite[:scaled].all()
        # Most of the items within float32's range were ruled out.
        assert finite[scaled:].sum() < (len(ids) - scaled) // 10
        assert got[finite].tobytes() == exact[finite].tobytes()
        assert finite[np.argsort(exact, kind="stable")[:10]].all()

    def test_overflowing_dots_are_rescored(self, data):
        # Every value fits in float32, but many float32 dot products
        # overflow: those candidates have no bound and are re-scored.
        big = data * 1e19
        screened = ExactEvaluator(big)
        query, ids = big[-1] + 1e18, np.arange(len(big))
        with np.errstate(over="ignore", invalid="ignore"):
            dots = big.astype(np.float32) @ query.astype(np.float32)
        assert (dots == np.inf).any() and (dots == -np.inf).any()
        # One more than the dots that overflowed upwards, so the k-th
        # smallest bound is finite and the cut is too.
        k = int((dots == np.inf).sum()) + 1
        exact = ExactEvaluator(lambda: big).distances(query, ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = screened.distances(query, ids, k=k)
        finite = np.isfinite(got)
        assert not finite.all()
        assert finite[~np.isfinite(dots)].all()
        assert got[finite].tobytes() == exact[finite].tobytes()
        assert finite[np.argsort(exact, kind="stable")[:k]].all()

    @pytest.mark.parametrize(
        "source, metric",
        [
            (lambda d: (lambda: d), "euclidean"),
            (lambda d: d, "cosine"),
            (lambda d: d, "angular"),
            (lambda d: d.astype(np.float32), "euclidean"),
        ],
        ids=["callable", "cosine", "angular", "float32-data"],
    )
    def test_no_copy_scores_everything_in_full(self, data, source, metric):
        evaluator = ExactEvaluator(source(data), metric)
        assert evaluator.screen_bytes == 0
        ids = np.arange(len(data))
        got = evaluator.distances(data[1], ids, k=3)
        assert np.isfinite(got).all()
