"""The float32 screen stored in bucket-layout order.

``HashIndex`` builds its evaluator's screen in the order of its first
table's signature-sorted ids (``HashTable.sorted_ids``), with an id →
row map, so a candidate bucket is one contiguous run of screen rows.
The tests below pin that layout (every id's row holds its own item,
the map is a permutation, each bucket is a run), compare answers bit
for bit with a twin whose evaluator has no copy on the read paths
whose candidates do not follow that order (multi-table round robin,
MIH, IMI), and bound the memory the ordered build allocates.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import ITQ
from repro.quantization.pq import ProductQuantizer
from repro.search.engine import _SCREEN_FILL_ROWS, ExactEvaluator
from repro.search.searcher import HashIndex, IMISearchIndex, MIHSearchIndex

N_ITEMS = 700


def _items(family: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, len(family)])
    items = rng.standard_normal((N_ITEMS, 8))
    if family == "duplicates":
        items = items[rng.integers(0, N_ITEMS // 10, N_ITEMS)]
    elif family == "beyond_float32":
        items[: N_ITEMS // 3] *= 1e39
    return items


def _assert_layout(evaluator: ExactEvaluator, data: np.ndarray, order) -> None:
    screen, rows = evaluator._screen, evaluator._screen_rows
    assert rows.dtype == np.int32
    assert np.array_equal(np.sort(rows), np.arange(len(data)))
    assert np.array_equal(rows[order], np.arange(len(data)))
    with np.errstate(over="ignore"):
        wanted = data.astype(np.float32)
    for i in range(len(data)):
        assert screen[rows[i]].tobytes() == wanted[i].tobytes()


@pytest.mark.parametrize("family", ["gaussian", "duplicates", "beyond_float32"])
@pytest.mark.parametrize("n_tables", [1, 3])
def test_screen_row_of_each_id_holds_its_item(family, n_tables):
    data = _items(family, 0)
    hashers = [ITQ(code_length=6, seed=s) for s in range(n_tables)]
    index = HashIndex(hashers, data)
    table = index.tables[0]
    _assert_layout(index.engine.evaluator, data, table.sorted_ids)
    # Every bucket of the first table is one contiguous run of rows.
    rows = index.engine.evaluator._screen_rows
    for signature in table.signatures():
        run = rows[table.get(signature)]
        assert np.array_equal(run, np.arange(run[0], run[0] + len(run)))


def test_block_fill_covers_a_ragged_last_block():
    n = 2 * _SCREEN_FILL_ROWS + 5
    data = np.random.default_rng(3).standard_normal((n, 3))
    order = np.random.default_rng(4).permutation(n)
    _assert_layout(ExactEvaluator(data, order=order), data, order)


def test_id_order_keeps_no_row_map():
    data = _items("gaussian", 1)
    evaluator = ExactEvaluator(data)
    assert evaluator._screen_rows is None
    # The copy and each row's float64 squared norm.
    assert evaluator.screen_bytes == data.size * 4 + len(data) * 8
    assert evaluator._screen.tobytes() == data.astype(np.float32).tobytes()


@pytest.mark.parametrize(
    "order",
    [np.arange(N_ITEMS - 1), np.r_[0, np.arange(N_ITEMS - 1)]],
    ids=["short", "duplicate"],
)
def test_order_must_be_a_permutation(order):
    with pytest.raises(ValueError, match="permutation"):
        ExactEvaluator(_items("gaussian", 2), order=order)


# -- same answers as float64 scoring of every candidate ---------------


def _copy_less(index):
    index.engine.evaluator._screen = None
    assert index.engine.evaluator.screen_bytes == 0
    return index


@lru_cache(maxsize=None)
def _indexes(kind: str, family: str, seed: int):
    """The screened index and its copy-less twin over the same items."""
    data = _items(family, seed)
    if kind == "multi-table":
        hashers = [ITQ(code_length=6, seed=s).fit(data) for s in range(3)]
        build = partial(HashIndex, hashers, data)
    elif kind == "mih":
        hasher = ITQ(code_length=8, seed=0).fit(data)
        build = partial(MIHSearchIndex, hasher, data, num_blocks=2)
    else:
        quantizer = ProductQuantizer(2, n_centroids=8, seed=0).fit(data)
        build = partial(IMISearchIndex, quantizer, data)
    screened = build()
    assert screened.engine.evaluator.screen_bytes > 0
    return screened, _copy_less(build())


def _same(got, want) -> None:
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.n_candidates == want.n_candidates
    assert got.n_buckets_probed == want.n_buckets_probed


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["multi-table", "mih", "imi"]),
    family=st.sampled_from(["gaussian", "duplicates", "beyond_float32"]),
    seed=st.integers(0, 1),
    rows=st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=4),
    noise=st.sampled_from([0.0, 1e-6, 0.3]),
    k=st.integers(1, 10),
    budget=st.integers(1, 400),
)
def test_unordered_candidates_score_as_float64(
    kind, family, seed, rows, noise, k, budget
):
    screened, twin = _indexes(kind, family, seed)
    data = _items(family, seed)
    rng = np.random.default_rng(seed)
    queries = data[rows] + noise * rng.standard_normal((len(rows), 8))
    for query in queries:
        _same(
            screened.search(query, k, budget), twin.search(query, k, budget)
        )
    if kind == "multi-table":
        for got, want in zip(
            screened.search_batch(queries, k, budget),
            twin.search_batch(queries, k, budget),
            strict=True,
        ):
            _same(got, want)


# -- build memory ------------------------------------------------------


def test_ordered_build_allocates_the_copy_and_one_row_block():
    n, dim = 5 * _SCREEN_FILL_ROWS + 123, 8
    data = np.random.default_rng(5).standard_normal((n, dim))
    order = np.random.default_rng(6).permutation(n)
    tracemalloc.start()
    try:
        evaluator = ExactEvaluator(data, order=order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The copy, its int32 map and each row's float64 squared norm.
    assert evaluator.screen_bytes == n * dim * 4 + n * 4 + n * 8
    # At most one block of rows, even in float64, and a little slack
    # for numpy's bookkeeping.
    block = _SCREEN_FILL_ROWS * dim * 8
    assert peak <= evaluator.screen_bytes + block + 16_384
    # So never a second full copy, not even in float32.
    assert peak < evaluator.screen_bytes + n * dim * 4
