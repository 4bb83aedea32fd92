"""Differential test: the dynamic index's search against ``HashIndex``.

``DynamicHashIndex.search`` ranks its table's bucket slots from one
score row and gathers a prefix of that order (or, for a prober that
cannot score buckets, drains the prober's stream); ``HashIndex.search``
walks the prober's stream over a static table.  After any sequence of
adds, removes and id recycling — buckets emptied, slots compacted away
and re-created — both must return the same answer over the same live
items: the static index is rebuilt over the live vectors in ascending
id order, so its row ``i`` is the ``i``-th smallest live id, and ties
(broken by id on both sides) agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.probing.ghr import GenerateHammingRanking
from repro.probing.hamming_ranking import HammingRanking
from repro.search import DynamicHashIndex, HashIndex

DIM = 12
POOL = gaussian_mixture(480, DIM, n_clusters=6, seed=21)
QUERIES = sample_queries(POOL, 6, seed=22)
HASHER = ITQ(code_length=6, seed=0).fit(POOL)

#: GQR and HR score buckets (ordered kernel); GHR has no bucket
#: scores, so its searches stream.
PROBERS = {
    "gqr": GQR,
    "hr": HammingRanking,
    "ghr": GenerateHammingRanking,
}

#: One write: add the next ``n`` pool rows, remove ``n`` live items
#: (drawn by the test), or remove all but ``n`` of them.
writes = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "drain"]), st.integers(1, 60)),
    min_size=1,
    max_size=10,
)


@pytest.mark.parametrize("name", sorted(PROBERS))
@given(
    script=writes,
    data=st.data(),
    k=st.integers(1, 12),
    budget=st.integers(1, 300),
)
@settings(max_examples=30, deadline=None)
def test_search_matches_static_index_over_live_items(
    name, script, data, k, budget
):
    index = DynamicHashIndex(HASHER, DIM, prober=PROBERS[name]())
    live: dict[int, np.ndarray] = {}
    cursor = 0
    for action, n in script:
        if action == "add":
            rows = POOL[np.arange(cursor, cursor + n) % len(POOL)]
            cursor += n
            live.update(zip(index.add(rows).tolist(), rows))
            continue
        if not live:
            continue
        if action == "remove":
            victims = data.draw(
                st.lists(
                    st.sampled_from(sorted(live)),
                    min_size=1,
                    max_size=n,
                    unique=True,
                )
            )
        else:
            victims = sorted(live)[n:]
        index.remove(np.array(victims, dtype=np.int64))
        for victim in victims:
            del live[victim]
    assert index.num_items == len(live)
    if not live:
        result = index.search(QUERIES[0], k, budget)
        assert len(result.ids) == result.n_candidates == 0
        return
    live_ids = np.array(sorted(live), dtype=np.int64)
    static = HashIndex(
        HASHER,
        np.array([live[i] for i in live_ids.tolist()]),
        prober=PROBERS[name](),
    )
    for query in QUERIES:
        got = index.search(query, k, budget)
        want = static.search(query, k, n_candidates=budget)
        np.testing.assert_array_equal(got.ids, live_ids[want.ids])
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.n_candidates == want.n_candidates
        assert got.n_buckets_probed == want.n_buckets_probed
