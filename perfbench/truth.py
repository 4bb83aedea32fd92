"""Exact-kNN truth and the output check, in plain numpy.

Nothing here calls the program under test: truth is a float32 screen
over every item followed by an exact float64 re-rank of the screened
candidates, and each query falls back to a full float64 scan whenever
float32 rounding could have screened out a true neighbour.
"""

from __future__ import annotations

import numpy as np

RTOL, ATOL = 1e-7, 1e-9  # returned vs recomputed distance agreement
SCREEN = 32  # float32 candidates re-ranked exactly per query


def _sq_distances(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    diff = rows - query
    return np.einsum("ij,ij->i", diff, diff)


def exact_knn(
    queries: np.ndarray,
    data: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    k: int,
    block: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of ``data[lo[i]:hi[i]]`` for each query ``i``.

    Returns row ids into ``data`` and Euclidean distances, ascending,
    ties broken by id.
    """
    data32 = data.astype(np.float32)
    norms32 = np.einsum("ij,ij->i", data32, data32)
    scale = float(np.sqrt(norms32.max()))
    out_ids = np.empty((len(queries), k), dtype=np.int64)
    out_dists = np.empty((len(queries), k))
    for start in range(0, len(queries), block):
        qs = queries[start:start + block]
        first, last = int(lo[start:start + block].min()), int(hi[start:start + block].max())
        # |x|^2 - 2 q.x: the query's own norm does not change the order.
        screen = qs.astype(np.float32) @ data32[first:last].T
        screen *= -2.0
        screen += norms32[first:last]
        columns = np.arange(first, last)
        for row, (query, low, high) in enumerate(
            zip(qs, lo[start:start + block], hi[start:start + block])
        ):
            values = screen[row]
            if low > first or high < last:
                values[(columns < low) | (columns >= high)] = np.inf
            # The SCREEN-th smallest of a subsample bounds the SCREEN-th
            # smallest of the whole row from above.
            bound = np.partition(values[::64], SCREEN)[SCREEN]
            pool = np.flatnonzero(values <= bound)
            pool = pool[np.argpartition(values[pool], SCREEN)[:SCREEN]]
            exact = _sq_distances(query, data[first + pool])
            order = np.lexsort((pool, exact))[:k]
            # Every unscreened row has a float32 value >= the largest
            # screened one; it is safe when that still beats the k-th.
            error = 1e-5 * (scale + float(np.linalg.norm(query))) ** 2
            floor = float(values[pool].max()) + float(query @ query) - error
            if floor <= exact[order[-1]]:
                pool = np.arange(low, high) - first
                exact = _sq_distances(query, data[low:high])
                order = np.lexsort((pool, exact))[:k]
            out_ids[start + row] = first + pool[order]
            out_dists[start + row] = np.sqrt(exact[order])
    return out_ids, out_dists


def check(
    ids: np.ndarray,
    dists: np.ndarray,
    queries: np.ndarray,
    data: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    truth_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per answer: whether it passes the output check, and its recall.

    An answer passes when it holds ``k`` distinct ids that are live
    (inside ``[lo, hi)``), its distances equal a fresh float64
    recomputation, and they ascend.  Recall is the share of the exact
    ``k`` nearest it contains.
    """
    k = truth_ids.shape[1]
    live = (ids >= lo[:, None]) & (ids < hi[:, None])
    ok = live.all(axis=1)
    ordered = np.sort(ids, axis=1)
    ok &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    safe = np.where(live, ids, 0)
    diff = data[safe] - queries[:, None, :]
    fresh = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ok &= np.isclose(dists, fresh, rtol=RTOL, atol=ATOL).all(axis=1)
    ok &= (np.diff(dists, axis=1) >= 0).all(axis=1)
    hits = (ids[:, :, None] == truth_ids[:, None, :]).any(axis=2).sum(axis=1)
    return ok, hits / k
