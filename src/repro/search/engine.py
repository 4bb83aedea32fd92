"""Unified query-execution engine: one body for every query.

Section 2.2 of the paper frames *every* querying method — HR, GHR, QR,
GQR, MIH, IMI — as one two-step loop: retrieval picks buckets and
gathers candidate ids, evaluation re-ranks the candidates exactly.
This module is that loop, extracted once so each index class is a thin
adapter instead of a private re-implementation::

    Retrieve → DedupBudget → Evaluate

* :class:`QueryPlan` — what to do: ``k``, stopping criteria
  (candidate / bucket / time budgets) and metric.
  ``stage_list()`` is the plan's declarative serialisation — the stages
  it executes, in order, with every stage's parameters — which is also
  what cache keys hash.
* :class:`ExecutionContext` — what happened: buckets probed, candidates
  gathered, early-stop trigger and per-stage wall time
  (``stage_seconds``).  Attached to every
  :class:`~repro.search.results.SearchResult` as ``extras["stats"]``.
* :func:`top_k` — the shared exact top-``k`` selection: the ``k``
  smallest ``(score, id)`` pairs, so ties break by id everywhere.
* :class:`QueryEngine` — runs a plan over one query's candidate stream
  (:meth:`~QueryEngine.execute`) or a whole batch
  (:meth:`~QueryEngine.execute_batch_streams`,
  :meth:`~QueryEngine.execute_batch_ordered`).  All three gather a
  ragged candidate block — flat ids plus per-query counts — and hand it
  to one body, :meth:`~QueryEngine.run`, that ranks it to ``k``,
  assembles the ``SearchResult`` list and records telemetry; a
  single query is a batch of one.  The Theorem 2 modes
  (``HashIndex.search_early_stop`` / ``search_range``) run through the
  same body: their scan is a gather that returns its candidates
  already scored, and the body only ranks them.
  :meth:`~QueryEngine.execute_probed` picks between the two batch
  paths: the ordered one when the prober can score the table's
  buckets, the streams one otherwise.  The ordered path ranks QR's
  and GQR's rows from a certified prefix of the generation tree
  (:mod:`repro.core.tree_prefix`) and scores every bucket only for
  the rows that prefix cannot certify, and for HR.
  :meth:`~QueryEngine.run_cached` is the one result-cache path in front
  of them: ``execute``, ``HashIndex.search_batch`` and
  ``DynamicHashIndex.search`` run through it, so only cache misses are
  executed.

:class:`ExactEvaluator` is the one scoring rule: exact distances over
the raw vectors under a registered metric, as in the paper's
Algorithm 1.  Over a fixed Euclidean corpus it screens candidates on a
float32 copy and computes float64 distances only for those that could
rank, with the same bits as scoring them all.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Protocol, cast

import numpy as np

from repro import obs
from repro.core.prober import BucketProber
from repro.index.codes import MAX_SLOT_BITS, unpack_bits
from repro.index.distance import METRICS
from repro.search.cache import CacheKey, QueryResultCache, cache_token
from repro.search.results import SearchResult
from repro.search.stages import drain_stream

__all__ = [
    "ExactEvaluator",
    "ExecutionContext",
    "Gathered",
    "QueryEngine",
    "QueryPlan",
    "RankedTable",
    "round_robin_stream",
    "top_k",
    "validate_items",
    "validate_query",
    "validate_query_batch",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_DISTS = np.empty(0, dtype=np.float64)


# -- query validation -------------------------------------------------

def validate_query(query: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Coerce one query to a 1-D float64 vector, or raise uniformly.

    Every index validates through this function, so a malformed query
    produces the same ``ValueError`` everywhere instead of (depending on
    the index) a broadcasting error deep inside numpy.
    """
    try:
        arr = np.asarray(query, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            f"query must be a numeric vector; got {type(query).__name__} "
            "that cannot be cast to float64"
        ) from None
    if arr.ndim != 1:
        raise ValueError(
            "query must be a 1-D vector"
            + (f" of dimension {dim}" if dim is not None else "")
            + f"; got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(
            f"query must be a 1-D vector of dimension {dim}; "
            f"got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("query contains non-finite values (nan or inf)")
    return arr


def validate_query_batch(
    queries: np.ndarray, dim: int | None = None
) -> np.ndarray:
    """Coerce a query batch to ``(B, dim)`` float64, or raise uniformly."""
    try:
        arr = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    except (TypeError, ValueError):
        raise ValueError(
            "queries must be a numeric array; got "
            f"{type(queries).__name__} that cannot be cast to float64"
        ) from None
    if arr.ndim != 2:
        raise ValueError(
            f"queries must be a (batch, dim) array; got shape {arr.shape}"
        )
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(
            f"queries must be a (batch, {dim}) array; got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("queries contain non-finite values (nan or inf)")
    return arr


def validate_items(items: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Coerce the items an index stores to ``(n, dim)`` float64, or raise.

    A row holding NaN or inf would be hashed into some bucket, but its
    distances are NaN or infinite, so it ranks behind every finite item
    and a query beside it never finds it.  Every index refuses such
    rows here, before it builds or changes anything.
    """
    try:
        arr = np.asarray(items, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            "items must be a numeric array; got "
            f"{type(items).__name__} that cannot be cast to float64"
        ) from None
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        raise ValueError(
            f"items must be an (n, {'d' if dim is None else dim}) array; "
            f"got shape {arr.shape}"
        )
    # min and max propagate NaN and surface ±inf, so two reductions find
    # any non-finite entry without a mask the size of the data.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError("items contain non-finite values (nan or inf)")
    return arr


# -- plan and context -------------------------------------------------

@dataclass(frozen=True)
class QueryPlan:
    """Everything the engine needs to know before touching a query.

    At least one stopping criterion (``n_candidates``, ``max_buckets``,
    ``time_budget``) must be set — Algorithm 1's remark that "other
    stopping criteria can also be used"; retrieval stops at whichever
    bound is hit first.  A plan is pure data — the same plan runs
    against any engine.
    """

    k: int
    n_candidates: int | None = None
    max_buckets: int | None = None
    time_budget: float | None = None
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        # ``bool`` is an ``int``: a flag in ``k``'s place would run as 1.
        if (
            not isinstance(self.k, (int, np.integer))
            or isinstance(self.k, bool)
            or self.k < 1
        ):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if (
            self.n_candidates is None
            and self.max_buckets is None
            and self.time_budget is None
        ):
            raise ValueError(
                "give at least one stopping criterion: n_candidates, "
                "max_buckets or time_budget"
            )
        # Negated comparisons so NaN fails them too.
        for name, budget in (
            ("n_candidates", self.n_candidates),
            ("max_buckets", self.max_buckets),
        ):
            if budget is not None and (
                isinstance(budget, (bool, np.bool_)) or not budget >= 1
            ):
                raise ValueError(f"{name} must be >= 1, got {budget!r}")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(
                f"time_budget must be >= 0 seconds, got {self.time_budget}"
            )
        if self.metric not in METRICS:
            raise KeyError(
                f"unknown metric {self.metric!r}; options: {sorted(METRICS)}"
            )

    def stage_list(self) -> tuple[tuple[object, ...], ...]:
        """The declarative stage serialisation of this plan.

        One tuple per pipeline stage, in execution order, each carrying
        the stage name and every parameter that shapes its output.
        This is the canonical plan identity: cache keys hash it, so two
        plans collide only if they execute the same stages with the
        same parameters.
        """
        return (
            ("retrieve",),
            (
                "dedup_budget",
                self.n_candidates,
                self.max_buckets,
                self.time_budget,
            ),
            ("evaluate", self.metric, self.k),
        )

    def stage_names(self) -> tuple[str, ...]:
        """The names of the stages this plan executes, in order."""
        return tuple(str(entry[0]) for entry in self.stage_list())

    def downgraded(self, level: int, *, floor: int = 16) -> QueryPlan:
        """A cheaper variant of this plan, ``level`` steps down the ladder.

        The serving front door's graduated load shedding
        (:mod:`repro.serving`) degrades admitted queries to cheaper
        plans before it ever rejects; this method is the ladder.  Level
        ``0`` is the plan itself.  Each level halves the candidate and
        bucket budgets and the time budget once more (never below
        ``max(floor, k)`` candidates or one bucket); no level drops a
        stage, because the one evaluation stage is what makes the
        answers exact over the candidates.

        The result is an ordinary :class:`QueryPlan`: running it
        directly is bit-identical to being degraded to it, which is the
        property the shedding tests pin.
        """
        if level < 0:
            raise ValueError(f"downgrade level must be >= 0, got {level}")
        if level == 0:
            return self
        shrink = 2 ** level
        n_candidates = self.n_candidates
        if n_candidates is not None:
            n_candidates = max(max(floor, self.k), n_candidates // shrink)
        max_buckets = self.max_buckets
        if max_buckets is not None:
            max_buckets = max(1, max_buckets // shrink)
        time_budget = self.time_budget
        if time_budget is not None:
            time_budget = time_budget / shrink
        return replace(
            self,
            n_candidates=n_candidates,
            max_buckets=max_buckets,
            time_budget=time_budget,
        )

    def budget_fraction(self, other: QueryPlan) -> float:
        """``other``'s candidate budget as a fraction of this plan's.

        The ``coverage`` the serving layer reports on degraded
        responses: 1.0 when the budgets match (or neither plan bounds
        candidates), smaller when ``other`` is a downgraded variant.
        """
        if self.n_candidates is None or other.n_candidates is None:
            return 1.0
        return min(1.0, other.n_candidates / self.n_candidates)


@dataclass
class ExecutionContext:
    """Per-query instrumentation filled in by the engine.

    Attributes
    ----------
    n_buckets_probed:
        Non-empty buckets (or cells / rings) fetched during retrieval;
        empty buckets a generate-to-probe method passes are not
        counted, on any path.
    n_candidates:
        Candidate ids gathered before evaluation.
    early_stop_triggered:
        Whether a Theorem 2 bound terminated retrieval before an
        occupied bucket (``search_early_stop`` / ``search_range``).
        False when every occupied bucket was probed or the candidate
        cap was reached first.
    retrieval_seconds / evaluation_seconds / total_seconds:
        Wall time of the coarse stages as measured by the engine's
        spans (:mod:`repro.obs.spans`).  For a single query
        (:meth:`QueryEngine.execute`, ``DynamicHashIndex.search``, the
        Theorem 2 modes) ``retrieval_seconds`` covers the retrieve +
        dedup_budget stages together and ``total_seconds`` is the
        query's root span, which holds the query's hashing and bucket
        scoring too.  The Theorem 2 scan computes its chunks' exact
        distances inside dedup_budget, where its stopping rule needs
        them; its evaluate stage only ranks them.  On the streams batch
        path ``retrieval_seconds`` is the query's own drain span; on the
        ordered batch path it is the batch's retrieval span (bucket
        scoring included) divided by the batch size — an average, not
        a per-query measurement.  On both batch paths
        ``evaluation_seconds`` is likewise the batch's evaluation span
        divided by the batch size, and ``total_seconds`` the sum of the
        query's stage times.
    stage_seconds:
        Wall time of each executed pipeline stage, keyed by stage name
        (``"retrieve"``, ``"dedup_budget"``, ``"evaluate"``).  A single
        query records every stage; batch rows record none (their times
        are the batch's spans, split).
    bucket_sizes:
        Per-probed-bucket candidate counts, recorded only when the
        trace sampler selected this query (``None`` otherwise); part of
        the sampled-trace payload, not of :meth:`as_dict`.
    """

    n_buckets_probed: int = 0
    n_candidates: int = 0
    early_stop_triggered: bool = False
    retrieval_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    total_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    bucket_sizes: list[int] | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        """The stats as a plain dict (JSON-friendly)."""
        return {
            "n_buckets_probed": int(self.n_buckets_probed),
            "n_candidates": int(self.n_candidates),
            "early_stop_triggered": bool(self.early_stop_triggered),
            "retrieval_seconds": float(self.retrieval_seconds),
            "evaluation_seconds": float(self.evaluation_seconds),
            "total_seconds": float(self.total_seconds),
            "stages": {
                name: float(seconds)
                for name, seconds in self.stage_seconds.items()
            },
        }


# -- top-k selection --------------------------------------------------

def top_k(
    candidate_ids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest ``(score, id)`` pairs, ascending.

    The selection rule shared by every ranking path: ``argpartition`` to
    the cut, then a ``(score, id)`` lexsort of the survivors.  Every
    score below the boundary (the ``keep``-th smallest) is inside the
    partition, so more than ``keep`` candidates at or below it means a
    run of tied scores straddles the cut — the partition then holds an
    arbitrary part of the run, and the survivors are re-derived from
    all of those candidates.
    """
    n = len(candidate_ids)
    if not n:
        return _EMPTY_IDS, _EMPTY_DISTS
    keep = min(k, n)
    if keep < n:
        part = np.argpartition(scores, keep - 1)[:keep]
        at_or_below = scores <= scores[part[-1]]
        if np.count_nonzero(at_or_below) > keep:
            part = np.flatnonzero(at_or_below)
    else:
        part = np.arange(n)
    chosen = part[np.lexsort((candidate_ids[part], scores[part]))[:keep]]
    return candidate_ids[chosen], scores[chosen]


# -- table contract ---------------------------------------------------

class RankedTable(Protocol):
    """The buckets the ordered kernel ranks and gathers from.

    A static :class:`~repro.index.hash_table.HashTable`, or the
    published :class:`~repro.index.dynamic.BucketLayout` of a dynamic
    table.  ``dense_layout()`` starts with the signatures (ascending)
    and sizes of its bucket slots; ``bucket_bits()`` gives the
    signatures with their float64 bits and complement;
    ``slot_table()`` maps every signature to its slot or ``-1`` (codes
    of up to :data:`~repro.index.codes.MAX_SLOT_BITS` bits);
    ``gather(positions)`` returns the ids of those slots and each
    slot's id count.
    """

    @property
    def code_length(self) -> int: ...

    def dense_layout(self) -> tuple[np.ndarray, ...]: ...

    def bucket_bits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def slot_table(self) -> np.ndarray: ...

    def gather(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...


# -- the evaluator ----------------------------------------------------

class ExactEvaluator:
    """Exact re-rank against raw vectors under a registered metric.

    ``data`` may be the ``(n, d)`` array itself or a zero-argument
    callable returning it — the latter lets mutable indexes (whose item
    storage is reallocated as it grows) stay wired to live storage.

    A fixed float64 array under the Euclidean metric also gets a
    float32 copy, the *screen*, with each row's squared norm in
    float64: :meth:`distances` asked for a top-``k`` or a ``limit``
    bounds every candidate's distance from the copy first and runs the
    float64 kernel only on those that could rank (see
    :func:`_screened_distances`).  Callable storage and the angular
    metrics have no copy and always score in float64.

    ``order``, a permutation of the item ids, stores the screen's rows
    in that order (row ``j`` holds item ``order[j]``) with an id → row
    map, so candidates that sit together in ``order`` are read as
    contiguous runs.  :class:`~repro.search.searcher.HashIndex` passes
    its first table's :attr:`~repro.index.hash_table.HashTable.sorted_ids`,
    where every bucket is one run.  ``None`` keeps id order; without a
    screen ``order`` is unused.
    """

    def __init__(
        self,
        data: np.ndarray | Callable[[], np.ndarray],
        metric: str = "euclidean",
        order: np.ndarray | None = None,
    ) -> None:
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; options: {sorted(METRICS)}"
            )
        self._data = data
        self.metric = metric
        self._screen: np.ndarray | None = None
        # Screen row of each id; None when the screen is in id order.
        self._screen_rows: np.ndarray | None = None
        # ‖x̃‖² of each screen row, and the largest finite one.
        self._screen_norms = _EMPTY_DISTS
        self._screen_top = 0.0
        if (
            metric == "euclidean"
            and isinstance(data, np.ndarray)
            and data.dtype == np.float64
            and data.shape[1] <= _SCREEN_MAX_DIM
        ):
            # Items beyond float32's range become inf; the screen
            # re-scores every candidate of such a row.
            with np.errstate(over="ignore"):
                if order is None:
                    self._screen = data.astype(np.float32)
                else:
                    self._screen, self._screen_rows = _ordered_screen(
                        data, order
                    )
            self._screen_norms, self._screen_top = _screen_norms(
                self._screen
            )

    @property
    def screen_bytes(self) -> int:
        """Bytes held by the float32 screen copy, its float64 row norms
        and its id → row map.

        0 when there is no screen.
        """
        if self._screen is None:
            return 0
        rows = self._screen_rows
        return (
            int(self._screen.nbytes) + int(self._screen_norms.nbytes)
            + (0 if rows is None else rows.nbytes)
        )

    def _vectors(self) -> np.ndarray:
        return self._data() if callable(self._data) else self._data

    def distances(
        self,
        query: np.ndarray,
        candidates: np.ndarray,
        counts: np.ndarray | None = None,
        *,
        k: int | None = None,
        limit: float = np.inf,
    ) -> np.ndarray:
        """Exact distances to ``candidates``, aligned — no selection.

        ``query`` is one 1-D vector whose candidates are all of
        ``candidates``; or, with ``counts``, the ``(B, d)`` rows of a
        ragged block, whose row ``i`` owns the next ``counts[i]`` ids of
        the row-stacked ``candidates``.  :meth:`QueryEngine.run` scores
        every block it ranks with one call, and a gather that must
        score its candidates to know when to stop (the Theorem 2 scan
        behind early stop and range search, one call per chunk) calls
        it too, so exact scoring stays inside the engine's evaluator
        instead of leaking into each index class.  Every operation is
        row-wise, so one query's distances carry the same bits whether
        it is scored alone, in chunks, or inside a batch.

        ``k`` and ``limit`` say which distances the caller will use:
        those within ``limit`` that could be among their row's ``k``
        nearest.  Each of those is exact, with the bits it has without
        them; any other candidate may read ``+inf`` instead, when the
        float32 screen proves its distance exceeds ``limit`` or its
        row's ``k``-th nearest.
        """
        if not len(candidates):
            return _EMPTY_DISTS
        if counts is None:
            query = query[np.newaxis, :]
            counts = np.array([len(candidates)], dtype=np.int64)
        # The screen can drop a candidate only below a finite threshold:
        # a finite limit, or a row with more than k candidates.
        if self._screen is not None and (
            limit < np.inf or (k is not None and int(counts.max()) > k)
        ):
            rows = self._screen_rows
            return _screened_distances(
                query, self._vectors(), self._screen, self._screen_norms,
                self._screen_top,
                candidates if rows is None else rows.take(candidates),
                candidates, counts, k, limit,
            )
        return _ragged_distances(
            query, self._vectors(), candidates, counts, self.metric
        )

    def evaluate(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest ``candidates`` to one query, ties by id."""
        return top_k(candidates, self.distances(query, candidates, k=k), k)


#: Widest vectors the float32 screen serves: its error bound's proof
#: needs ``d · 2⁻²⁴ ≤ 0.01``.
_SCREEN_MAX_DIM = 167_772


#: Items the ordered screen converts per step.  Each step reads a
#: contiguous block of items in id order and writes it, cast to
#: float32, to its screen rows, so the fill never holds more than one
#: block beyond the copy and its map: never ``data[order]``, a
#: reordered float64 copy of the whole corpus.  The row norms are then
#: taken over as many contiguous screen rows at a time.
_SCREEN_FILL_ROWS = 4096


def _ordered_screen(
    data: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The float32 screen with row ``j`` holding ``data[order[j]]``.

    Returns it with the inverse map, each id's screen row (int32 below
    2³¹ items).
    """
    n = len(data)
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise ValueError(f"order must be a permutation of the {n} item ids")
    rows = np.full(n, -1, dtype=np.int32 if n < 2**31 else np.int64)
    rows[order] = np.arange(n, dtype=rows.dtype)
    # n writes leave a slot unset unless every id came exactly once.
    if n and int(rows.min()) < 0:
        raise ValueError(f"order must be a permutation of the {n} item ids")
    screen = np.empty(data.shape, dtype=np.float32)
    for lo in range(0, n, _SCREEN_FILL_ROWS):
        block = slice(lo, lo + _SCREEN_FILL_ROWS)
        screen[rows[block]] = data[block]
    return screen, rows


def _screen_norms(screen: np.ndarray) -> tuple[np.ndarray, float]:
    """Each screen row's ``‖x̃‖²`` in float64, and the largest finite one.

    Every float32 square is exact in float64, so only the sum rounds.
    A row beyond float32's range holds inf, and so does its norm.  The
    rows are read in place, :data:`_SCREEN_FILL_ROWS` at a time, so the
    pass holds one float64 block beyond the norms.
    """
    n = len(screen)
    norms = np.empty(n, dtype=np.float64)
    values = np.empty(
        (min(n, _SCREEN_FILL_ROWS), screen.shape[1]), dtype=np.float64
    )
    top = 0.0
    for lo in range(0, n, _SCREEN_FILL_ROWS):
        block = screen[lo:lo + _SCREEN_FILL_ROWS]
        cast, out = values[: len(block)], norms[lo:lo + len(block)]
        cast[...] = block
        np.einsum("ij,ij->i", cast, cast, out=out)
        top = max(top, float(out.max(initial=0.0, where=np.isfinite(out))))
    return norms, top


#: ``K = 1 + 2⁻²³``: the relative growth from the screen's bound on
#: ``‖x̃ − q̃‖`` to one on the float64 distance (see :func:`_screen_error`).
_SCREEN_GROWTH = 1.0 + 2.0**-23


def _screen_error(
    queries32: np.ndarray, top: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The screen's error terms per query row, ``(Q, E, w)``.

    The screen reads each candidate's *part* ``p = ‖x̃‖² − 2·x̃·q̃``
    (:func:`_screen_partials`), where ``x̃`` and ``q̃`` are the item and
    the query rounded to float32, ``‖x̃‖²`` is the row's float64 norm
    and the dot is float32.  With ``u = 2⁻²⁴``, ``v = 2⁻⁵³``, ``M =
    √top`` (the largest finite row norm), ``Q`` the float64 ``‖q̃‖²``
    and ``K`` = :data:`_SCREEN_GROWTH`, the terms are::

        E = 2.05·d·u·M·√Q + 2(d + 4)·v·(M + √Q)² + 3d·2⁻¹⁵⁰
        w = 2.01·u·√Q + 3√d·2⁻¹⁵⁰

    and for every candidate whose ``p`` is finite, the float64 kernel's
    distance ``d64`` is at most :func:`_screen_upper`,
    ``K·(√(p + Q + E) + w)``, and ``p >`` :func:`_screen_cut`,
    ``(K·max(τ, 0) + w)² + E − Q``, proves ``d64 > τ``: both as
    computed in float64.  Proof, for a ``d``-dimensional query ``q``
    and item ``x``, ``D = ‖x − q‖`` and ``A = ‖x̃ − q̃‖`` in exact
    arithmetic, IEEE round-to-nearest with gradual underflow and
    ``d·u ≤ 0.01`` (:data:`_SCREEN_MAX_DIM`):

    1. Rounding to float32 moves each coordinate by at most
       ``u·|x_j| + 2⁻¹⁵⁰``, so ``x̃ − q̃`` is within ``u(‖x‖ + ‖q‖) +
       2√d·2⁻¹⁵⁰`` of ``x − q``; with ``‖x‖ ≤ D + ‖q‖``, ``|A − D| ≤
       uD + 2u‖q‖ + 2√d·2⁻¹⁵⁰``, and ``2u‖q‖ + 2√d·2⁻¹⁵⁰ ≤ w −
       0.99·(0.01u·√Q + √d·2⁻¹⁵⁰)``.  No corpus norm is needed.
    2. The float32 dot, in any order and with or without FMA or a wider
       accumulator, is within ``γ_d·Σ|x̃_j·q̃_j| + 1.011·d·2⁻¹⁵⁰`` of
       ``x̃·q̃``, with ``γ_d = du/(1 − du) ≤ 1.0102·du`` and the sum at
       most ``‖x̃‖·‖q̃‖ ≤ M·√Q`` up to float64 rounding.  Every float32
       square is exact in float64, so ``‖x̃‖²`` and ``Q`` are within
       ``1.0102·dv`` of exact relatively; the two subtractions forming
       ``p`` add at most ``2.01v·(‖x̃‖ + ‖q̃‖)²``.  So the exact ``s =
       p + Q`` is within ``E₀ = 2.021·d·u·M·√Q + (1.011d + 2.01)·v·(M
       + √Q)² + 2.03d·2⁻¹⁵⁰`` of ``A²``, and ``E − E₀ ≥ 0.014·E₀ +
       5.9v·(M + √Q)²``.
    3. The float64 kernel (:func:`_ragged_distances`: subtraction, a
       sum of ``d`` squares in any order, root) gives ``|d64 − D| ≤
       (1.02d + 2.03)·v·D + √d·2⁻⁵³⁷``.
    4. Upper bound: by 1 and 3, ``d64 ≤ (1 + 1.001u)·(A + w −
       0.99√d·2⁻¹⁵⁰) + √d·2⁻⁵³⁷``, and ``A ≤ √(s + E₀)``.  The two
       float64 additions under the root lose at most ``2.01v·(M +
       √Q)² + 3v·E``, less than ``E − E₀``, and the root, sum and
       product lose at most ``3v`` relatively, less than ``K``'s spare
       ``0.99u``.
    5. Cut: if ``d64 ≤ τ``, then ``τ ≥ 0`` and, by 1 and 3, ``A`` is
       below the computed ``T = K·τ + w`` by at least ``0.99u·τ +
       0.0098u·√Q + 0.98√d·2⁻¹⁵⁰``, more than ``1.6v·T``.  So ``p =
       s − Q ≤ A² + E₀ − Q ≤ (1 − 3.19v)·T² + E₀ − Q``, while the
       cut's three float64 roundings lose at most ``3.0001v·T² +
       2.0001v·E + v·Q``, which the room in ``T`` and in ``E − E₀``
       covers: ``p`` is at most the computed cut.  Hence ``p`` above
       the cut means ``d64 > τ``.

    A finite ``p`` means no float32 step overflowed (an overflow leaves
    inf or nan) and the row's items are within float32's range, so
    ``‖x̃‖ ≤ M``.  A query beyond float32's range makes ``Q``, ``E``
    and ``w`` inf and its cut nan: nothing of its row is dropped.
    """
    dim = queries32.shape[1]
    squares = np.einsum("ij,ij->i", queries32, queries32, dtype=np.float64)
    norms = np.sqrt(squares)
    top_norm = math.sqrt(top)
    err = 2.05 * dim * 2.0**-24 * top_norm * norms
    err += 2.0 * (dim + 4) * 2.0**-53 * (top_norm + norms) ** 2
    err += 3.0 * dim * 2.0**-150
    slack = 2.01 * 2.0**-24 * norms + 3.0 * math.sqrt(dim) * 2.0**-150
    return squares, err, slack


def _screen_upper(
    parts: np.ndarray, squares: np.ndarray, err: np.ndarray, slack: np.ndarray
) -> np.ndarray:
    """An upper bound on the float64 distance of each finite part
    (:func:`_screen_error`); nan for a nan part."""
    return _SCREEN_GROWTH * (np.sqrt(parts + squares + err) + slack)


def _screen_cut(
    tau: np.ndarray, squares: np.ndarray, err: np.ndarray, slack: np.ndarray
) -> np.ndarray:
    """The part above which a candidate's float64 distance exceeds
    ``tau`` (:func:`_screen_error`)."""
    return (_SCREEN_GROWTH * np.maximum(tau, 0.0) + slack) ** 2 + err - squares


def _screen_partials(
    queries32: np.ndarray,
    screen: np.ndarray,
    screen_norms: np.ndarray,
    screen_rows: np.ndarray,
    bounds: Sequence[int],
) -> np.ndarray:
    """Each candidate's part ``‖x̃‖² − 2·x̃·q̃`` on the screen.

    Candidate ``j`` is screen row ``screen_rows[j]``; row ``i`` of
    ``queries32`` owns candidates ``bounds[i]`` to ``bounds[i + 1]``.
    One float32 matrix-vector product per row gives the dots; the
    rest is float64.  A part that is not finite (an item or query
    beyond float32's range, or an overflowed dot) reads nan, which no
    comparison drops and the ``k``-th smallest skips.
    """
    dots = np.empty(len(screen_rows), dtype=np.float32)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        # An allocating take is faster than take(..., out=) here.
        dots[lo:hi] = screen.take(screen_rows[lo:hi], axis=0) @ queries32[i]
    parts = screen_norms.take(screen_rows)
    parts -= dots
    parts -= dots
    finite = np.isfinite(parts)
    if not finite.all():
        parts[~finite] = np.nan
    return parts


def _screened_distances(
    queries: np.ndarray,
    data: np.ndarray,
    screen: np.ndarray,
    screen_norms: np.ndarray,
    screen_top: float,
    screen_rows: np.ndarray,
    stacked_ids: np.ndarray,
    counts: np.ndarray,
    k: int | None,
    limit: float,
) -> np.ndarray:
    """Euclidean :func:`_ragged_distances` of the candidates that can rank.

    Reads every candidate's part ``‖x̃‖² − 2·x̃·q̃`` on the float32
    ``screen`` first (:func:`_screen_partials`), candidate ``j`` at
    ``screen[screen_rows[j]]``.  Row ``i``'s threshold ``τ`` is
    ``limit``, lowered to the :func:`_screen_upper` bound of its
    ``k``-th smallest part when the row has more than ``k`` candidates.
    A candidate whose part exceeds the row's :func:`_screen_cut` of
    ``τ`` reads ``+inf``; every other one, and every one whose part is
    not finite, goes through the float64 kernel.  Near-ties only make
    that re-scored set larger.

    The bound is monotone in the part, so each row's ``k``-th smallest
    ``d64`` is at most ``τ``, and a dropped candidate has ``d64 > τ``
    (:func:`_screen_error`): it is neither among the row's ``k``
    nearest (not even as a tie) nor within ``limit``.  The float64
    kernel is row-wise, so the re-scored candidates carry exactly the
    bits of scoring them all.
    """
    bounds = [0, *accumulate(counts.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        queries32 = queries.astype(np.float32)
        squares, err, slack = _screen_error(queries32, screen_top)
        parts = _screen_partials(
            queries32, screen, screen_norms, screen_rows, bounds
        )
        tau = np.full(len(counts), limit, dtype=np.float64)
        if k is not None:
            kth = np.full(len(counts), np.nan)
            for row in np.flatnonzero(counts > k).tolist():
                seg = parts[bounds[row]:bounds[row + 1]]
                kth[row] = np.partition(seg, k - 1)[k - 1]
            # fmin skips a nan bound (a nan k-th part): no cut.
            tau = np.fmin(tau, _screen_upper(kth, squares, err, slack))
        cut = _screen_cut(tau, squares, err, slack)
        drop = parts > np.repeat(cut, counts)
    rescored = np.flatnonzero(~drop)
    out = np.full(len(stacked_ids), np.inf)
    out[rescored] = _ragged_distances(
        queries, data, stacked_ids[rescored],
        np.diff(np.searchsorted(rescored, bounds)), "euclidean",
    )
    return out


_RAGGED_METRICS = ("euclidean", "cosine", "angular")


def _ragged_distances(
    queries: np.ndarray,
    data: np.ndarray,
    stacked_ids: np.ndarray,
    counts: np.ndarray,
    metric: str,
    row_block: int = 4096,
) -> np.ndarray:
    """Each query's distances to its own candidate segment, in one pass.

    ``stacked_ids`` is the row-stacked concatenation of every query's
    candidate ids into ``data`` and ``counts[i]`` the length of query
    ``i``'s segment.  A few einsum calls score the whole ragged block —
    no ``B × |union|`` distance matrix (which degenerates into a full
    linear scan when candidate sets barely overlap) and no per-query
    BLAS calls.  The euclidean path computes ``‖q − x‖`` from the
    difference vector directly, avoiding the catastrophic cancellation
    of the ``‖q‖² − 2q·x + ‖x‖²`` expansion, so self-distances come out
    exactly zero.

    The block is processed in cache-sized chunks of whole segments
    (~``row_block`` rows): one giant pass materialises several
    ``(total, d)`` temporaries, which on a memory-bound machine costs
    more than the arithmetic itself.  Chunking never splits a segment
    and every op is row-wise, so results are bit-identical whatever the
    chunk size — the per-query path reuses this function with a single
    segment and gets the exact same numbers.
    """
    if metric not in _RAGGED_METRICS:
        raise KeyError(f"unknown metric {metric!r}")
    bounds = [0, *accumulate(counts.tolist())]
    out = np.empty(bounds[-1], dtype=np.float64)
    euclidean = metric == "euclidean"
    n_segments = len(counts)
    lo = 0
    while lo < n_segments:
        hi = lo + 1
        while hi < n_segments and bounds[hi + 1] - bounds[lo] <= row_block:
            hi += 1
        seg = slice(bounds[lo], bounds[hi])
        # ``take`` gathers rows measurably faster than fancy indexing
        # and copies the same values.
        vectors = data.take(stacked_ids[seg], axis=0)
        if euclidean:
            # Broadcast-subtract each query over its own rows instead of
            # materialising a repeated-queries block: per row the
            # arithmetic is identical, but the big temporary (and its
            # memory traffic) disappears.
            for q in range(lo, hi):
                vectors[
                    bounds[q] - bounds[lo]:bounds[q + 1] - bounds[lo]
                ] -= queries[q]
            out[seg] = np.einsum("ij,ij->i", vectors, vectors)
        else:
            expanded = np.repeat(queries[lo:hi], counts[lo:hi], axis=0)
            query_norms = np.linalg.norm(expanded, axis=1)
            vector_norms = np.linalg.norm(vectors, axis=1)
            query_norms[query_norms == 0] = 1.0
            vector_norms[vector_norms == 0] = 1.0
            sims = np.einsum("ij,ij->i", expanded, vectors)
            sims /= query_norms * vector_norms
            out[seg] = sims
        lo = hi
    if euclidean:
        return np.sqrt(out, out=out)
    np.clip(out, -1.0, 1.0, out=out)
    if metric == "cosine":
        return np.subtract(1.0, out, out=out)
    return np.arccos(out, out=out)


#: Rows the ordered kernel ranks at a time.  A block's score rows take
#: about 18 bytes per row per occupied bucket.  On bulk-recall's index
#: (2-core x86_64), scoring every row, a 256-row batch took 88–90 ms
#: with blocks of 32 or 64 rows, 94 ms with 128 and 108 ms with 256.
_SCORE_BLOCK = 64


def _prefix_width(sizes: np.ndarray, budget: int) -> int:
    """Probe-order columns that likely hold a row's budget.

    Four times the budget's worth of mean-sized buckets, at least 16 and
    at most every bucket.
    """
    n_buckets = len(sizes)
    # The integer sum is exact and several times faster than mean().
    mean_size = max(int(sizes.sum()) / n_buckets, 1.0) if n_buckets else 1.0
    return int(min(n_buckets, max(16, 4 * budget / mean_size + 1)))


def _probe_prefix(
    scores: np.ndarray,
    signatures: np.ndarray,
    sizes: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe orders and their cumulative bucket sizes, per row.

    Returns only the shortest column prefix that satisfies every
    query's candidate budget: sorting and cumulating all ``nb`` bucket
    columns is wasted work when the budget is met after a few dozen
    buckets, so this orders a prefix of ``W`` columns, starting at
    :func:`_prefix_width` and growing ``W`` ×4 until every row reaches
    the budget or runs out of buckets.
    """
    n_buckets = scores.shape[1]
    width = _prefix_width(sizes, budget)
    while True:
        if width >= n_buckets:
            order = _probe_order(scores, signatures)
        else:
            order = _probe_order_prefix(scores, signatures, width)
        cumulative = np.cumsum(sizes[order], axis=1)
        if width >= n_buckets or cumulative[:, -1].min() >= budget:
            return order, cumulative
        width = min(n_buckets, width * 4)


def _bucket_scores(
    prober: BucketProber,
    table: RankedTable,
    query_signatures: np.ndarray,
    cost_matrix: np.ndarray,
) -> np.ndarray:
    """``prober``'s ``(B, nb)`` scores of ``table``'s bucket slots.

    Row ``i`` scores every slot of ``table.dense_layout()`` for the
    query with signature ``query_signatures[i]`` and flip costs
    ``cost_matrix[i]``.  Only for a prober that implements
    ``batch_scores``: the base returns ``None``.
    """
    signatures, bits, complement = table.bucket_bits()
    return cast(np.ndarray, prober.batch_scores(
        signatures,
        bits,
        query_signatures,
        unpack_bits(query_signatures, table.code_length),
        cost_matrix,
        complement,
    ))


def _ranked_prefixes(
    prober: BucketProber,
    table: RankedTable,
    probe_infos: Sequence[tuple[int, np.ndarray]],
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's probe order up to its stop: slots, cumulative sizes, QDs.

    Row ``i`` ranks ``table``'s slots for the ``i``-th ``(signature,
    flip_costs)`` of ``probe_infos`` in ascending ``(score,
    signature)`` order; its stop is the first slot whose cumulative
    size reaches ``budget`` (the last slot when none does).  Returns
    ``(order, cumulative, scores, stops)``, the first three
    ``(rows, W)`` with only each row's columns up to ``stops[i]``
    meaningful.

    When the prober has a generation-tree prefix
    (``prober.tree_prefix``) of about twice :func:`_prefix_width`'s
    width, rounded up to a power of two, and the table has more slots
    than it holds masks and a slot table (at most
    :data:`~repro.index.codes.MAX_SLOT_BITS` bits), the rows are ranked
    from that prefix (:meth:`~repro.core.tree_prefix.TreePrefix.rank`).
    Only the rows it does not certify are scored with ``batch_scores``
    and ordered by :func:`_probe_prefix`; a certified row's answer is
    theirs exactly.
    """
    signatures, sizes = table.dense_layout()[:2]
    query_signatures = np.fromiter(
        (signature for signature, _ in probe_infos),
        dtype=np.int64,
        count=len(probe_infos),
    )
    cost_matrix = np.stack([costs for _, costs in probe_infos])
    size = 1 << (2 * _prefix_width(sizes, budget) - 1).bit_length()
    prefix = (
        prober.tree_prefix(table.code_length, size)
        if table.code_length <= MAX_SLOT_BITS and size < len(signatures)
        else None
    )
    if prefix is None:
        rest = np.arange(len(probe_infos))
    else:
        ranked = prefix.rank(
            query_signatures, cost_matrix, table.slot_table(), sizes, budget
        )
        rest = np.flatnonzero(~ranked.certified)
        if not len(rest):
            return ranked.order, ranked.cumulative, ranked.scores, ranked.stops
    scores = _bucket_scores(
        prober, table, query_signatures[rest], cost_matrix[rest]
    )
    order, cumulative = _probe_prefix(scores, signatures, sizes, budget)
    stops = np.minimum((cumulative < budget).sum(axis=1), order.shape[1] - 1)
    scores = np.take_along_axis(scores, order, axis=1)
    if prefix is None:
        return order, cumulative, scores, stops
    # Certified rows from the tree, the rest from their score rows,
    # each up to its stop.
    certified = ranked.certified
    width = 1 + max(int(ranked.stops.max(initial=0, where=certified)),
                    int(stops.max()))
    merged: list[np.ndarray] = []
    for tree, scored in zip(ranked[1:4], (order, cumulative, scores)):
        out = np.zeros((len(probe_infos), width), dtype=tree.dtype)
        out[certified, :tree.shape[1]] = tree[certified, :width]
        out[rest, :scored.shape[1]] = scored[:, :width]
        merged.append(out)
    all_stops = ranked.stops.copy()
    all_stops[rest] = stops
    return merged[0], merged[1], merged[2], all_stops


#: What a gather hands :meth:`QueryEngine.run`: flat candidate ids,
#: per-query counts, and the candidates' distances when already scored.
Gathered = tuple[np.ndarray, np.ndarray, np.ndarray | None]


def _record_retrieval(
    contexts: list[ExecutionContext],
    retrieve: obs.Span,
    cut: obs.Span,
    single: bool,
) -> None:
    """Charge a gather's retrieve and dedup_budget spans to its queries.

    Split evenly over a batch; a single query also records them as its
    ``retrieve`` and ``dedup_budget`` stage times.
    """
    spent = retrieve.duration + cut.duration
    for ctx in contexts:
        ctx.retrieval_seconds = spent / len(contexts)
    if single:
        contexts[0].stage_seconds["retrieve"] = retrieve.duration
        contexts[0].stage_seconds["dedup_budget"] = cut.duration


def _probe_order_prefix(
    scores: np.ndarray, signatures: np.ndarray, width: int
) -> np.ndarray:
    """First ``width`` columns of each row's ``(score, signature)`` order.

    An argpartition narrows each row to its ``width`` best buckets
    before the (much smaller) sort.  Integer scores use the same
    collision-free composite key as :func:`_probe_order`; float rows
    whose partition cut lands inside a run of tied scores — where
    argpartition admits an arbitrary subset of the tie — are re-derived
    from a full stable sort.
    """
    if scores.dtype.kind in "iu":
        span = int(signatures[-1]) + 1 if len(signatures) else 1
        magnitude = max(
            abs(int(scores.max(initial=0))), abs(int(scores.min(initial=0)))
        )
        if magnitude <= (np.iinfo(np.int64).max - span) // max(span, 1):
            keys = scores.astype(np.int64) * span + signatures
            part = np.argpartition(keys, width - 1, axis=-1)[:, :width]
            inner = np.argsort(
                np.take_along_axis(keys, part, axis=-1), axis=-1
            )
            return np.take_along_axis(part, inner, axis=-1)
        return np.argsort(scores, axis=-1, kind="stable")[:, :width]
    part = np.argpartition(scores, width - 1, axis=-1)[:, :width]
    part_scores = np.take_along_axis(scores, part, axis=-1)
    # Column index doubles as the signature rank, signatures ascending.
    inner = np.lexsort((part, part_scores), axis=-1)
    order = np.take_along_axis(part, inner, axis=-1)
    ranked = np.take_along_axis(part_scores, inner, axis=-1)
    boundary = ranked[:, -1][:, np.newaxis]
    tied_at_cut = np.nonzero(
        (scores == boundary).sum(axis=-1) != (ranked == boundary).sum(axis=-1)
    )[0]
    for row in tied_at_cut:
        order[row] = np.argsort(scores[row], kind="stable")[:width]
    return order


def _probe_order(scores: np.ndarray, signatures: np.ndarray) -> np.ndarray:
    """Per-row probe order: ascending ``(score, signature)``, vectorised.

    ``signatures`` arrive ascending, so a stable sort on score alone
    yields the probers' lexicographic tie-break.  Stable sorts are
    several times slower than quicksort here, so: integer scores get a
    collision-free composite ``score·span + signature`` key (unique →
    any sort kind agrees with the stable order); float scores get a
    quicksort plus a stable re-sort of only the rows that contain
    duplicate scores — rare for continuous quantization distances.
    """
    if scores.dtype.kind in "iu":
        span = int(signatures[-1]) + 1 if len(signatures) else 1
        magnitude = max(
            abs(int(scores.max(initial=0))), abs(int(scores.min(initial=0)))
        )
        if magnitude <= (np.iinfo(np.int64).max - span) // max(span, 1):
            keys = scores.astype(np.int64) * span + signatures
            return np.argsort(keys, axis=-1)
        return np.argsort(scores, axis=-1, kind="stable")
    order = np.argsort(scores, axis=-1)
    ranked = np.take_along_axis(scores, order, axis=-1)
    tied_rows = np.nonzero((np.diff(ranked, axis=-1) == 0.0).any(axis=-1))[0]
    for row in tied_rows:
        order[row] = np.argsort(scores[row], kind="stable")
    return order


# -- multi-table stream composition -----------------------------------

def round_robin_stream(
    streams: list[Iterator[int]],
    tables: list,
    num_items: int,
) -> Iterator[np.ndarray]:
    """One bucket from each table's probe order in turn, deduplicated.

    The paper's multi-hash-table strategy (Section 6.3.5): strict
    alternation across tables; an item seen in an earlier table is
    suppressed when later tables yield it again.
    """
    seen = np.zeros(num_items, dtype=bool)
    active = list(zip(streams, tables))
    while active:
        still_active = []
        for stream, table in active:
            bucket = next(stream, None)
            if bucket is None:
                continue
            still_active.append((stream, table))
            ids = table.get(bucket)
            if len(ids):
                fresh = ids[~seen[ids]]
                if len(fresh):
                    seen[fresh] = True
                    yield fresh
        active = still_active


# -- the engine -------------------------------------------------------

class QueryEngine:
    """Execute :class:`QueryPlan` instances over candidate streams.

    One engine per index: it owns the :class:`ExactEvaluator` (the
    evaluation stage's scoring rule) while each call supplies the plan
    and the retrieval stream, so all indexes share a single
    instrumented control flow.  Every entry point gathers a ragged
    candidate block and runs the same body over it (evaluate → results
    → telemetry).

    ``name`` labels this engine's series in the metrics registry
    (``repro_queries_total{index="hash"}``, …) when telemetry is on.

    Serving-layer hook (optional, off by default): ``cache`` — a
    :class:`~repro.search.cache.QueryResultCache`; every entry point
    (:meth:`execute`, ``HashIndex.search_batch``) consults it through
    :meth:`run_cached` before running a cacheable plan and stores the
    results after.  Keys include this engine's identity token and
    :attr:`generation`, which mutating indexes bump via
    :meth:`bump_generation` on every add/remove — entries from an
    older generation can never be returned again.
    """

    def __init__(
        self,
        evaluator: ExactEvaluator,
        name: str = "index",
        cache: QueryResultCache | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.name = name
        self.cache = cache
        self.generation = 0
        # A mutable index (`DynamicHashIndex`) bumps the generation from
        # whatever writer thread runs its add/remove, while other threads
        # search, and `+=` is not atomic under the GIL.  Reads (cache
        # keys) stay lock-free: a torn read just misses the cache.
        self._generation_lock = threading.Lock()
        self._cache_token = cache_token(name)

    def bump_generation(self) -> None:
        """Invalidate every cached result produced by this engine.

        Called by mutable indexes after any change to the indexed items;
        the generation number participates in every cache key, so prior
        entries become unreachable (and age out of the LRU) rather than
        ever being served stale.
        """
        with self._generation_lock:
            self.generation += 1

    def lookup(
        self, queries: np.ndarray, plan: QueryPlan
    ) -> tuple[list[CacheKey], list[SearchResult | None]] | None:
        """Look ``queries`` up in the :attr:`cache` without computing.

        Each row's key is the engine token, generation, the plan's stage
        list and the query fingerprint.  Returns the keys and the stored
        results (``None`` where a row misses), in row order, or ``None``
        when no cache is attached or the plan is not cacheable.
        :meth:`run_cached` keys through this method, so an admission
        lookup and the batch that follows it agree on every key.
        """
        cache = self.cache if QueryResultCache.cacheable(plan) else None
        if cache is None:
            return None
        keys = cache.keys_for(self._cache_token, self.generation, plan, queries)
        return keys, [cache.lookup(key) for key in keys]

    def run_cached(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        compute: Callable[[np.ndarray], list[SearchResult]],
    ) -> list[SearchResult]:
        """Answer ``queries`` from the :attr:`cache`, computing the misses.

        The one cache path every entry point runs.  With a cache
        attached and a cacheable plan, each row is looked up
        (:meth:`lookup`); rows that miss and share a key collapse onto
        one row, ``compute`` runs once on the distinct misses (not at
        all when every row hits), and their results are stored.
        Otherwise ``compute`` runs on every row.  ``compute`` takes a
        ``(m, dim)`` query block and returns its ``m`` results in row
        order; the returned list aligns with ``queries``.
        """
        found = self.lookup(queries, plan)
        if found is None:
            return compute(queries)
        keys, hits = found
        # First row of each distinct missed key, in row order.
        missed: dict[CacheKey, int] = {}
        for row, hit in enumerate(hits):
            if hit is None:
                missed.setdefault(keys[row], row)
        if not missed:
            return cast(list[SearchResult], hits)
        rows = list(missed.values())
        block = queries if len(rows) == len(queries) else queries[rows]
        computed = dict(zip(missed, compute(block), strict=True))
        cache = cast(QueryResultCache, self.cache)
        for key, result in computed.items():
            cache.store(key, result)
        return [
            computed[key] if hit is None else hit
            for key, hit in zip(keys, hits, strict=True)
        ]

    def execute(
        self,
        query: np.ndarray,
        plan: QueryPlan,
        stream: Iterable[np.ndarray],
    ) -> SearchResult:
        """Run ``plan`` over ``stream`` — one query, a batch of one.

        Returns a :class:`~repro.search.results.SearchResult` whose
        ``extras["stats"]`` carries the :class:`ExecutionContext` and
        ``extras["spans"]`` the root :class:`~repro.obs.spans.Span` of
        the query→stages tree.  Runs through :meth:`run_cached`: a
        cache hit returns the stored result without touching the
        stream.
        """
        [result] = self.run_cached(
            query[np.newaxis],
            plan,
            lambda block: self.execute_batch_streams(
                block, plan, [stream], single=True
            ),
        )
        return result

    def execute_probed(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        prober: BucketProber,
        table: RankedTable,
        probe_infos: Callable[[], Sequence[tuple[int, np.ndarray]]],
        streams: Callable[[], list[Iterable[np.ndarray]]],
        *,
        single: bool = False,
    ) -> list[SearchResult]:
        """Rank ``table``'s buckets if ``prober`` can, else stream them.

        ``probe_infos()`` returns each row's ``(signature,
        flip_costs)``.  When the table has buckets and ``prober``
        implements ``batch_scores``, the rows run through
        :meth:`execute_batch_ordered`, which hashes once and ranks each
        block of rows inside its retrieve span; otherwise ``streams()``
        builds one candidate stream per row for
        :meth:`execute_batch_streams`.  Either way a single query's
        hashing and ranking count in its root span.  Uncached: callers
        go through :meth:`run_cached` first.  ``single`` marks one row
        with per-query telemetry (see :meth:`run`).
        """
        if (
            not len(table.dense_layout()[0])
            or type(prober).batch_scores is BucketProber.batch_scores
        ):
            return self.execute_batch_streams(
                queries, plan, streams(), single=single
            )
        return self.execute_batch_ordered(
            queries, plan, prober, table, probe_infos, single=single
        )

    def execute_batch_streams(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        streams: list[Iterable[np.ndarray]],
        *,
        single: bool = False,
    ) -> list[SearchResult]:
        """Batched execution over per-query candidate streams.

        Retrieval stays per-query (each stream's probe order is exactly
        the per-query path's, and each query's ``retrieval_seconds`` is
        its own drain), but evaluation is amortised across the whole
        block.  ``queries`` and ``streams`` must align one to one.
        """
        streams = list(streams)
        if len(queries) != len(streams):
            raise ValueError(
                f"queries and streams must align: got {len(queries)} "
                f"queries for {len(streams)} streams"
            )

        def drain(contexts: list[ExecutionContext]) -> Gathered:
            per_query: list[np.ndarray] = []
            for stream, ctx in zip(streams, contexts):
                with obs.span("retrieve") as retrieve:
                    source = iter(stream)
                with obs.span("dedup_budget") as dedup:
                    per_query.append(drain_stream(source, plan, ctx))
                _record_retrieval([ctx], retrieve, dedup, single)
            counts = np.fromiter(
                (len(ids) for ids in per_query),
                dtype=np.int64,
                count=len(per_query),
            )
            flat = np.concatenate(per_query) if per_query else _EMPTY_IDS
            return flat, counts, None

        return self.run(queries, plan, drain, single=single)

    def execute_batch_ordered(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        prober: BucketProber,
        table: RankedTable,
        probe_infos: Callable[[], Sequence[tuple[int, np.ndarray]]],
        *,
        single: bool = False,
    ) -> list[SearchResult]:
        """Batched execution from ranked bucket prefixes.

        The fast path behind ``search_batch`` and
        ``DynamicHashIndex.search``.  Inside the retrieve span, blocks
        of :data:`_SCORE_BLOCK` rows are ranked by
        :func:`_ranked_prefixes` (``probe_infos()``, called once, gives
        each row's ``(signature, flip_costs)``): every query's probe
        order is ascending ``(score, bucket signature)`` over the
        slots of ``table.dense_layout()`` — the order the sorting
        probers (and, over occupied buckets, GQR) produce.  Rows a
        certified generation-tree prefix ranks are never scored; the
        others get one ``batch_scores`` call per block and a vectorised
        argsort instead of a generator walk per row.  The whole batch's
        candidates come from one cumulative-sum gather.  Blocking
        bounds the score and order temporaries, which grow with rows ×
        occupied buckets; each row's order and cut do not depend on its
        block.  Each row's counts come from the ids actually gathered,
        so slots of size 0 (a dynamic table's emptied buckets) are not
        counted as probed.
        """
        budget = plan.n_candidates
        if budget is None:
            raise ValueError("batched execution needs a candidate budget")

        def gather(contexts: list[ExecutionContext]) -> Gathered:
            with obs.span("retrieve") as retrieve:
                infos = probe_infos()
                probed_slots: list[np.ndarray] = []
                block_stops: list[np.ndarray] = []
                for lo in range(0, len(queries), _SCORE_BLOCK):
                    order, _, _, stops = _ranked_prefixes(
                        prober, table, infos[lo:lo + _SCORE_BLOCK], budget
                    )
                    # Each row's probed prefix: its order up to the stop.
                    probed_slots.append(order[
                        np.arange(order.shape[1])[np.newaxis, :]
                        <= stops[:, np.newaxis]
                    ])
                    block_stops.append(stops)
            with obs.span("dedup_budget") as cut:
                # Ragged gather of every query's probed buckets in one shot.
                candidates, lengths = table.gather(
                    np.concatenate(probed_slots)
                )
                stops = np.concatenate(block_stops)
                starts = np.concatenate(([0], np.cumsum(stops + 1)[:-1]))
                counts = np.add.reduceat(lengths, starts)
                probed = np.add.reduceat(
                    (lengths > 0).astype(np.int64), starts
                )
                for ctx, start, stop, count, n_probed in zip(
                    contexts, starts, stops, counts, probed
                ):
                    ctx.n_buckets_probed = int(n_probed)
                    ctx.n_candidates = int(count)
                    if ctx.bucket_sizes is not None:
                        segment = lengths[start:start + stop + 1]
                        ctx.bucket_sizes.extend(
                            segment[segment > 0].tolist()
                        )
            _record_retrieval(contexts, retrieve, cut, single)
            return candidates, counts, None

        return self.run(queries, plan, gather, single=single)

    def run(
        self,
        queries: np.ndarray,
        plan: QueryPlan,
        gather: Callable[[list[ExecutionContext]], Gathered],
        single: bool = False,
    ) -> list[SearchResult]:
        """The one body every entry point runs.

        ``gather`` records each query's retrieval facts into its context
        and returns the ragged candidate block: flat ids, per-query
        counts and, when it scored the candidates itself (the Theorem 2
        scan), their distances, else ``None``.  The body scores an
        unscored block with one :meth:`ExactEvaluator.distances` call,
        whatever its row count, passing ``k`` so the evaluator may
        screen out candidates that cannot rank, ranks each query's
        segment to ``k`` with :func:`top_k` (ties break by id),
        assembles the results and records telemetry.  Index adapters
        call it with their own ``gather``; every other entry point of
        this class builds one.

        ``single`` marks a batch of one run as a query of its own
        (:meth:`execute`, ``DynamicHashIndex.search``, the Theorem 2
        modes): it runs under its own ``query`` root span (retrieve,
        dedup_budget, evaluate), may be trace-sampled, and its
        total is the root span.  Batch rows share batch-level spans and
        run no per-row stages; their total is the sum of their
        retrieval and evaluation shares.
        """
        contexts = [ExecutionContext() for _ in range(len(queries))]
        sampled = single and obs.should_sample()
        if sampled:
            contexts[0].bucket_sizes = []
        scope: AbstractContextManager[obs.Span | None] = (
            obs.span("query") if single else nullcontext()
        )
        with scope as root:
            candidates, counts, scored = gather(contexts)
            with obs.span("evaluate") as evaluate:
                if scored is None:
                    scored = self.evaluator.distances(
                        queries, candidates, counts, k=plan.k
                    )
                ends = list(accumulate(counts.tolist()))
                ranked = [
                    top_k(candidates[lo:hi], scored[lo:hi], plan.k)
                    for lo, hi in zip([0, *ends], ends)
                ]
            for ctx in contexts:
                ctx.evaluation_seconds = evaluate.duration / len(contexts)
            if single:
                contexts[0].stage_seconds["evaluate"] = evaluate.duration
            results = [
                SearchResult(
                    ids,
                    scores,
                    ctx.n_candidates,
                    ctx.n_buckets_probed,
                    {"stats": ctx},
                )
                for ctx, (ids, scores) in zip(contexts, ranked)
            ]
        if root is not None:
            contexts[0].total_seconds = root.duration
            results[0].extras["spans"] = root
            obs.observe_query(
                self.name, contexts[0], root=root, sampled=sampled
            )
            return results
        for ctx in contexts:
            ctx.total_seconds = ctx.retrieval_seconds + ctx.evaluation_seconds
        obs.observe_batch(self.name, contexts)
        return results
