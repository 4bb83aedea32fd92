"""Spans recorded from outside the program, around its public calls.

Only the traced run (``--trace 1``) installs these.  Every wrapper sits
on an object the benchmark itself builds and keeps the type the program
dispatches on, so the same code paths run traced and untraced:

* subclasses of the hasher (:class:`~repro.ITQ`) and the prober
  (:class:`~repro.GQR`) -- ``isinstance(..., GQR)`` still holds;
* instance attributes on the engine, its evaluator and the hash table,
  which shadow the class methods for that one object;
* a proxy index handed to the serving front door.

Spans are appended to in-memory arrays (layer, start, end, parent, work
items) and aggregated when the run ends; a layer's self time is its
spans' duration minus the part covered by their child spans.  Nothing
divides a batch span by its batch size.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Any

import numpy as np

from repro import GQR, ITQ

LAYERS = (
    "hashing",  # probe_info / probe_info_batch / encode; items = rows
    "probing.score",  # GQR.batch_scores; items = (query, bucket) pairs
    "probing.generate",  # one next() of GQR.probe_scored; items = 1
    "index.get",  # bucket fetch; items = 1 when the bucket is non-empty
    "index.write",  # DynamicHashIndex.add + remove of one churn step
    "engine.batch",  # QueryEngine.execute_batch_ordered
    "engine.execute",  # QueryEngine.execute
    "engine.evaluate",  # evaluator.evaluate / distances; items = candidates
    "searcher",  # search / search_batch / search_early_stop; items = queries
)
HASHING, SCORE, GENERATE, GET, WRITE, BATCH, EXECUTE, EVALUATE, SEARCHER = (
    range(len(LAYERS))
)


class Recorder:
    """In-memory span store; records nothing until :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._layer = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._items = array("q")

    def begin(self, layer: int) -> int:
        if not self.active:
            return -1
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self._start)
            self._layer.append(layer)
            self._parent.append(stack[-1] if stack else -1)
            self._items.append(0)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int, items: int = 0) -> None:
        if index < 0:
            return
        end = time.perf_counter()
        self._local.stack.pop()
        self._end[index] = end
        self._items[index] = items

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded span, for writing out at the end of the run."""
        return {
            "span_layer": np.frombuffer(self._layer, dtype=np.int32).copy(),
            "span_parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "span_start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "span_end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "span_items": np.frombuffer(self._items, dtype=np.int64).copy(),
        }


def aggregate(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per layer: span count, total and self seconds, summed work items."""
    layer = spans["span_layer"]
    parent = spans["span_parent"]
    duration = spans["span_end"] - spans["span_start"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(layer)
    )
    own = duration - covered
    out = {}
    for layer_id, name in enumerate(LAYERS):
        mask = layer == layer_id
        out[name] = {
            "calls": int(mask.sum()),
            "busy_s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
            "items": int(spans["span_items"][mask].sum()),
        }
    return out


def traced_types(rec: Recorder) -> tuple[type[ITQ], type[GQR]]:
    """ITQ and GQR subclasses whose public calls record spans."""

    class TracedITQ(ITQ):
        def encode(self, items: np.ndarray) -> np.ndarray:
            span = rec.begin(HASHING)
            try:
                return super().encode(items)
            finally:
                rec.finish(span, len(np.atleast_2d(items)))

        def probe_info(self, query: np.ndarray) -> tuple[int, np.ndarray]:
            span = rec.begin(HASHING)
            try:
                return super().probe_info(query)
            finally:
                rec.finish(span, 1)

        def probe_info_batch(
            self, queries: np.ndarray
        ) -> list[tuple[int, np.ndarray]]:
            span = rec.begin(HASHING)
            try:
                return super().probe_info_batch(queries)
            finally:
                rec.finish(span, len(np.atleast_2d(queries)))

    class TracedGQR(GQR):
        def batch_scores(self, *args: Any) -> np.ndarray:
            span = rec.begin(SCORE)
            scores = None
            try:
                scores = super().batch_scores(*args)
                return scores
            finally:
                rec.finish(span, 0 if scores is None else scores.size)

        def probe_scored(self, table: Any, signature: int, flip_costs: Any):
            inner = super().probe_scored(table, signature, flip_costs)
            while True:
                span = rec.begin(GENERATE)
                try:
                    item = next(inner)
                except StopIteration:
                    rec.finish(span)
                    return
                except BaseException:
                    rec.finish(span)
                    raise
                rec.finish(span, 1)
                yield item

    return TracedITQ, TracedGQR


def _shadow(obj: Any, name: str, layer: int, rec: Recorder, items: Any) -> None:
    """Replace ``obj.name`` for this one object by a span-recording call."""
    original = getattr(obj, name)

    def traced(*args: Any, **kwargs: Any) -> Any:
        span = rec.begin(layer)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            rec.finish(span, items(args, result))

    setattr(obj, name, traced)


def instrument(engine: Any, tables: list[Any], rec: Recorder) -> None:
    """Shadow the engine's, its evaluator's and the tables' public calls."""
    _shadow(engine, "execute", EXECUTE, rec, lambda a, r: 1)
    _shadow(
        engine, "execute_batch_ordered", BATCH, rec, lambda a, r: len(a[0])
    )
    evaluator = engine.evaluator
    _shadow(evaluator, "evaluate", EVALUATE, rec, lambda a, r: len(a[1]))
    _shadow(evaluator, "distances", EVALUATE, rec, lambda a, r: len(a[1]))
    for table in tables:
        _shadow(
            table, "get", GET, rec,
            lambda a, r: int(r is not None and len(r) > 0),
        )


class ServingProxy:
    """The index the traced front door calls; one span per executed batch."""

    def __init__(self, index: Any, rec: Recorder) -> None:
        self._index = index
        self._rec = rec

    def search_batch(self, queries: np.ndarray, *args: Any, **kwargs: Any):
        span = self._rec.begin(SEARCHER)
        try:
            return self._index.search_batch(queries, *args, **kwargs)
        finally:
            self._rec.finish(span, len(queries))

    def search(self, query: np.ndarray, *args: Any, **kwargs: Any):
        span = self._rec.begin(SEARCHER)
        try:
            return self._index.search(query, *args, **kwargs)
        finally:
            self._rec.finish(span, 1)
