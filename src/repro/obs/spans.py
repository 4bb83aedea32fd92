"""Span API: monotonic, nestable stage timing for the query pipeline.

A span times one named stage with :func:`time.perf_counter` and hooks
itself into the enclosing span (per-thread stack), producing a tree::

    with span("query") as root:
        with span("retrieve"):
            ...
        with span("evaluate"):
            ...
    root.duration            # total
    root.children[0].name    # "retrieve"

Spans are deliberately dumb: they only *measure*.  They never touch the
metrics registry or the sampler — recording span-derived durations into
histograms happens once per query in
:func:`repro.obs.telemetry.observe_query`, so a span costs two
``perf_counter`` calls and a few list operations whether telemetry is
enabled or not.  That keeps the disabled path within noise of the
inline arithmetic it replaced (``benchmarks/bench_obs_overhead.py``
measures both), while the per-query
:class:`~repro.search.engine.ExecutionContext` keeps getting real
numbers even with the registry off.

Reprolint rule RL009 makes this module the only legitimate home of
``perf_counter`` in ``repro.search`` / ``repro.index``: stage timing
goes through spans, and code that needs a raw monotonic timestamp
(e.g. the engine's ``time_budget`` deadline) uses :data:`now`.
"""

from __future__ import annotations

import threading
from time import perf_counter

__all__ = ["Span", "current_span", "now", "span"]

#: Monotonic timestamp in seconds — the one sanctioned clock for
#: deadline arithmetic outside this module (see RL009).
now = perf_counter

_LOCAL = threading.local()


def _stack() -> list[Span]:
    try:
        return _LOCAL.stack  # type: ignore[no-any-return]
    except AttributeError:
        stack: list[Span] = []
        _LOCAL.stack = stack
        return stack


class Span:
    """One timed stage; use as a context manager (see :func:`span`)."""

    __slots__ = ("name", "duration", "children", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.duration = 0.0
        self.children: list[Span] = []
        self._start = 0.0

    def __enter__(self) -> Span:
        _stack().append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.duration = perf_counter() - self._start
        stack = _stack()
        stack.pop()
        if stack:
            stack[-1].children.append(self)

    def child_duration(self, name: str) -> float:
        """Summed duration of direct children named ``name``."""
        return sum(c.duration for c in self.children if c.name == name)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready span tree (the sampled-trace schema's span form)."""
        return {
            "name": self.name,
            "duration_seconds": float(self.duration),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


def span(name: str) -> Span:
    """Open a new span; nesting is tracked per thread."""
    return Span(name)


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None
