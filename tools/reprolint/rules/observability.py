"""Rules protecting the telemetry subsystem (PR 3).

Stage timing in the query path belongs to :mod:`repro.obs`: spans
measure, the registry aggregates, and ``ExecutionContext`` carries the
per-query numbers.  A stray ``perf_counter()`` in an index or search
module re-creates the pre-telemetry world — timings that never reach
the metrics histograms, never show up in sampled traces, and drift
from the engine's single-source-of-truth stage accounting.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from reprolint.core import ModuleContext, Rule, Violation, register

__all__ = ["SpanTimingRule"]

#: Packages whose timing must flow through repro.obs spans.  repro/obs
#: itself is a sibling package (the one sanctioned perf_counter home).
_SPAN_DIRS = ("repro/search", "repro/index")


@register
class SpanTimingRule(Rule):
    """RL009: query-path modules time with ``repro.obs`` spans.

    Direct ``time.perf_counter()`` calls (or ``from time import
    perf_counter``) are forbidden in ``repro/search`` and
    ``repro/index``.  Use ``obs.span(name)`` for stage timing, or
    ``obs.now()`` for deadline arithmetic (the engine's
    ``time_budget`` check); both live in ``repro/obs/spans.py``, the
    one sanctioned home of the raw clock.
    """

    rule_id = "RL009"
    name = "span-timing"
    description = (
        "no direct time.perf_counter() in repro/search or repro/index; "
        "time stages with repro.obs spans (obs.span / obs.now)"
    )

    _TARGET = "perf_counter"

    def applies(self, module: ModuleContext) -> bool:
        return module.within(*_SPAN_DIRS)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                is_attribute_call = (
                    isinstance(func, ast.Attribute)
                    and func.attr == self._TARGET
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                )
                is_bare_call = (
                    isinstance(func, ast.Name) and func.id == self._TARGET
                )
                if is_attribute_call or is_bare_call:
                    yield self.violation(
                        module,
                        node,
                        "direct perf_counter() call bypasses the "
                        "telemetry subsystem; wrap the stage in "
                        "obs.span(...) or use obs.now() for deadlines",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == self._TARGET:
                        yield self.violation(
                            module,
                            node,
                            "importing perf_counter into a query-path "
                            "module invites untracked timing; use "
                            "repro.obs (span / now) instead",
                        )
