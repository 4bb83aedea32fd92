"""Rules protecting the query-engine architecture (PR 1).

Every index class is a thin adapter over ``repro.search.engine``; the
paper's instrumentation and exactly-once evaluation guarantees hold
only while retrieval/evaluation stay inside that engine.  These rules
make the boundary mechanical instead of conventional.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from reprolint.core import ModuleContext, Rule, Violation, register

__all__ = [
    "BucketEncapsulationRule",
    "EngineBypassRule",
    "StagePipelineEncapsulationRule",
]

#: Modules that constitute the query hot path: anything here that
#: scores candidates must do so through an engine evaluator.
_SEARCH_PATH_DIRS = (
    "repro/search",
    "repro/core",
    "repro/index",
)

#: The engine itself and the module defining the distance kernels are
#: the two legitimate homes of direct distance computation.
_EXEMPT_FILES = ("repro/search/engine.py", "repro/index/distance.py")


@register
class EngineBypassRule(Rule):
    """RL001: exact scoring in a search path must go through the engine.

    ``pairwise_distances`` (and the evaluator scoring it backs) may be
    *called* only inside ``repro/search/engine.py`` — any other call in
    a search-path module re-implements the evaluation stage outside the
    instrumented pipeline, so its work is invisible to
    ``ExecutionContext`` stats and exempt from the engine's shared
    top-k tie-breaking contract.
    """

    rule_id = "RL001"
    name = "engine-bypass"
    description = (
        "search-path modules must not call pairwise_distances directly; "
        "route exact scoring through a QueryEngine evaluator"
    )

    _TARGET = "pairwise_distances"

    def applies(self, module: ModuleContext) -> bool:
        return module.within(*_SEARCH_PATH_DIRS) and not module.is_file(
            *_EXEMPT_FILES
        )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name == self._TARGET:
                    yield self.violation(
                        module,
                        node,
                        "call to pairwise_distances bypasses the query "
                        "engine; use the index's QueryEngine evaluator "
                        "(see repro/search/engine.py)",
                    )
            elif isinstance(node, ast.ImportFrom) and not module.is_init:
                # Package __init__ modules may re-export the public name;
                # implementation modules in the search path may not even
                # import it.
                for alias in node.names:
                    if alias.name == self._TARGET:
                        yield self.violation(
                            module,
                            node,
                            "importing pairwise_distances into a "
                            "search-path module invites engine bypass; "
                            "depend on the QueryEngine evaluator instead",
                        )


@register
class BucketEncapsulationRule(Rule):
    """RL003: ``HashTable`` bucket storage is private to its module.

    Probers and the engine must reach buckets through ``get`` /
    ``signatures`` / ``dense_layout``; touching ``_buckets`` elsewhere
    couples callers to the dict-of-arrays layout and breaks the lazy
    CSR cache (``dense_layout``) that batched execution relies on.
    ``self._buckets`` is allowed anywhere — a class may own a bucket
    dict of its own (e.g. ``DynamicHashTable``).
    """

    rule_id = "RL003"
    name = "bucket-encapsulation"
    description = (
        "no access to HashTable private bucket storage (._buckets) "
        "outside repro/index/hash_table.py"
    )

    _ATTRIBUTE = "_buckets"

    def applies(self, module: ModuleContext) -> bool:
        return not module.is_file("repro/index/hash_table.py")

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == self._ATTRIBUTE
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield self.violation(
                    module,
                    node,
                    "access to private bucket storage ._buckets outside "
                    "repro/index/hash_table.py; use get()/signatures()/"
                    "dense_layout()",
                )


@register
class StagePipelineEncapsulationRule(Rule):
    """RL011: pipeline stage internals stay inside ``repro/search``.

    The ``drain_stream`` dedup/budget loop is the engine's
    implementation vocabulary, and so is any ``*Stage`` class a future
    change might add.  Code outside ``repro/search`` builds a
    ``QueryPlan`` (or passes its budgets to an index's ``search``) and
    lets the engine run the stages.  Running a stage elsewhere would
    execute retrieval or scoring outside the instrumented pipeline,
    invisible to ``ExecutionContext`` stats, cache fingerprints and the
    per-stage telemetry label.
    """

    rule_id = "RL011"
    name = "stage-pipeline-encapsulation"
    description = (
        "pipeline stage internals (``*Stage`` classes, drain_stream) "
        "may only be used inside repro/search; build a QueryPlan and "
        "call the index's search instead"
    )

    _STAGES_MODULE = "repro.search.stages"
    _INTERNAL_NAMES = frozenset({"drain_stream"})

    def applies(self, module: ModuleContext) -> bool:
        return module.within("src/repro") and not module.within(
            "repro/search"
        )

    def _is_internal(self, name: str | None) -> bool:
        if name is None:
            return False
        return name in self._INTERNAL_NAMES or name.endswith("Stage")

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == self._STAGES_MODULE:
                        yield self.violation(
                            module,
                            node,
                            "importing repro.search.stages wholesale "
                            "exposes stage internals; build a QueryPlan "
                            "and call the index's search instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if self._is_internal(alias.name):
                        yield self.violation(
                            module,
                            node,
                            f"importing stage internal {alias.name!r} "
                            "outside repro/search; build a QueryPlan and "
                            "call the index's search, which runs the "
                            "pipeline",
                        )
            elif isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if self._is_internal(name):
                    yield self.violation(
                        module,
                        node,
                        f"call to stage internal {name!r} outside "
                        "repro/search runs pipeline stages outside the "
                        "instrumented engine",
                    )


def _terminal_name(func: ast.expr) -> str | None:
    """The called name: ``f`` for ``f(...)`` and ``obj.f(...)`` alike."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
