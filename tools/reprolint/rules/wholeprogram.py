"""RL014 — cross-module engine integrity (whole-program).

RL001 (engine bypass) and RL011 (stage encapsulation) are per-file:
they catch ``repro/eval`` importing ``pairwise_distances`` or calling
``drain_stream`` directly, but not a helper that reaches the same
internals through one level of indirection.  This rule closes that
hole with the project call graph:

* **Engine-internal reach** — a function outside ``repro/search``
  whose call chain reaches an engine/stage-internal symbol
  (underscore-prefixed functions defined under ``repro/search``, plus
  the named pipeline internals) *without passing through the public
  engine API* is an engine bypass.  Chains that enter through a public
  ``repro/search`` function are fine — that is the API working as
  intended — so the traversal stops expanding once it crosses into
  ``repro/search``.
* **Transitive exact-distance use** — a function in the search path
  (``repro/search``/``core``/``index``) that reaches
  ``pairwise_distances`` through helpers *outside* the exempt modules
  (``engine.py``, ``distance.py``) defeats RL001's budget-accounting
  contract one hop removed.

Findings anchor at the offending function's definition site and quote
the full call chain, so suppression at the definition site silences
the whole chain.
"""

from __future__ import annotations

from collections.abc import Iterator

from reprolint.core import (
    ProjectRule,
    Violation,
    path_is_file,
    path_within,
    register,
)
from reprolint.project import FunctionInfo, ProjectIndex

__all__ = ["EngineIntegrity"]

_SEARCH_DIR = "repro/search"
_SEARCH_PATH_DIRS = (
    "repro/search",
    "repro/core",
    "repro/index",
)
#: Modules allowed to call ``pairwise_distances`` directly (RL001's
#: exemption list): the evaluator itself and the distance kernels.
_EXACT_EXEMPT_FILES = ("repro/search/engine.py", "repro/index/distance.py")

#: Pipeline internals that are engine-private regardless of their
#: leading character (``drain_stream`` has no underscore but is the
#: stage pipeline's drain loop).
_NAMED_INTERNALS = frozenset({"drain_stream"})


def _is_engine_internal(info: FunctionInfo) -> bool:
    if not path_within(info.path, _SEARCH_DIR):
        return False
    if info.name in _NAMED_INTERNALS:
        return True
    return info.name.startswith("_") and not info.name.startswith("__")


@register
class EngineIntegrity(ProjectRule):
    rule_id = "RL014"
    name = "engine-integrity"
    description = (
        "no transitive reach into engine/stage internals from outside "
        "repro/search, and no exact-distance use smuggled through "
        "out-of-path helpers"
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        yield from self._check_internal_reach(project)
        yield from self._check_exact_distance(project)

    # -- engine-internal reach ----------------------------------------

    def _check_internal_reach(
        self, project: ProjectIndex
    ) -> Iterator[Violation]:
        # For each repro function outside repro/search, walk call edges
        # without expanding through repro/search nodes: landing on an
        # internal symbol means the chain bypassed the public API.
        # Memoised over the non-search functions, which form the only
        # expandable nodes.
        hits: dict[str, tuple[str, ...] | None] = {}

        def first_internal_chain(
            info: FunctionInfo, visiting: set[str]
        ) -> tuple[str, ...] | None:
            cached = hits.get(info.qualname, _UNSET)
            if cached is not _UNSET:
                return cached
            if info.qualname in visiting:
                return None
            visiting.add(info.qualname)
            result: tuple[str, ...] | None = None
            for ref in info.calls:
                for target in project.resolve(ref, info):
                    if _is_engine_internal(target):
                        result = (info.qualname, target.qualname)
                        break
                    if path_within(target.path, _SEARCH_DIR):
                        continue  # entered via public API: fine
                    sub = first_internal_chain(target, visiting)
                    if sub is not None:
                        result = (info.qualname, *sub)
                        break
                if result is not None:
                    break
            visiting.discard(info.qualname)
            hits[info.qualname] = result
            return result

        for info in sorted(
            project.functions.values(), key=lambda f: f.qualname
        ):
            if path_within(info.path, _SEARCH_DIR):
                continue
            if not path_within(info.path, "repro"):
                continue  # tests/benchmarks may poke internals
            chain = first_internal_chain(info, set())
            if chain is None or len(chain) < 2:
                continue
            # Every repro function with a chain is reported (callers of
            # a flagged helper included) — each definition site can be
            # suppressed independently.
            yield Violation(
                rule_id=self.rule_id,
                message=(
                    "reaches engine-internal "
                    f"{_tail(chain[-1])} from outside repro/search "
                    f"(call chain: {' -> '.join(_tail(q) for q in chain)}); "
                    "route through the public engine API"
                ),
                path=info.path,
                line=info.line,
                column=info.col,
            )

    # -- transitive exact-distance use --------------------------------

    def _check_exact_distance(
        self, project: ProjectIndex
    ) -> Iterator[Violation]:
        # Helpers outside the exempt modules that call
        # pairwise_distances directly.  RL001 flags these when they sit
        # in the search path; here we flag search-path functions that
        # reach one wherever it lives.
        tainted: dict[str, str] = {}
        for info in project.functions.values():
            if path_is_file(info.path, *_EXACT_EXEMPT_FILES):
                continue
            for ref in info.calls:
                if ref.name == "pairwise_distances":
                    tainted[info.qualname] = info.qualname
                    break

        if not tainted:
            return

        changed = True
        while changed:
            # Propagate taint one call-edge at a time up to a fixpoint;
            # exempt modules stop propagation (calling the evaluator is
            # the sanctioned route).
            changed = False
            for info in project.functions.values():
                if info.qualname in tainted:
                    continue
                if path_is_file(info.path, *_EXACT_EXEMPT_FILES):
                    continue
                for ref in info.calls:
                    for target in project.resolve(ref, info):
                        if target.qualname in tainted:
                            tainted[info.qualname] = tainted[
                                target.qualname
                            ]
                            changed = True
                            break
                    if info.qualname in tainted:
                        break

        for info in sorted(
            project.functions.values(), key=lambda f: f.qualname
        ):
            source = tainted.get(info.qualname)
            if source is None or source == info.qualname:
                continue  # direct calls are RL001's per-file business
            if not path_within(info.path, *_SEARCH_PATH_DIRS):
                continue
            if path_is_file(info.path, *_EXACT_EXEMPT_FILES):
                continue
            yield Violation(
                rule_id=self.rule_id,
                message=(
                    f"reaches pairwise_distances via {_tail(source)} "
                    "outside the exempt modules; exact scoring in the "
                    "search path must go through "
                    "ExactEvaluator.distances"
                ),
                path=info.path,
                line=info.line,
                column=info.col,
            )


_UNSET = object()


def _tail(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname
