"""RL012 — concurrency discipline (whole-program).

The serving front door runs engine code on worker threads
(``AsyncFrontDoor(max_workers>1)``), which is why metric cells follow
a per-child-lock contract: shared mutable state is only touched under
a held ``threading.Lock``/``RLock`` context.  This rule enforces that
contract statically, using the project call graph:

* any ``self.<attr>`` mutation on a call path reachable from a
  thread-pool callable (``pool.submit(...)`` / ``Thread(target=...)``)
  must run under a ``with <lock>:`` block;
* classes that own a lock (``self.X = threading.Lock()`` in
  ``__init__``) must guard *every* mutation outside ``__init__`` —
  owning a lock and bypassing it is how the PR-5 metric races started;
* misuse patterns are flagged regardless of reachability: bare
  ``.acquire()`` instead of ``with``, locks constructed per call, and
  ``time.sleep`` while a lock is held.

Scope: ``repro/search``, ``repro/index``, ``repro/core`` and
``repro/obs`` — the packages whose objects are actually shared across
worker threads.  ``repro/distributed`` simulates its network on a
single thread (NetworkModel virtual time), so its mutations are not
shared-state and are deliberately out of scope; helpers there that are
*called from* engine threads still get caught through the call graph.
Helpers that mutate only under a caller-held lock carry a
``# reprolint: disable=RL012`` justification at the mutation site.
"""

from __future__ import annotations

from collections.abc import Iterator

from reprolint.core import ProjectRule, Violation, path_within, register
from reprolint.project import FunctionInfo, ProjectIndex

__all__ = ["ConcurrencyDiscipline"]

#: Packages whose objects are shared across threads.
_SHARED_DIRS = ("repro/search", "repro/index", "repro/core", "repro/obs")

#: Misuse facts are checked across every ``repro`` package.
_MISUSE_MESSAGES = {
    "acquire": (
        "lock {detail} acquired without `with`; use a context manager so "
        "the release survives exceptions"
    ),
    "lock_in_body": (
        "threading.{detail}() constructed per call; a lock only excludes "
        "threads that share the same instance — create it in __init__"
    ),
    "sleep_under_lock": (
        "time.sleep while holding {detail}; sleeping under a lock stalls "
        "every thread contending for it"
    ),
}


@register
class ConcurrencyDiscipline(ProjectRule):
    rule_id = "RL012"
    name = "concurrency-discipline"
    description = (
        "shared-state mutations on thread-reachable paths and in "
        "lock-owning classes must hold a lock; no bare acquire(), "
        "per-call locks, or sleep under a lock"
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        reported: set[tuple[str, int, str]] = set()

        roots = project.thread_roots()
        parents = project.reachable_from(roots)
        for qualname in parents:
            info = project.functions.get(qualname)
            if info is None or info.is_init:
                continue
            if not path_within(info.path, *_SHARED_DIRS):
                continue
            for mutation in info.mutations:
                if mutation.guards:
                    continue
                key = (info.path, mutation.line, mutation.attr)
                if key in reported:
                    continue
                reported.add(key)
                chain = " -> ".join(
                    _short(q) for q in project.chain(parents, qualname)
                )
                yield Violation(
                    rule_id=self.rule_id,
                    message=(
                        f"self.{mutation.attr} mutated without a held "
                        f"lock on a thread-reachable path (via {chain}); "
                        "guard it with `with self.<lock>:` or suppress "
                        "with a justification if a caller holds the lock"
                    ),
                    path=info.path,
                    line=mutation.line,
                    column=mutation.col,
                    end_line=mutation.end_line,
                    end_col=mutation.end_col,
                )

        for cls in project.lock_owning_classes():
            if not path_within(cls.path, *_SHARED_DIRS):
                continue
            lock_attrs = set(cls.lock_attrs)
            locks = ", ".join(f"self.{a}" for a in cls.lock_attrs)
            for method_name in cls.methods:
                info = project.method(cls.name, method_name)
                if info is None or info.is_init:
                    continue
                for mutation in info.mutations:
                    if mutation.guards or mutation.attr in lock_attrs:
                        continue
                    key = (info.path, mutation.line, mutation.attr)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Violation(
                        rule_id=self.rule_id,
                        message=(
                            f"{cls.name} owns {locks} but "
                            f"{method_name}() mutates self."
                            f"{mutation.attr} without holding it; "
                            "guard the mutation or suppress with a "
                            "justification if a caller holds the lock"
                        ),
                        path=info.path,
                        line=mutation.line,
                        column=mutation.col,
                        end_line=mutation.end_line,
                        end_col=mutation.end_col,
                    )

        for info in project.functions.values():
            # Misuse patterns apply to library code only; tests and
            # benchmarks legitimately build throwaway locks inline.
            if not path_within(info.path, "repro"):
                continue
            for fact in info.lock_facts:
                template = _MISUSE_MESSAGES.get(fact.kind)
                if template is None:
                    continue
                yield Violation(
                    rule_id=self.rule_id,
                    message=template.format(detail=fact.detail),
                    path=info.path,
                    line=fact.line,
                    column=fact.col,
                    end_line=fact.end_line,
                    end_col=fact.end_col,
                )


def _short(qualname: str) -> str:
    """``repro.search.engine.QueryEngine.execute`` → ``QueryEngine.execute``."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname
