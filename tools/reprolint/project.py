"""Whole-program analysis: project symbol table and call graph.

Per-file AST rules cannot see that a helper two modules away ends up
inside a thread-pool worker, or that a chain of calls re-enters an
engine-private function.  This module extracts a compact, picklable
:class:`ModuleSummary` from each file — definitions, best-effort call
references, attribute mutations with the lock context they ran under,
and concurrency facts — and assembles them into a
:class:`ProjectIndex` offering name resolution and reachability
queries.  Summaries are pure functions of the source text, which is
what makes them safe to compute in worker processes and to cache by
content hash (:mod:`reprolint.analysis`).

Call-edge resolution is deliberately conservative and name-based:

* ``self.m(...)`` resolves through the enclosing class and its bases;
* ``f(...)`` resolves to the same-module function, else to any
  module-level function with that name;
* ``obj.m(...)`` resolves through ``obj``'s parameter annotation when
  one names a project class or Protocol (structural match), and
  otherwise falls back to *every* project function named ``m`` —
  except for generic container-method names (``get``, ``append``, …),
  which only resolve through an annotation, never globally.
* ``getattr(obj, "m")`` with a constant string is treated as a
  reference to ``m``.

Over-approximation is the right failure mode for the concurrency rules
built on top: an edge too many yields a reviewable finding, an edge
too few hides a race.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from reprolint.core import node_region, suppressed_lines

__all__ = [
    "CallRef",
    "ClassInfo",
    "FunctionInfo",
    "LockFact",
    "ModuleSummary",
    "Mutation",
    "ProjectIndex",
    "SUMMARY_VERSION",
    "build_index",
    "module_name",
    "summarize_module",
]

#: Bump when the summary structure changes; participates in cache keys
#: so stale pickles from an older analyzer are never reused.
SUMMARY_VERSION = 3

#: Method names so generic (dict/list/set vocabulary) that a global
#: name-based resolution would wire ``seen.add(x)`` to every project
#: class with an ``add`` method.  These resolve only through a
#: parameter annotation.
_GENERIC_METHODS = frozenset(
    {
        "add", "append", "clear", "copy", "count", "discard", "extend",
        "get", "index", "insert", "items", "join", "keys", "pop",
        "popitem", "read", "remove", "reverse", "setdefault", "sort",
        "split", "strip", "update", "values", "write",
    }
)

#: Calling one of these on ``self.<attr>`` mutates the attribute's
#: referent in place.
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "reverse",
        "setdefault", "sort", "update",
    }
)


@dataclass(frozen=True)
class CallRef:
    """One best-effort call reference inside a function body.

    ``kind`` is ``"name"`` (bare call), ``"self"`` (method on self) or
    ``"attr"`` (method on anything else).  ``receiver`` carries the
    receiver's variable name when it is a plain name, for
    annotation-driven resolution.
    """

    kind: str
    name: str
    line: int
    col: int
    receiver: str | None = None


@dataclass(frozen=True)
class Mutation:
    """A write to ``self.<attr>`` and the lock guards it ran under."""

    attr: str
    kind: str  # "assign" | "augassign" | "call" | "delete" | "subscript"
    line: int
    col: int
    end_line: int
    end_col: int
    guards: tuple[str, ...]


@dataclass(frozen=True)
class LockFact:
    """A concurrency-misuse site: bare acquire, per-call lock, sleep."""

    kind: str  # "acquire" | "lock_in_body" | "sleep_under_lock"
    detail: str
    line: int
    col: int
    end_line: int
    end_col: int


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, with the facts rules consume."""

    qualname: str  # "pkg.mod.Class.meth" or "pkg.mod.func"
    name: str
    module: str
    path: str
    cls: str | None
    line: int
    col: int
    is_init: bool
    calls: tuple[CallRef, ...] = ()
    mutations: tuple[Mutation, ...] = ()
    lock_facts: tuple[LockFact, ...] = ()
    #: parameter name → terminal annotation name ("HashTable", ...)
    param_types: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ClassInfo:
    """One class: bases, methods, owned lock attributes."""

    name: str
    module: str
    path: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    lock_attrs: tuple[str, ...]
    is_protocol: bool


@dataclass
class ModuleSummary:
    """Everything the whole-program rules need from one file."""

    path: str
    module: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: callables handed to ``pool.submit`` / ``Thread(target=...)``
    thread_targets: tuple[CallRef, ...] = ()
    #: line → rule ids silenced there (mirrors per-file suppression)
    suppressed: dict[int, tuple[str, ...]] = field(default_factory=dict)


def module_name(path: str | Path) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/search/engine.py`` → ``repro.search.engine``; a package
    ``__init__.py`` names the package itself.  Unrecognised layouts
    fall back to the slash-to-dot path, which keeps qualnames unique.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    while parts and parts[0] in ("src", "tools", ".", ".."):
        parts.pop(0)
    return ".".join(parts)


def _terminal(node: ast.expr) -> str | None:
    """``f`` for ``f`` and ``a.b.f`` alike; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_lock_factory(node: ast.expr) -> bool:
    """Whether this call expression constructs a threading lock."""
    if not isinstance(node, ast.Call):
        return False
    name = _terminal(node.func)
    return name in ("Lock", "RLock")


def _lock_expr_name(node: ast.expr, lock_attrs: frozenset[str]) -> str | None:
    """Human-readable guard name when ``node`` looks like a lock.

    Heuristics: ``self.X`` where ``X`` is a known lock attribute of the
    enclosing class, or any name/attribute whose final component
    mentions "lock" or "mutex".
    """
    if isinstance(node, ast.Attribute):
        base = "self." if (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        ) else ""
        if base and node.attr in lock_attrs:
            return f"self.{node.attr}"
        if "lock" in node.attr.lower() or "mutex" in node.attr.lower():
            return f"{base}{node.attr}"
    elif isinstance(node, ast.Name) and (
        "lock" in node.id.lower() or "mutex" in node.id.lower()
    ):
        return node.id
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is ``self.X`` (possibly under subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_name(node: ast.expr | None) -> str | None:
    """Terminal class name of a parameter annotation, if recoverable."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the first dotted name's terminal.
        text = node.value.strip().split("|")[0].strip()
        head = text.split("[")[0].strip()
        return head.split(".")[-1] or None
    if isinstance(node, ast.BinOp):  # X | None
        return _annotation_name(node.left)
    if isinstance(node, ast.Subscript):  # Optional[X], list[X] — take base
        return _annotation_name(node.value)
    return _terminal(node)


class _ModuleVisitor(ast.NodeVisitor):
    """Single-pass fact extractor feeding :class:`ModuleSummary`."""

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.thread_targets: list[CallRef] = []
        self._class_stack: list[str] = []
        self._class_lock_attrs: dict[str, set[str]] = {}
        self._class_methods: dict[str, list[str]] = {}
        self._class_meta: dict[str, tuple[int, tuple[str, ...], bool]] = {}
        # Per-function accumulation (innermost function wins; nested
        # defs attribute their facts to themselves).
        self._fn_stack: list[dict] = []
        self._with_locks: list[str] = []

    # -- classes -------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(b for b in (_terminal(e) for e in node.bases) if b)
        self._class_stack.append(node.name)
        self._class_lock_attrs.setdefault(node.name, set())
        self._class_methods.setdefault(node.name, [])
        self._class_meta[node.name] = (
            node.lineno,
            bases,
            "Protocol" in bases,
        )
        self.generic_visit(node)
        self._class_stack.pop()

    # -- functions -----------------------------------------------------

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        if cls is not None and not self._fn_stack:
            self._class_methods[cls].append(node.name)
        qual = (
            f"{self.module}.{cls}.{node.name}"
            if cls and not self._fn_stack
            else f"{self.module}.{node.name}"
        )
        args = node.args
        params = []
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = _annotation_name(arg.annotation)
            if ann:
                params.append((arg.arg, ann))
        self._fn_stack.append(
            {
                "qualname": qual,
                "name": node.name,
                "cls": cls if not self._fn_stack else None,
                "line": node.lineno,
                "col": node.col_offset + 1,
                "is_init": node.name in ("__init__", "__new__"),
                "calls": [],
                "mutations": [],
                "lock_facts": [],
                "param_types": tuple(params),
            }
        )

    def _leave_function(self) -> None:
        frame = self._fn_stack.pop()
        info = FunctionInfo(
            qualname=frame["qualname"],
            name=frame["name"],
            module=self.module,
            path=self.path,
            cls=frame["cls"],
            line=frame["line"],
            col=frame["col"],
            is_init=frame["is_init"],
            calls=tuple(frame["calls"]),
            mutations=tuple(frame["mutations"]),
            lock_facts=tuple(frame["lock_facts"]),
            param_types=frame["param_types"],
        )
        # Nested defs share the flat namespace; outermost wins on clash.
        self.functions.setdefault(info.qualname, info)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._leave_function()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._leave_function()

    # -- with / locks --------------------------------------------------

    def _current_lock_attrs(self) -> frozenset[str]:
        if self._class_stack:
            return frozenset(self._class_lock_attrs[self._class_stack[-1]])
        return frozenset()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        guards = []
        for item in node.items:
            name = _lock_expr_name(
                item.context_expr, self._current_lock_attrs()
            )
            if name is not None:
                guards.append(name)
            # Visit the context expressions for call refs.
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._with_locks.extend(guards)
        for stmt in node.body:
            self.visit(stmt)
        if guards:
            del self._with_locks[len(self._with_locks) - len(guards):]

    # -- mutations -----------------------------------------------------

    def _record_mutation(self, attr: str, kind: str, node: ast.AST) -> None:
        if not self._fn_stack:
            return
        line, col, end_line, end_col = node_region(node)
        self._fn_stack[-1]["mutations"].append(
            Mutation(
                attr=attr,
                kind=kind,
                line=line,
                col=col,
                end_line=end_line,
                end_col=end_col,
                guards=tuple(self._with_locks),
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutation_target(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._mutation_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            self._record_mutation(attr, "augassign", node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                self._record_mutation(attr, "delete", node)
        self.generic_visit(node)

    def _mutation_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutation_target(element, node)
            return
        attr = _self_attr(target)
        if attr is None:
            return
        kind = "subscript" if isinstance(target, ast.Subscript) else "assign"
        # Lock-attribute discovery: ``self.X = threading.Lock()``.
        if (
            kind == "assign"
            and self._class_stack
            and isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and _is_lock_factory(node.value)
        ):
            self._class_lock_attrs[self._class_stack[-1]].add(attr)
        self._record_mutation(attr, kind, node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self._record_thread_target(node)
        self._record_lock_facts(node)
        self.generic_visit(node)

    def _append_call(
        self, kind: str, name: str, node: ast.AST, receiver: str | None = None
    ) -> None:
        if not self._fn_stack:
            return
        line, col, _, _ = node_region(node)
        self._fn_stack[-1]["calls"].append(
            CallRef(kind=kind, name=name, line=line, col=col, receiver=receiver)
        )

    def _callable_ref(self, expr: ast.expr, node: ast.AST) -> CallRef | None:
        """A CallRef for a callable *expression* (not a call)."""
        line, col, _, _ = node_region(node)
        if isinstance(expr, ast.Name):
            return CallRef(kind="name", name=expr.id, line=line, col=col)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return CallRef(kind="self", name=expr.attr, line=line, col=col)
            receiver = (
                expr.value.id if isinstance(expr.value, ast.Name) else None
            )
            return CallRef(
                kind="attr", name=expr.attr, line=line, col=col,
                receiver=receiver,
            )
        return None

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if (
                func.id == "getattr"
                and node.args
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                receiver = (
                    node.args[0].id
                    if isinstance(node.args[0], ast.Name)
                    else None
                )
                self._append_call(
                    "attr", node.args[1].value, node, receiver=receiver
                )
                return
            self._append_call("name", func.id, node)
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self._append_call("self", func.attr, node)
                mutator_attr = None
            else:
                receiver = (
                    func.value.id
                    if isinstance(func.value, ast.Name)
                    else None
                )
                self._append_call("attr", func.attr, node, receiver=receiver)
                mutator_attr = (
                    _self_attr(func.value)
                    if func.attr in _MUTATOR_METHODS
                    else None
                )
            if mutator_attr is not None:
                self._record_mutation(mutator_attr, "call", node)

    def _record_thread_target(self, node: ast.Call) -> None:
        func = node.func
        callables: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr in ("submit",):
            if node.args:
                callables.append(node.args[0])
        terminal = _terminal(func)
        if terminal == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    callables.append(keyword.value)
        for expr in callables:
            ref = self._callable_ref(expr, node)
            if ref is not None:
                self.thread_targets.append(ref)

    def _record_lock_facts(self, node: ast.Call) -> None:
        if not self._fn_stack:
            return
        frame = self._fn_stack[-1]
        line, col, end_line, end_col = node_region(node)
        func = node.func
        # Bare .acquire() on something lock-ish.
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            guard = _lock_expr_name(func.value, self._current_lock_attrs())
            if guard is not None:
                frame["lock_facts"].append(
                    LockFact("acquire", guard, line, col, end_line, end_col)
                )
        # Lock constructed inside a function body (per-call lock).
        if _is_lock_factory(node) and not frame["is_init"]:
            frame["lock_facts"].append(
                LockFact(
                    "lock_in_body",
                    _terminal(func) or "Lock",
                    line, col, end_line, end_col,
                )
            )
        # Sleeping while holding a lock.
        if (
            _terminal(func) == "sleep"
            and self._with_locks
        ):
            frame["lock_facts"].append(
                LockFact(
                    "sleep_under_lock",
                    self._with_locks[-1],
                    line, col, end_line, end_col,
                )
            )

    # -- assembly ------------------------------------------------------

    def summary(self, suppressed: dict[int, set[str]]) -> ModuleSummary:
        for name, methods in self._class_methods.items():
            line, bases, is_protocol = self._class_meta[name]
            self.classes[name] = ClassInfo(
                name=name,
                module=self.module,
                path=self.path,
                line=line,
                bases=bases,
                methods=tuple(methods),
                lock_attrs=tuple(sorted(self._class_lock_attrs[name])),
                is_protocol=is_protocol,
            )
        return ModuleSummary(
            path=self.path,
            module=self.module,
            functions=self.functions,
            classes=self.classes,
            thread_targets=tuple(self.thread_targets),
            suppressed={
                line: tuple(sorted(codes))
                for line, codes in suppressed.items()
            },
        )


def summarize_module(path: str | Path, source: str) -> ModuleSummary:
    """Extract one file's :class:`ModuleSummary` (raises SyntaxError)."""
    norm = Path(path).as_posix()
    tree = ast.parse(source, filename=norm)
    visitor = _ModuleVisitor(norm, module_name(norm))
    visitor.visit(tree)
    return visitor.summary(suppressed_lines(source))


class ProjectIndex:
    """Cross-file symbol table and call graph over module summaries."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        #: path → summary
        self.summaries = summaries
        #: qualname → FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: simple name → [FunctionInfo] (methods and functions alike)
        self._by_name: dict[str, list[FunctionInfo]] = {}
        #: class name → [ClassInfo] (name collisions keep all)
        self._classes: dict[str, list[ClassInfo]] = {}
        #: class name → {method name → FunctionInfo}
        self._methods: dict[str, dict[str, FunctionInfo]] = {}
        for summary in summaries.values():
            for info in summary.functions.values():
                self.functions[info.qualname] = info
                self._by_name.setdefault(info.name, []).append(info)
                if info.cls is not None:
                    self._methods.setdefault(info.cls, {})[info.name] = info
            for cls in summary.classes.values():
                self._classes.setdefault(cls.name, []).append(cls)
        #: base class name → [subclass ClassInfo]
        self._subclasses: dict[str, list[ClassInfo]] = {}
        for infos in self._classes.values():
            for cls in infos:
                for base in cls.bases:
                    self._subclasses.setdefault(base, []).append(cls)

    # -- lookups -------------------------------------------------------

    def classes_named(self, name: str) -> list[ClassInfo]:
        return self._classes.get(name, [])

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return self._by_name.get(name, [])

    def method(self, cls: str, name: str) -> FunctionInfo | None:
        return self._methods.get(cls, {}).get(name)

    def lock_owning_classes(self) -> list[ClassInfo]:
        """Classes that construct a ``threading.Lock``/``RLock``."""
        return [
            cls
            for infos in self._classes.values()
            for cls in infos
            if cls.lock_attrs
        ]

    def suppressed_at(self, path: str, line: int) -> frozenset[str]:
        summary = self.summaries.get(path)
        if summary is None:
            return frozenset()
        return frozenset(summary.suppressed.get(line, ()))

    def _conforming_classes(self, protocol: ClassInfo) -> list[ClassInfo]:
        """Concrete classes structurally matching ``protocol``."""
        wanted = {
            m for m in protocol.methods if not m.startswith("__")
        }
        if not wanted:
            return []
        out = []
        for infos in self._classes.values():
            for cls in infos:
                if cls.is_protocol or cls.name == protocol.name:
                    continue
                if wanted <= set(cls.methods):
                    out.append(cls)
        return out

    def _methods_in_hierarchy(self, cls: ClassInfo, name: str) -> list[FunctionInfo]:
        """``name`` resolved in ``cls``, its bases and its subclasses."""
        seen: dict[str, FunctionInfo] = {}
        stack = [cls]
        visited: set[str] = set()
        while stack:
            current = stack.pop()
            if current.name in visited:
                continue
            visited.add(current.name)
            found = self.method(current.name, name)
            if found is not None:
                seen[found.qualname] = found
            for base in current.bases:
                stack.extend(self.classes_named(base))
            stack.extend(self._subclasses.get(current.name, []))
        return list(seen.values())

    # -- resolution ----------------------------------------------------

    def resolve(
        self, ref: CallRef, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        """Project functions a call reference may land on."""
        if ref.kind == "self" and caller.cls is not None:
            targets: dict[str, FunctionInfo] = {}
            for cls in self.classes_named(caller.cls):
                for info in self._methods_in_hierarchy(cls, ref.name):
                    targets[info.qualname] = info
            return list(targets.values())
        if ref.kind == "name":
            local = self.functions.get(f"{caller.module}.{ref.name}")
            if local is not None:
                return [local]
            return [
                info
                for info in self.functions_named(ref.name)
                if info.cls is None
            ]
        # attr calls: annotation-driven when possible.
        if ref.kind == "attr":
            if ref.receiver is not None:
                annotated = dict(caller.param_types).get(ref.receiver)
                if annotated is not None:
                    resolved = self._resolve_via_annotation(
                        annotated, ref.name
                    )
                    if resolved:
                        return resolved
            if ref.name in _GENERIC_METHODS:
                return []
            return list(self.functions_named(ref.name))
        return []

    def _resolve_via_annotation(
        self, class_name: str, method: str
    ) -> list[FunctionInfo]:
        targets: dict[str, FunctionInfo] = {}
        for cls in self.classes_named(class_name):
            if cls.is_protocol:
                for impl in self._conforming_classes(cls):
                    found = self.method(impl.name, method)
                    if found is not None:
                        targets[found.qualname] = found
                # The protocol's own (stub) method body is harmless.
            else:
                for info in self._methods_in_hierarchy(cls, method):
                    targets[info.qualname] = info
        return list(targets.values())

    # -- reachability --------------------------------------------------

    def reachable_from(
        self, roots: list[FunctionInfo]
    ) -> dict[str, str | None]:
        """BFS closure over call edges; qualname → parent qualname."""
        parents: dict[str, str | None] = {}
        queue: deque[FunctionInfo] = deque()
        for root in roots:
            if root.qualname not in parents:
                parents[root.qualname] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for ref in current.calls:
                for target in self.resolve(ref, current):
                    if target.qualname in parents:
                        continue
                    parents[target.qualname] = current.qualname
                    queue.append(target)
        return parents

    def chain(
        self, parents: dict[str, str | None], qualname: str
    ) -> list[str]:
        """Root→``qualname`` call chain from a BFS parent map."""
        out = [qualname]
        seen = {qualname}
        current: str | None = qualname
        while current is not None:
            current = parents.get(current)
            if current is None or current in seen:
                break
            seen.add(current)
            out.append(current)
        out.reverse()
        return out

    def resolve_targets(self, ref: CallRef) -> list[FunctionInfo]:
        """Resolution for thread-target references (no caller context)."""
        if ref.kind in ("attr", "self"):
            if ref.kind == "attr" and ref.name in _GENERIC_METHODS:
                return []
            return list(self.functions_named(ref.name))
        return [
            info
            for info in self.functions_named(ref.name)
            if info.cls is None
        ]

    def thread_roots(self) -> list[FunctionInfo]:
        """Functions handed to thread pools or Thread targets."""
        roots: dict[str, FunctionInfo] = {}
        for summary in self.summaries.values():
            for ref in summary.thread_targets:
                for info in self.resolve_targets(ref):
                    roots[info.qualname] = info
        return list(roots.values())


def build_index(summaries: dict[str, ModuleSummary]) -> ProjectIndex:
    """Assemble the :class:`ProjectIndex` from per-file summaries."""
    return ProjectIndex(summaries)
