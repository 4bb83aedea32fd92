"""RL013 — determinism lint.

The paper's efficiency claims are validated by bit-identity suites
(oracle equivalence, pipeline equivalence), and those
only make sense if query execution is deterministic.  Three constructs
quietly break that:

* **Unseeded RNG** — module-level ``np.random.*`` draws from hidden
  global state; bare ``random.*`` likewise.  Every draw must go
  through a seeded ``np.random.default_rng(seed)`` / ``Generator`` or
  a ``random.Random(seed)`` instance.
* **Set-ordered results** — iterating a ``set`` (or passing one to
  ``list``/``tuple``/``enumerate``) feeds hash-randomised order into
  whatever is built from it.  Order-insensitive reductions
  (``sorted``, ``min``, ``len``, …) are fine.
* **Float accumulation order** — builtin ``sum()`` over an ndarray or
  other pre-built sequence accumulates left-to-right in object space;
  ``np.sum`` pairs/vectorises and is the engine's contractual
  reduction.  Generator/comprehension arguments are allowed — they fix
  their own order explicitly.

Scope: ``repro/search`` and ``repro/probing`` — where bit-identity is
contractual per DESIGN.md.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from reprolint.core import ModuleContext, Rule, Violation, register

__all__ = ["DeterminismLint"]

_DIRS = ("repro/search", "repro/probing")

#: ``np.random.X`` members that construct *seedable* objects rather
#: than drawing from the hidden global state.
_SEEDABLE_NP = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState", "PCG64",
     "Philox", "MT19937", "SFC64", "BitGenerator"}
)

#: ``random.X`` members that are constructors, not global-state draws.
_SEEDABLE_STDLIB = frozenset({"Random", "SystemRandom"})

#: Builtins that consume an iterable without exposing its order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set",
     "frozenset", "Counter"}
)

#: Builtins that materialise their argument's iteration order.
_ORDER_MATERIALISING = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra preserves set-ness on at least the union/and
        # cases we care about; require the left side to be set-like.
        return _is_set_expr(node.left, set_names)
    return False


@register
class DeterminismLint(Rule):
    rule_id = "RL013"
    name = "determinism"
    description = (
        "no unseeded RNG, set-ordered iteration, or builtin sum() over "
        "arrays where bit-identity is contractual"
    )

    def applies(self, module: ModuleContext) -> bool:
        return module.within(*_DIRS)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        yield from self._check_rng(module)
        yield from self._check_sets(module)
        yield from self._check_sum(module)

    # -- unseeded RNG --------------------------------------------------

    def _check_rng(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            # np.random.X / numpy.random.X
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                if node.attr not in _SEEDABLE_NP:
                    yield self.violation(
                        module,
                        node,
                        f"np.random.{node.attr} draws from hidden global "
                        "RNG state; use a seeded np.random.default_rng(...)",
                    )
            # bare random.X
            elif (
                isinstance(value, ast.Name)
                and value.id == "random"
                and node.attr not in _SEEDABLE_STDLIB
            ):
                yield self.violation(
                    module,
                    node,
                    f"random.{node.attr} draws from the process-global "
                    "RNG; use a seeded random.Random(...) instance",
                )

    # -- set-ordered iteration ----------------------------------------

    def _check_sets(self, module: ModuleContext) -> Iterator[Violation]:
        for scope in ast.walk(module.tree):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                continue
            yield from self._check_sets_in_scope(module, scope)

    def _check_sets_in_scope(
        self, module: ModuleContext, scope: ast.AST
    ) -> Iterator[Violation]:
        # Names assigned a set expression in this scope, in source
        # order; reassignment to a non-set clears the mark.
        set_names: set[str] = set()
        body = getattr(scope, "body", [])
        for node in self._walk_scope(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_set_expr(node.value, set_names):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
            if isinstance(node, ast.For) and _is_set_expr(
                node.iter, set_names
            ):
                yield self.violation(
                    module,
                    node.iter,
                    "iterating a set feeds hash-randomised order into "
                    "the loop; sort first (sorted(...)) or keep a list",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_names):
                        yield self.violation(
                            module,
                            comp.iter,
                            "comprehension over a set produces "
                            "hash-randomised order; sort first",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_MATERIALISING
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                yield self.violation(
                    module,
                    node,
                    f"{node.func.id}() over a set materialises "
                    "hash-randomised order; use sorted(...)",
                )

    def _walk_scope(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested functions."""
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from ast.walk(stmt)

    # -- float accumulation order -------------------------------------

    def _check_sum(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                continue
            arg = node.args[0]
            # Generators/comprehensions state their own accumulation
            # order; pre-built sequences (ndarrays especially) do not.
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                continue
            yield self.violation(
                module,
                node,
                "builtin sum() over a pre-built sequence accumulates in "
                "data-dependent order (and element-wise over ndarrays); "
                "use np.sum/math.fsum or an explicit comprehension",
            )
