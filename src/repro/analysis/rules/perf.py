"""DES-perf rules: keep the fast-path engine fast.

The PR 4 engine overhaul (1.02M events/sec) rests on three idioms:
``__slots__`` on every hot Event/Process/Message type (dict-free
attribute storage), closure-free send paths (no per-message allocation)
and lazy, non-formatted trace channel names.  These rules stop the
idioms from silently eroding as protocols grow.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleContext, Rule
from repro.analysis.registry import register_rule

#: Base-class names whose subclasses sit on the event hot path.
_HOT_BASES = {
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Process",
    "Message",
    "Update",
    "Delivery",
    "Request",
    "StorePut",
    "StoreGet",
    "DequeueRequest",
    "TokenGate",
}

#: Packages containing per-message / per-event code.
DES_SCOPE = ("repro/sim", "repro/net", "repro/core", "repro/baselines",
             "repro/protocols", "repro/membership")


def _base_name(base: ast.AST) -> str:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return ""


def _has_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = _base_name(decorator.func)
            if name == "dataclass" and any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            ):
                return True
    return False


class MissingSlotsRule(Rule):
    name = "perf-slots"
    group = "perf"
    summary = "hot Event/Process/Message subclasses need __slots__"
    rationale = (
        "the engine creates several events per message; one dict-ful "
        "subclass re-adds a dict allocation per event and quietly "
        "taxes the whole 1M events/sec fast path"
    )
    scope = None

    def visit_ClassDef(self, node: ast.ClassDef, ctx: ModuleContext) -> None:
        if not any(_base_name(base) in _HOT_BASES for base in node.bases):
            return
        if not _has_slots(node):
            ctx.report(
                self,
                node,
                f"`{node.name}` subclasses a hot event/message type "
                "without `__slots__` (or `dataclass(slots=True)`): "
                "every instance grows a dict on the engine's hottest "
                "allocation path",
            )


class SendPathClosureRule(Rule):
    name = "perf-send-closure"
    group = "perf"
    summary = "no closures built per-call inside send paths"
    rationale = (
        "a lambda/def inside send/push runs once per message: the "
        "closure object and cell allocations dominate small-payload "
        "sends — hoist it, cache it, or prebuild delivery callbacks"
    )
    scope = DES_SCOPE

    def _flag(self, node: ast.AST, ctx: ModuleContext, kind: str) -> None:
        hot = ctx.config.hot_functions
        if ctx.function_stack and ctx.function_stack[-1] in hot:
            ctx.report(
                self,
                node,
                f"{kind} constructed inside hot path "
                f"`{ctx.function_stack[-1]}()`: allocates per message; "
                "hoist or cache the callback",
            )

    def visit_Lambda(self, node: ast.Lambda, ctx: ModuleContext) -> None:
        self._flag(node, ctx, "lambda")

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: ModuleContext) -> None:
        self._flag(node, ctx, f"nested function `{node.name}`")


class FStringEventNameRule(Rule):
    name = "perf-fstring-name"
    group = "perf"
    summary = "no f-strings inside per-message hot paths"
    rationale = (
        "f-string formatting per message (event names, trace keys) "
        "costs more than the send itself at 1M events/sec; format "
        "once at setup or use the lazy tracer channels"
    )
    scope = ("repro/sim", "repro/net", "repro/core")

    def visit_JoinedStr(self, node: ast.JoinedStr, ctx: ModuleContext) -> None:
        if ctx.error_path_depth:
            return  # raise/assert messages format zero times per message
        hot = ctx.config.hot_functions
        if ctx.function_stack and ctx.function_stack[-1] in hot:
            ctx.report(
                self,
                node,
                f"f-string inside hot path `{ctx.function_stack[-1]}()` "
                "formats per message; precompute the string at setup",
            )


register_rule(MissingSlotsRule)
register_rule(SendPathClosureRule)
register_rule(FStringEventNameRule)
