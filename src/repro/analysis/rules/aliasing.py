"""Zero-copy aliasing rules: the flat-parameter-plane ownership rules.

Since the zero-copy refactor, ``Model.get_params()`` returns a
*read-only view* of the live flat buffer, reducers accumulate into a
caller-owned scratch, and every parameter-sized allocation on the
per-iteration path is a regression.  These rules encode the ownership
contract from docs/ARCHITECTURE.md's performance-architecture section;
``REPRO_SANITIZE=1`` (:mod:`repro.ml.params`) is the dynamic
cross-check.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.analysis.engine import ModuleContext, Rule, call_name, dotted_name
from repro.analysis.registry import register_rule

#: Protocol hot-path packages (per-iteration, per-message code).
HOT_SCOPE = ("repro/core", "repro/baselines", "repro/protocols")


def _is_get_params_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get_params"
    )


def _contains_get_params(node: ast.AST) -> bool:
    return any(_is_get_params_call(child) for child in ast.walk(node))


class ParamsViewWriteRule(Rule):
    name = "alias-params-write"
    group = "aliasing"
    summary = "never write into a get_params() view"
    rationale = (
        "get_params() returns a read-only zero-copy alias of the live "
        "model buffer; writing it (or code that would, were the guard "
        "removed) corrupts the model mid-iteration — use "
        "get_params_copy() / set_params()"
    )
    scope = None

    def __init__(self) -> None:
        #: Per-function-scope tables of names bound to live views.
        self._scopes: List[Dict[str, bool]] = [{}]

    def enter_function(self, node: ast.AST, ctx: ModuleContext) -> None:
        self._scopes.append({})

    def exit_function(self, node: ast.AST, ctx: ModuleContext) -> None:
        self._scopes.pop()

    def _tracked(self, name: str) -> bool:
        return self._scopes[-1].get(name, False)

    def _report(self, node: ast.AST, ctx: ModuleContext) -> None:
        ctx.report(
            self,
            node,
            "write into a get_params() view (read-only zero-copy "
            "alias of the model); take get_params_copy() or go "
            "through set_params()",
        )

    def visit_Assign(self, node: ast.Assign, ctx: ModuleContext) -> None:
        # Track `x = model.get_params()`; untrack on any rebind.
        table = self._scopes[-1]
        value_is_view = _is_get_params_call(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                table[target.id] = value_is_view
            elif isinstance(target, ast.Subscript):
                base = target.value
                if _is_get_params_call(base):
                    self._report(node, ctx)
                elif isinstance(base, ast.Name) and self._tracked(base.id):
                    self._report(node, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign, ctx: ModuleContext) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self._scopes[-1][node.target.id] = _is_get_params_call(node.value)

    def visit_AugAssign(self, node: ast.AugAssign, ctx: ModuleContext) -> None:
        target = node.target
        if isinstance(target, ast.Name) and self._tracked(target.id):
            self._report(node, ctx)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if _is_get_params_call(base) or (
                isinstance(base, ast.Name) and self._tracked(base.id)
            ):
                self._report(node, ctx)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        # np.copyto(view, ...) and view.fill(...) are writes too.
        dotted = dotted_name(node.func)
        if dotted in ("np.copyto", "numpy.copyto") and node.args:
            first = node.args[0]
            if _is_get_params_call(first) or (
                isinstance(first, ast.Name) and self._tracked(first.id)
            ):
                self._report(node, ctx)
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("fill", "setflags", "sort", "partition")
        ):
            base = node.func.value
            if _is_get_params_call(base) or (
                isinstance(base, ast.Name) and self._tracked(base.id)
            ):
                self._report(node, ctx)


_REDUCERS = ("mean_reduce", "weighted_reduce", "staleness_weighted_reduce")


class ReduceScratchRule(Rule):
    name = "alias-reduce-out"
    group = "aliasing"
    summary = "reducer calls in hot paths must pass out= scratch"
    rationale = (
        "mean_reduce/weighted_reduce without out= allocate a "
        "parameter-sized buffer per iteration per worker; the warm "
        "scratch keeps the reduce allocation-free"
    )
    scope = HOT_SCOPE + ("repro/membership",)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = call_name(node)
        if name in _REDUCERS and not any(
            keyword.arg == "out" for keyword in node.keywords
        ):
            ctx.report(
                self,
                node,
                f"`{name}(...)` without `out=`: allocates a "
                "parameter-sized buffer every call; pass the worker's "
                "reduce scratch",
            )


_ALLOCATORS = {"stack", "vstack", "hstack", "dstack", "concatenate",
               "column_stack", "row_stack"}


class HotLoopAllocRule(Rule):
    name = "alias-hot-alloc"
    group = "aliasing"
    summary = "no np.stack/np.concatenate inside protocol loops"
    rationale = (
        "stacking allocates an (n, dim) buffer per loop pass; the "
        "zero-copy plane exists so per-iteration code reuses scratch "
        "instead (np.stack(...).mean(0) became mean_reduce(out=...))"
    )
    scope = HOT_SCOPE

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if ctx.loop_depth == 0:
            return
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] in ("np", "numpy") and parts[1] in _ALLOCATORS:
            ctx.report(
                self,
                node,
                f"`{dotted}(...)` inside a loop allocates a stacked "
                "buffer per pass; hoist it or accumulate into scratch",
            )


class ScratchOnSelfRule(Rule):
    name = "alias-scratch-self"
    group = "aliasing"
    summary = "views stored on self only in sanctioned scratch fields"
    rationale = (
        "a slice view (or live get_params() alias) stored on self "
        "outlives the iteration that created it; the sanctioned "
        "fields (config scratch_fields) are the audited exceptions"
    )
    scope = HOT_SCOPE

    def visit_Assign(self, node: ast.Assign, ctx: ModuleContext) -> None:
        self._check(node.targets, node.value, node, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign, ctx: ModuleContext) -> None:
        if node.value is not None:
            self._check([node.target], node.value, node, ctx)

    def _check(self, targets, value, node, ctx: ModuleContext) -> None:
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if target.attr in ctx.config.scratch_fields:
                continue
            stores_view = (
                isinstance(value, ast.Subscript)
                and isinstance(value.slice, ast.Slice)
            ) or _contains_get_params(value)
            if stores_view:
                ctx.report(
                    self,
                    node,
                    f"`self.{target.attr}` stores a live view outside "
                    "the sanctioned scratch fields "
                    f"({', '.join(ctx.config.scratch_fields)}); copy "
                    "it or add the field to [tool.repro.lint] "
                    "scratch_fields after review",
                )


register_rule(ParamsViewWriteRule)
register_rule(ReduceScratchRule)
register_rule(HotLoopAllocRule)
register_rule(ScratchOnSelfRule)
