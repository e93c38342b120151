"""Registry-contract rules: registrations declare what they promise.

The protocol and scenario registries gate real behavior — non-elastic
protocols reject churn at build time, non-universal families are
excluded from the conformance matrix — so every registration must state
its contract *explicitly* instead of inheriting a default a reviewer
never saw.  The CLI's ``--json`` tables emit exactly these fields, so
the rule, the registry and the CLI share one source of truth.  And
every name table is one :class:`~repro.registry.Registry`, so the
alias rules, lazy builtins and removal cannot drift between planes.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.engine import ModuleContext, Rule, call_name
from repro.analysis.registry import register_rule


def _registered_name(node: ast.Call) -> Optional[str]:
    """The literal name a register_* call registers, if it is literal."""
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    for keyword in node.keywords:
        if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, str):
                return value
    return None


def _has_keyword(node: ast.Call, name: str) -> bool:
    return any(keyword.arg == name for keyword in node.keywords)


class ProtocolElasticRule(Rule):
    name = "contract-elastic"
    group = "contracts"
    summary = "register_protocol must declare (and normally be) elastic"
    rationale = (
        "elastic gates whether churn scenarios run or are rejected at "
        "build time; an inherited default means nobody audited whether "
        "the protocol survives membership change.  Since the full-grid "
        "elasticity pass every built-in is elastic, so an explicit "
        "elastic=False is a conscious regression of the conformance "
        "grid and needs a reviewed `# repro: ignore[contract-elastic]`"
    )
    scope = None

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) != "register_protocol":
            return
        if not node.args and not _has_keyword(node, "name"):
            return  # the registry's own `def register_protocol` helpers
        registered = _registered_name(node) or "<dynamic>"
        if not _has_keyword(node, "elastic"):
            ctx.report(
                self,
                node,
                f"register_protocol({registered!r}, ...) does not "
                "declare `elastic=`; state explicitly whether the "
                "protocol survives membership churn",
            )
            return
        for keyword in node.keywords:
            if (
                keyword.arg == "elastic"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            ):
                ctx.report(
                    self,
                    node,
                    f"register_protocol({registered!r}, ...) opts out "
                    "of elasticity (`elastic=False`): every built-in "
                    "protocol survives membership churn, so justify "
                    "the exception with "
                    "`# repro: ignore[contract-elastic]`",
                )


class ScenarioUniversalRule(Rule):
    name = "contract-universal"
    group = "contracts"
    summary = "register_scenario must declare universal= explicitly"
    rationale = (
        "universal decides conformance-matrix membership (and golden "
        "coverage); an inherited default silently widens or narrows "
        "the bit-exactness contract"
    )
    scope = None

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) != "register_scenario":
            return
        if not node.args and not _has_keyword(node, "name"):
            return
        if not _has_keyword(node, "universal"):
            registered = _registered_name(node) or "<dynamic>"
            ctx.report(
                self,
                node,
                f"register_scenario({registered!r}, ...) does not "
                "declare `universal=`; state explicitly whether every "
                "protocol completes under this family",
            )


class RegistryDocstringRule(Rule):
    name = "contract-docstring"
    group = "contracts"
    summary = "registered names must appear in the module docstring"
    rationale = (
        "the registering module's docstring is its human-facing table "
        "of contents; a name missing there is invisible to readers "
        "who never grep for register_* calls"
    )
    scope = None

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) not in ("register_protocol", "register_scenario"):
            return
        registered = _registered_name(node)
        if registered is None:
            return
        if registered not in ctx.module_docstring:
            ctx.report(
                self,
                node,
                f"registered name {registered!r} is missing from the "
                "module docstring; add it to the module's table so "
                "docs and registry stay in sync",
            )


class OneRegistryRule(Rule):
    name = "contract-one-registry"
    group = "contracts"
    summary = "name tables use repro.registry.Registry, not a module dict"
    rationale = (
        "five hand-rolled name -> builder dicts drifted apart (only one "
        "could unregister, none checked alias collisions, removal left "
        "dangling aliases); a module-level dict named as a registry or "
        "an alias map starts a sixth copy"
    )
    scope = None

    def visit_Assign(self, node: ast.Assign, ctx: ModuleContext) -> None:
        for target in node.targets:
            self._check(target, node.value, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign, ctx: ModuleContext) -> None:
        self._check(node.target, node.value, ctx)

    def _check(self, target: ast.AST, value, ctx: ModuleContext) -> None:
        name = getattr(target, "id", "")
        if (
            ctx.function_stack
            or ctx.class_stack
            or ctx.relpath == "repro/registry.py"
            or not name.rstrip("_").endswith(("REGISTRY", "ALIASES"))
        ):
            return
        if isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and call_name(value) == "dict"
        ):
            ctx.report(
                self,
                value,
                f"module-level name table {name!r}: register into a "
                "repro.registry.Registry instead (one alias map, lazy "
                "builtins and remove() for every plane)",
            )


register_rule(ProtocolElasticRule)
register_rule(ScenarioUniversalRule)
register_rule(RegistryDocstringRule)
register_rule(OneRegistryRule)
