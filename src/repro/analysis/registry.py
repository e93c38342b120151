"""The lint-rule registry: name -> rule class.

Every simulator-invariant lint rule registers in :data:`RULES` (a
:class:`~repro.registry.Registry`) under a stable id
(``"det-wall-clock"``, ...); the engine, ``repro lint --rules`` /
``--list-rules`` and the docs table resolve rules there.  Adding one is
a :class:`~repro.analysis.engine.Rule` subclass with ``visit_<NodeType>``
methods and a :func:`register_rule` call (the ARCHITECTURE walkthrough).

Rules are grouped (``determinism`` / ``aliasing`` / ``perf`` /
``contracts`` / ``engine``) so ``repro lint --rules`` accepts either
individual ids or whole group names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Type

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.analysis.engine import Rule


@dataclass(frozen=True)
class RuleInfo:
    """One registered lint rule.

    Attributes:
        name: Stable rule id (the suppression / CLI spelling).
        rule: The :class:`~repro.analysis.engine.Rule` subclass; the
            engine instantiates a fresh checker per linted module, so
            rules may keep per-module state freely.
        group: Rule family (``determinism``, ``aliasing``, ``perf``,
            ``contracts``, ``engine``).
        summary: One-line description for ``--list-rules`` and docs.
        rationale: Which simulator guarantee the rule protects.
        scope: Path prefixes (relative to the package root, e.g.
            ``"repro/core"``) the rule applies to; ``None`` means every
            linted file.
    """

    name: str
    rule: Type["Rule"]
    group: str
    summary: str = ""
    rationale: str = ""
    scope: Optional[Tuple[str, ...]] = None


#: Every registered rule; the built-in rules load on first lookup.
RULES: Registry[RuleInfo] = Registry(
    "lint rule", RuleInfo, builtins=("repro.analysis.rules",)
)


def register_rule(rule: Type["Rule"]) -> RuleInfo:
    """Register (or re-register) a rule class under its ``rule.name``.

    The class itself carries its metadata (``name``, ``group``,
    ``summary``, ``rationale``, ``scope``), so registration is just
    ``register_rule(MyRule)``.
    """
    if not rule.name:
        raise ValueError(f"{rule!r} must define a non-empty `name`")
    return RULES.register(
        rule.name, rule, rule.group, rule.summary, rule.rationale, rule.scope
    )


get_rule = RULES.get
registered_rules = RULES.names
unregister_rule = RULES.remove


def rule_groups() -> List[str]:
    """Sorted names of every rule group."""
    return sorted({info.group for info in RULES})


def resolve_rules(names: Optional[Iterable[str]] = None) -> List[RuleInfo]:
    """Resolve rule ids *or group names* to :class:`RuleInfo` rows.

    ``None`` selects every registered rule.  Group names expand to all
    rules in the group, so ``--rules determinism`` runs the whole
    family.
    """
    if names is None:
        return list(RULES)
    selected = set()
    for name in names:
        group = RULES.names(where=lambda info: info.group == name)
        selected.update(group or [RULES.get(name).name])
    return [RULES.get(name) for name in sorted(selected)]


def rule_table() -> List[dict]:
    """``[{name, group, summary, rationale, scope}, ...]`` rows."""
    return RULES.table(
        ("name", "group", "summary", "rationale", "scope"),
        scope=lambda scope: list(scope or ()),
    )
