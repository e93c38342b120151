"""Built-in lint rules, grouped by the invariant family they protect.

Importing this package registers every built-in rule (``RULES`` imports
it on first lookup), mirroring how ``repro.scenarios.builtin``
registers scenario families.

The ``lint-unused-suppression`` check is implemented inside the engine
(it needs the suppression-usage ledger), but registers here like any
other rule so ``--list-rules``, fixtures and ``--rules`` treat it
uniformly.
"""

from __future__ import annotations

from repro.analysis.engine import UNUSED_SUPPRESSION, Rule
from repro.analysis.registry import register_rule

from repro.analysis.rules import aliasing  # noqa: F401
from repro.analysis.rules import contracts  # noqa: F401
from repro.analysis.rules import determinism  # noqa: F401
from repro.analysis.rules import io_rules  # noqa: F401
from repro.analysis.rules import perf  # noqa: F401


class UnusedSuppressionRule(Rule):
    """Marker class: the engine itself performs this check.

    A ``# repro: ignore[rule-id]`` that suppressed no finding is stale:
    either the violation was fixed (delete the comment) or the rule id
    is misspelled (the suppression never protected anything).
    """

    name = UNUSED_SUPPRESSION
    group = "engine"
    summary = "suppressions must suppress something"
    rationale = (
        "stale ignores hide future regressions at their line; the "
        "engine reports any suppression that matched no finding"
    )
    scope = None


register_rule(UnusedSuppressionRule)
