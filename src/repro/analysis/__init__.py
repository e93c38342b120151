"""`repro.analysis`: the simulator-invariant static-analysis engine.

A single-pass AST linter whose rules encode this repository's
non-negotiable invariants — bit-exact determinism, the zero-copy
parameter plane's ownership rules, the DES engine's performance idioms
and the registry contracts — plus a runtime sanitizer
(``REPRO_SANITIZE=1``) that cross-checks the aliasing rules
dynamically.  Surfaced as ``repro lint`` in the CLI and a gate in
``scripts/ci.sh``.

Rules self-register in :data:`RULES` under stable ids; the
ARCHITECTURE "Adding a rule" walkthrough is mirrored by a test.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig
from repro.analysis.engine import (
    Finding,
    LintReport,
    Rule,
    UNUSED_SUPPRESSION,
    lint_source,
    run_lint,
)
from repro.analysis.registry import (
    RULES,
    RuleInfo,
    get_rule,
    register_rule,
    registered_rules,
    resolve_rules,
    rule_groups,
    rule_table,
    unregister_rule,
)
from repro.analysis.runtime import sanitize_enabled, writable_window

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "RuleInfo",
    "UNUSED_SUPPRESSION",
    "get_rule",
    "lint_source",
    "register_rule",
    "registered_rules",
    "resolve_rules",
    "rule_groups",
    "rule_table",
    "run_lint",
    "sanitize_enabled",
    "unregister_rule",
    "writable_window",
]
