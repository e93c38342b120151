"""Per-rule fixture corpus: every rule has a trigger and a clean twin.

The fixtures live under ``fixtures/repro/<package>/`` so that
scope-filtered rules see them at their real package-relative paths
(``package_relpath`` keys on the last ``repro`` path component).
"""

import ast
import functools
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint
from repro.analysis.config import LintConfig
from repro.analysis.rules.perf import _HOT_BASES, DES_SCOPE

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> fixture stem (``<stem>_bad.py`` / ``<stem>_good.py``).
CASES = [
    ("det-wall-clock", "repro/sim/det_wall_clock"),
    ("det-global-rng", "repro/sim/det_global_rng"),
    ("det-unseeded-rng", "repro/sim/det_unseeded_rng"),
    ("det-set-iter", "repro/sim/det_set_iter"),
    ("det-id-key", "repro/sim/det_id_key"),
    ("det-env-read", "repro/sim/det_env_read"),
    ("det-partition-order", "repro/compression/det_partition_order"),
    ("alias-params-write", "repro/core/alias_params_write"),
    ("alias-reduce-out", "repro/core/alias_reduce_out"),
    ("alias-hot-alloc", "repro/core/alias_hot_alloc"),
    ("alias-scratch-self", "repro/core/alias_scratch_self"),
    ("perf-slots", "repro/sim/perf_slots"),
    ("perf-send-closure", "repro/sim/perf_send_closure"),
    ("perf-fstring-name", "repro/sim/perf_fstring_name"),
    ("io-atomic-write", "repro/harness/io_atomic_write"),
    ("contract-elastic", "repro/protocols/contract_elastic"),
    ("contract-universal", "repro/protocols/contract_universal"),
    ("contract-docstring", "repro/protocols/contract_docstring"),
    ("contract-one-registry", "repro/graphs/contract_one_registry"),
]


def lint_fixture(name: str):
    config = LintConfig(root=FIXTURES, baseline=None)
    return run_lint([FIXTURES / name], config=config)


def test_every_registered_project_rule_has_a_fixture_pair():
    from repro.analysis import UNUSED_SUPPRESSION, registered_rules

    covered = {rule for rule, _ in CASES}
    # The engine-level unused-suppression check is exercised by
    # test_engine.py's dedicated fixtures instead.
    expected = set(registered_rules()) - {UNUSED_SUPPRESSION}
    assert covered == expected


@pytest.mark.parametrize("rule,stem", CASES, ids=[c[0] for c in CASES])
def test_bad_fixture_triggers_exactly_its_rule(rule, stem):
    report = lint_fixture(f"{stem}_bad.py")
    assert [finding.rule for finding in report.findings] == [rule]
    finding = report.findings[0]
    assert finding.path.startswith("repro/")
    assert finding.message
    assert finding.snippet
    assert finding.fingerprint and len(finding.fingerprint) == 16
    assert rule in finding.render()


@pytest.mark.parametrize("rule,stem", CASES, ids=[c[0] for c in CASES])
def test_good_fixture_is_clean(rule, stem):
    report = lint_fixture(f"{stem}_good.py")
    assert report.findings == []
    assert report.ok


def test_scoped_rule_ignores_out_of_scope_package(tmp_path):
    # det-env-read scopes out repro/ml (dataset paths legitimately come
    # from the environment there); the same source in-scope triggers.
    source = 'import os\n\n\ndef knob():\n    return os.getenv("K")\n'
    ml = tmp_path / "repro" / "ml"
    ml.mkdir(parents=True)
    (ml / "mod.py").write_text(source)
    config = LintConfig(root=tmp_path, baseline=None)
    report = run_lint([ml / "mod.py"], rules=["det-env-read"], config=config)
    assert report.findings == []


def test_io_atomic_write_flags_write_text_variant(tmp_path):
    # The second shape the rule knows: Path.write_text(json.dumps(...))
    # truncates the target before writing — same torn-file window.
    source = (
        '"""Module persisting a baseline."""\n\n'
        "import json\n\n\n"
        "def persist(path, payload):\n"
        '    path.write_text(json.dumps(payload, indent=2) + "\\n")\n'
    )
    pkg = tmp_path / "repro" / "harness"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    config = LintConfig(root=tmp_path, baseline=None)
    report = run_lint(
        [pkg / "mod.py"], rules=["io-atomic-write"], config=config
    )
    assert [finding.rule for finding in report.findings] == [
        "io-atomic-write"
    ]
    assert "write_text" in report.findings[0].message


def test_contract_elastic_flags_unjustified_opt_out(tmp_path):
    # elastic=False without a reviewed ignore is a conformance-grid
    # regression; with the suppression comment it is sanctioned (the
    # clean twin fixture covers that side).
    source = (
        '"""Module registering ``static-proto``."""\n\n'
        "from repro.protocols.registry import register_protocol\n\n"
        "register_protocol(\n"
        '    "static-proto",\n'
        "    lambda spec: None,\n"
        '    summary="opted out without review",\n'
        "    elastic=False,\n"
        ")\n"
    )
    pkg = tmp_path / "repro" / "protocols"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    config = LintConfig(root=tmp_path, baseline=None)
    report = run_lint(
        [pkg / "mod.py"], rules=["contract-elastic"], config=config
    )
    assert [finding.rule for finding in report.findings] == [
        "contract-elastic"
    ]
    assert "elastic=False" in report.findings[0].message



@functools.lru_cache(maxsize=None)
def classes_in_des_scope() -> frozenset:
    """Every class name defined in the packages ``perf-slots`` scans."""
    src = Path(repro.__file__).parent.parent
    names = set()
    for package in DES_SCOPE:
        for path in sorted((src / package).rglob("*.py")):
            names.update(
                node.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
            )
    return frozenset(names)


@pytest.mark.parametrize("base", sorted(_HOT_BASES))
def test_every_perf_slots_hot_base_is_a_class_in_scope(base):
    # An entry naming a class that no longer exists guards nothing.
    assert base in classes_in_des_scope()
