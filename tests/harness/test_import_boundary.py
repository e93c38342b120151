"""A simulation imports only the simulator.

Every cell of a heterogeneity grid starts in a fresh interpreter (a
``repro`` call, a benchmark child, a pool worker), so whatever the run
path imports is paid once per cell.  These checks run in a fresh
interpreter and assert that running a cell loads none of the figure
registry, the lint engine or the HTTP stack.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

STUDIES_AND_LINT = (
    "repro.harness.figures",
    "repro.harness.ablations",
    "repro.analysis.engine",
)

#: Not loaded by importing what a benchmark child imports and running
#: one cell: the study driver, the lint engine's ``tomllib`` and the
#: HTTP stack (``http.client`` pulls in ``email.parser`` and ``ssl``).
OFF_THE_RUN_PATH = STUDIES_AND_LINT + (
    "repro.harness.study",
    "tomllib",
    "http.client",
    "http.server",
    "email.parser",
    "ssl",
)


def loaded_modules(body):
    """Run ``body`` in a fresh interpreter; the module names it loaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = textwrap.dedent(body) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(sys.modules)))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


def test_a_cell_loads_no_studies_lint_or_http():
    loaded = loaded_modules(
        """
        import repro.harness.golden
        import repro.harness.spec
        import repro.harness.workloads
        import repro.protocols.registry
        import repro.service
        from repro.harness.golden import conformance_spec
        from repro.harness.spec import run_spec

        run = run_spec(conformance_spec("hop", "none"))
        assert run.iterations_completed == [run.max_iter] * run.n_workers
        """
    )
    assert "repro.core.worker" in loaded  # the hop cell really ran
    assert sorted(loaded & set(OFF_THE_RUN_PATH)) == []


def test_repro_train_loads_no_studies_or_lint():
    loaded = loaded_modules(
        """
        import runpy, sys

        sys.argv = ["repro", "train", "--workers", "4", "--iterations", "2"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert exit.code in (0, None), exit.code
        """
    )
    assert "repro.cli" in loaded
    assert sorted(loaded & set(STUDIES_AND_LINT)) == []
