"""``repro train`` builds its run through the spec codec.

The CLI turns its flags into the flat description ``repro serve``
accepts, so a saved run (``--out``) carries its canonical spec and
content address, and the service's runner recomputes the same result
from that spec.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.harness.specio import spec_hash
from repro.service.runner import execute_cell

#: ``spec_hash({})``, pinned in ``test_specio.PINNED_DIGESTS``.
_DEFAULT = "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"

#: The paper's three mechanisms under a straggler (so backup and skip
#: change the run), the plain baseline, and a PS cell whose
#: ``--staleness`` is the server's bound rather than Hop's.
CELLS = {
    "hop-standard": [],
    "hop-backup": ["--mode", "backup", "--n-backup", "1"],
    "hop-staleness": ["--mode", "staleness", "--staleness", "2"],
    "hop-backup-skip": ["--mode", "backup", "--skip", "--max-skip", "2"],
    "ps-ssp": ["--protocol", "ps-ssp", "--staleness", "2"],
}


def _train(tmp_path, *argv) -> dict:
    out = tmp_path / "run.json"
    assert main(["train", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("argv", list(CELLS.values()), ids=list(CELLS))
def test_train_and_the_service_runner_give_one_result(argv, tmp_path, capsys):
    saved = _train(
        tmp_path,
        "--workers", "4", "--iterations", "5", "--seed", "1",
        "--scenario", "straggler", *argv,
    )
    spec, digest = saved.pop("spec"), saved.pop("spec_hash")
    assert spec_hash(spec) == digest
    cell = execute_cell(spec)
    assert cell["spec_hash"] == digest
    assert json.loads(json.dumps(cell["result"])) == saved


def test_the_saved_spec_names_the_run(tmp_path, capsys):
    saved = _train(
        tmp_path,
        "--workers", "4", "--iterations", "5", "--seed", "1",
        "--scenario", "straggler", *CELLS["hop-backup-skip"],
    )
    assert saved["spec"]["config"] == {
        "mode": "backup", "n_backup": 1, "skip": {"max_skip": 2},
    }
    assert "skip(max=2, trig=2)" in saved["config"]
    saved = _train(
        tmp_path, "--workers", "4", "--iterations", "5",
        *CELLS["ps-ssp"],
    )
    assert saved["spec"]["ps_staleness"] == 2
    assert "config" not in saved["spec"]


def test_train_without_flags_records_the_default_address(tmp_path, capsys):
    saved = _train(tmp_path)
    assert saved["spec"] == {}
    assert saved["spec_hash"] == _DEFAULT


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["--scenario", "straggler", "--scenario-param", "factr=9"],
            "error: scenario 'straggler' does not take ['factr']",
        ),
        (
            ["--compression", "topk", "--compression-param", "ratoi=0.1"],
            "error: compressor 'topk' does not take ['ratoi']",
        ),
        (
            ["--compression-param", "ratio=0.1"],
            "error: compressor 'none' does not take ['ratio']",
        ),
        (
            ["--protocol", "adpsgd", "--mode", "backup"],
            "error: config is hop-only; protocol 'adpsgd' takes none",
        ),
    ],
    ids=["scenario-knob", "compression-knob", "knob-without-scheme",
         "config-off-hop"],
)
def test_a_rejected_spec_is_a_one_line_error(argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--workers", "4", "--iterations", "3", *argv])
    assert exit_info.value.code == message


def test_the_cli_loads_no_service_module():
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.service')))",
        ],
        capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "[]"
