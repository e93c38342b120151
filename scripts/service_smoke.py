#!/usr/bin/env python
"""CI smoke for the experiment service (``repro serve``).

Spawns a real server subprocess on an OS-assigned port, submits the
golden-pinned conformance spec twice, and asserts the contract:

1. the first submit computes and its fingerprint equals the recorded
   ``hop/none`` golden-stats cell bit-for-bit,
2. the second identical submit is served as a fingerprint-verified
   cache hit (zero recomputation),
3. after one digit of the stored entry changes on disk, the third
   submit recomputes it (one corruption counted, the fingerprint still
   the golden one) and the fourth is a hit again,
4. SIGTERM drains the server cleanly (exit code 0).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The service spelling of ``conformance_spec("hop", "none", seed=1)``
#: — the same cell ``tests/scenarios/golden_stats.json`` pins.
GOLDEN_SPEC = {
    "workload": "svm",
    "preset": "smoke",
    "graph": "ring_based",
    "workers": 4,
    "protocol": "hop",
    "max_iter": 5,
    "seed": 1,
}


def change_one_digit(path: Path) -> None:
    """Bump the first digit of the stored result's ``messages_sent``.

    The file stays valid JSON with an intact header and address, so
    only the integrity digest can tell.
    """
    raw = bytearray(path.read_bytes())
    key = b'"messages_sent":'
    at = raw.index(key, raw.index(b'"result":')) + len(key)
    raw[at] = ord("1") + (raw[at] - ord("0")) % 9  # 1-9 -> another 1-9
    path.write_bytes(bytes(raw))


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.service.client import ServiceClient
    from repro.service.specio import spec_hash

    golden = json.loads(
        (REPO / "tests" / "scenarios" / "golden_stats.json").read_text()
    )
    golden_cell = golden["cells"]["hop/none"]
    digest = spec_hash(GOLDEN_SPEC)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as state_dir:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", state_dir,
                "--port", "0",
                "--pool-workers", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            assert match, f"no listen line: {line!r}"
            client = ServiceClient(
                f"http://127.0.0.1:{match.group(1)}", timeout=30.0
            )

            first = client.submit([GOLDEN_SPEC])
            snap = client.wait_for_sweep(first["sweep_id"], timeout=120)
            cell = snap["cells"][digest]
            assert cell["status"] == "done" and not cell["cache_hit"], cell
            entry = client.result(digest)
            assert entry["fingerprint"] == golden_cell, (
                "service run diverged from the golden hop/none cell:\n"
                f"  got   : {entry['fingerprint']}\n"
                f"  golden: {golden_cell}"
            )
            print(f"service smoke: computed {digest[:12]} == golden hop/none")

            second = client.submit([GOLDEN_SPEC])
            snap = client.wait_for_sweep(second["sweep_id"], timeout=60)
            cell = snap["cells"][digest]
            assert cell["cache_hit"] is True, cell
            stats = client.stats()
            assert stats["runs_computed"] == 1, stats
            print("service smoke: second submit was a verified cache hit")

            change_one_digit(
                Path(state_dir) / "cache" / digest[:2] / f"{digest}.json"
            )
            third = client.submit([GOLDEN_SPEC])
            snap = client.wait_for_sweep(third["sweep_id"], timeout=120)
            cell = snap["cells"][digest]
            assert cell["status"] == "done" and not cell["cache_hit"], cell
            stats = client.stats()
            assert stats["runs_computed"] == 2, stats
            assert stats["cache"]["corruptions"] == 1, stats
            entry = client.result(digest)
            assert entry["fingerprint"] == golden_cell, entry["fingerprint"]
            print("service smoke: a changed digit was caught and recomputed")

            fourth = client.submit([GOLDEN_SPEC])
            snap = client.wait_for_sweep(fourth["sweep_id"], timeout=60)
            assert snap["cells"][digest]["cache_hit"] is True, snap
            assert client.stats()["runs_computed"] == 2
            print("service smoke: the recomputed entry is a verified hit")

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
            assert code == 0, f"drain exited {code}"
            print("service smoke: SIGTERM drained cleanly (exit 0)")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
