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
4. a run saved by ``repro train --mode backup --n-backup 1 --skip
   --out`` (backup workers plus skipping, the paper's mechanisms)
   submitted by its ``spec`` is served at the file's ``spec_hash``
   with the file's result,
5. SIGTERM drains the server cleanly (exit code 0).

All of it runs over the client's one kept-alive connection, which
adds two checks: 50 sequential ``/healthz`` round trips take under a
second (no delayed-ACK stall), and the SIGTERM of step 5, sent while
that connection idles, exits in under 5 s rather than waiting out the
server's idle timeout.

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
import time
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
    from repro.harness.specio import spec_hash

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

            with tempfile.TemporaryDirectory() as scratch:
                saved_path = Path(scratch) / "backup-skip.json"
                subprocess.run(
                    [
                        sys.executable, "-m", "repro", "train",
                        "--mode", "backup", "--n-backup", "1", "--skip",
                        "--workers", "4", "--iterations", "5", "--seed", "1",
                        "--out", str(saved_path),
                    ],
                    env=env,
                    check=True,
                    stdout=subprocess.DEVNULL,
                )
                saved = json.loads(saved_path.read_text())
            spec, saved_hash = saved.pop("spec"), saved.pop("spec_hash")
            fifth = client.submit([spec])
            snap = client.wait_for_sweep(fifth["sweep_id"], timeout=120)
            assert list(snap["cells"]) == [saved_hash], snap
            assert snap["cells"][saved_hash]["status"] == "done", snap
            served = client.result(saved_hash)["result"]
            assert served == saved, (
                "the served backup+skip run differs from repro train's"
            )
            print(f"service smoke: repro train's backup+skip run is served "
                  f"at its own address {saved_hash[:12]}")

            start = time.perf_counter()
            for _ in range(50):
                assert client.healthz() == {"ok": True}
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"50 round trips took {elapsed:.2f} s"
            print(f"service smoke: 50 round trips on one connection "
                  f"in {elapsed:.2f} s")

            start = time.perf_counter()
            proc.send_signal(signal.SIGTERM)  # the connection is idle
            code = proc.wait(timeout=60)
            elapsed = time.perf_counter() - start
            assert code == 0, f"drain exited {code}"
            assert elapsed < 5.0, f"drain took {elapsed:.1f} s"
            print(
                f"service smoke: SIGTERM drained cleanly (exit 0, "
                f"{elapsed:.2f} s)"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
