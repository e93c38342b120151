"""Chaos harness: kill the real server and watch it come back right.

These tests drive ``python -m repro serve`` as a subprocess — the same
entry point operators use — and assert the crash-safety contract:

* ``kill -9`` mid-sweep, restart on the same state dir -> the sweep
  resumes and completes, cells finished before the kill are served as
  verified cache hits, and nothing computes twice;
* corrupting a cache entry on disk -> the restart detects the bad
  fingerprint/integrity and recomputes instead of serving it;
* SIGTERM while a sweep is in flight -> the server drains (finishes
  the work, then exits 0) instead of dropping it;
* ``kill -9`` under a client's kept-alive connection, restart on the
  same port -> the client notices and reconnects, and a request that
  may be sent only once is still delivered.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.harness.specio import spec_hash

#: One cell is a sub-second run; delay_seconds stretches the sweep so
#: a kill provably lands mid-flight.
BASE = {"workers": 4, "max_iter": 2}


def sweep_specs(n=4, delay=0.4):
    return [
        {**BASE, "seed": seed, "chaos": {"delay_seconds": delay}}
        for seed in range(n)
    ]


class ServerProcess:
    """A ``repro serve`` subprocess bound to an OS-assigned port."""

    def __init__(self, state_dir, pool_workers=1, extra=()):
        env = dict(os.environ)
        src = str(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(state_dir),
                "--port", "0",
                "--pool-workers", str(pool_workers),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            # Its own process group, which its pool workers join:
            # cleanup() can reach every process the server started.
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        assert match, f"no listen line, got: {line!r}"
        self.url = f"http://127.0.0.1:{match.group(1)}"
        self.client = ServiceClient(self.url, timeout=10.0)

    def kill9(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def sigterm(self):
        self.proc.send_signal(signal.SIGTERM)

    def cleanup(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the server and its pool workers are all gone
        self.proc.wait(timeout=30)


def group_members(pgid):
    """The live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                line = stat.read()
        except OSError:  # exited meanwhile
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _, pgrp = line[line.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.fixture
def state_dir(tmp_path):
    return tmp_path / "state"


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process groups from /proc"
)
def test_a_killed_servers_pool_worker_exits_with_it(state_dir):
    """``kill -9`` the server after one computed cell: its idle pool
    worker, which no shutdown will reach, must not outlive it."""
    server = ServerProcess(state_dir)
    try:
        server.client.submit([{**BASE, "seed": 0}], sweep_id="one-cell")
        final = server.client.wait_for_sweep("one-cell", timeout=120)
        assert final["failed"] == [] and final["total"] == 1
        group = server.proc.pid
        assert len(group_members(group)) == 2  # the server, one worker
        server.kill9()
        deadline = time.monotonic() + 10
        while group_members(group):
            assert time.monotonic() < deadline, (
                f"still running after the server: {group_members(group)}"
            )
            time.sleep(0.05)
    finally:
        server.cleanup()


def test_kill9_mid_sweep_then_restart_completes_without_recompute(
    state_dir,
):
    specs = sweep_specs(n=4, delay=0.4)
    hashes = [spec_hash(s) for s in specs]
    server = ServerProcess(state_dir)
    try:
        ticket = server.client.submit(specs, sweep_id="chaos-sweep")
        assert ticket["cells"] == hashes
        # Wait until the sweep is provably *mid-flight*: some cells
        # done, some not.
        deadline = time.monotonic() + 60
        while True:
            snapshot = server.client.sweep("chaos-sweep")
            if 1 <= snapshot["done"] < snapshot["total"]:
                break
            assert time.monotonic() < deadline, "never reached mid-sweep"
            time.sleep(0.05)
        server.kill9()  # no drain, no goodbye
        done_before = {
            h for h, cell in snapshot["cells"].items()
            if cell["status"] == "done"
        }
        assert done_before and len(done_before) < len(hashes)
    finally:
        server.cleanup()

    restarted = ServerProcess(state_dir)
    try:
        final = restarted.client.wait_for_sweep("chaos-sweep", timeout=120)
        assert final["failed"] == []
        assert final["total"] == len(hashes)
        # Every cell that finished before the kill comes back as a
        # verified cache hit...
        for digest in done_before:
            assert final["cells"][digest]["cache_hit"] is True
        # ...and nothing computed twice: recomputes + cache hits cover
        # the sweep exactly.
        stats = restarted.client.stats()
        hits = sum(
            1 for cell in final["cells"].values() if cell["cache_hit"]
        )
        assert stats["runs_computed"] + hits == len(hashes)
        assert stats["runs_computed"] <= len(hashes) - len(done_before)
        # Results are intact and self-consistent.
        for digest in hashes:
            entry = restarted.client.result(digest)
            assert entry["spec_hash"] == digest
    finally:
        restarted.cleanup()


def test_corrupted_cache_entry_is_recomputed_not_served(state_dir):
    spec = {**BASE, "seed": 1}
    digest = spec_hash(spec)
    server = ServerProcess(state_dir)
    try:
        ticket = server.client.submit([spec])
        server.client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        pristine = server.client.result(digest)
        server.sigterm()
        server.proc.wait(timeout=30)
    finally:
        server.cleanup()

    # Change one digit of the stored result while the server is down:
    # still valid JSON with an intact header, so the digest catches it.
    entry_path = state_dir / "cache" / digest[:2] / f"{digest}.json"
    raw = bytearray(entry_path.read_bytes())
    key = b'"messages_sent":'
    at = raw.index(key, raw.index(b'"result":')) + len(key)
    raw[at] = ord("1") + (raw[at] - ord("0")) % 9  # 1-9 -> another 1-9
    entry_path.write_bytes(bytes(raw))
    assert json.loads(raw)["result"]["messages_sent"] != (
        pristine["result"]["messages_sent"]
    )

    restarted = ServerProcess(state_dir)
    try:
        ticket = restarted.client.submit([spec])
        snapshot = restarted.client.wait_for_sweep(
            ticket["sweep_id"], timeout=60
        )
        cell = snapshot["cells"][digest]
        # Detected via the integrity check: recomputed, not served.
        assert cell["cache_hit"] is False
        stats = restarted.client.stats()
        assert stats["cache"]["corruptions"] == 1
        assert stats["runs_computed"] == 1
        healed = restarted.client.result(digest)
        assert healed["fingerprint"] == pristine["fingerprint"]
        assert healed["result"] == pristine["result"]
    finally:
        restarted.cleanup()


def test_sigterm_drains_in_flight_sweep_then_exits_zero(state_dir):
    specs = sweep_specs(n=2, delay=0.5)
    server = ServerProcess(state_dir)
    try:
        server.client.submit(specs, sweep_id="drain-me")
        # Mid-flight SIGTERM: the server must finish the sweep, not
        # drop it.
        time.sleep(0.3)
        server.sigterm()
        assert server.proc.wait(timeout=120) == 0
        output = server.proc.stdout.read()
        assert "drained cleanly" in output
    finally:
        server.cleanup()

    # The drained sweep is journaled complete: a restart resumes
    # nothing and serves both results from cache.
    restarted = ServerProcess(state_dir)
    try:
        for spec in specs:
            entry = restarted.client.result(spec_hash(spec))
            assert entry["spec_hash"] == spec_hash(spec)
    finally:
        restarted.cleanup()


def test_client_reconnects_after_kill9_and_restart_on_the_same_port(
    state_dir,
):
    server = ServerProcess(state_dir)
    client = server.client
    try:
        assert client.healthz() == {"ok": True}  # leaves a connection up
        server.kill9()
    finally:
        server.cleanup()

    port = client.url.rsplit(":", 1)[1]
    restarted = ServerProcess(state_dir, extra=("--port", port))
    try:
        assert restarted.url == client.url
        # A submit without a sweep id gets one attempt: it only lands
        # if the dead connection was noticed before it was written.
        with pytest.raises(ServiceError) as info:
            client.submit_one({**BASE, "bogus": True})
        assert info.value.status == 400
        assert client.healthz() == {"ok": True}
    finally:
        restarted.cleanup()


def test_worker_crash_chaos_recovers_through_the_full_stack(state_dir):
    # End-to-end version of the scheduler-level crash test: the worker
    # process dies via os._exit inside the pool, the server retries,
    # and the final stats match a clean run bitwise.
    chaotic = {**BASE, "seed": 7, "chaos": {"crash_attempts": 1}}
    clean = {**BASE, "seed": 7}
    digest = spec_hash(chaotic)
    assert digest == spec_hash(clean)

    server = ServerProcess(state_dir, extra=("--attempts", "3"))
    try:
        ticket = server.client.submit([chaotic])
        snapshot = server.client.wait_for_sweep(
            ticket["sweep_id"], timeout=120
        )
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert cell["attempts"] >= 2
        stats = server.client.stats()
        assert stats["worker_crashes"] >= 1
        crashed_entry = server.client.result(digest)
    finally:
        server.cleanup()

    # A pristine state dir computes the same spec without chaos: the
    # fingerprints must be bitwise identical.
    clean_dir = state_dir.parent / "clean-state"
    clean_server = ServerProcess(clean_dir)
    try:
        ticket = clean_server.client.submit([clean])
        clean_server.client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        clean_entry = clean_server.client.result(digest)
        assert crashed_entry["fingerprint"] == clean_entry["fingerprint"]
        assert crashed_entry["result"] == clean_entry["result"]
    finally:
        clean_server.cleanup()
