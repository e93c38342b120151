"""HTTP-layer tests against an in-process server (inline scheduler).

Each test binds a real ``ThreadingHTTPServer`` on an OS-assigned port
and talks to it through :class:`repro.service.client.ServiceClient` —
the same stack ``repro serve`` / ``repro submit`` use.
"""

import json
import os
import socket
import threading

import pytest

from repro.service.cache import entry_digest
from repro.service.client import ServiceClient, ServiceError
from repro.service.runner import execute_cell
from repro.service.server import ExperimentService, make_server
from repro.harness.specio import canonical_spec, spec_hash

PAYLOAD = {"workers": 4, "max_iter": 2, "seed": 3}


@pytest.fixture
def service_stack(tmp_path):
    service = ExperimentService(
        tmp_path / "state", pool_workers=2, inline=True, max_pending=8
    )
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10.0
    )
    yield service, client
    httpd.shutdown()
    httpd.server_close()
    service.scheduler.shutdown(timeout=10)


class TestEndpoints:
    def test_submit_poll_result_round_trip(self, service_stack):
        _, client = service_stack
        ticket = client.submit_one(dict(PAYLOAD))
        assert ticket["sweep_id"] == "s000001"
        digest = ticket["cells"][0]
        assert digest == spec_hash(PAYLOAD)
        snapshot = client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        assert snapshot["complete"] is True
        assert snapshot["cells"][digest]["status"] == "done"
        entry = client.result(digest)
        assert entry["spec_hash"] == digest
        assert entry["spec"] == canonical_spec(PAYLOAD)
        assert "final_params_sha256" in entry["fingerprint"]

    def test_result_is_the_five_key_entry_integrity_included(
        self, service_stack
    ):
        # The body older versions served for this spec: the stored
        # layout changed, the entry and its digest did not.
        _, client = service_stack
        ticket = client.submit_one(dict(PAYLOAD))
        client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        digest = ticket["cells"][0]
        outcome = execute_cell(dict(PAYLOAD))
        assert client.result(digest) == {
            "spec_hash": digest,
            "spec": outcome["spec"],
            "fingerprint": outcome["fingerprint"],
            "result": outcome["result"],
            "integrity": entry_digest(
                digest, outcome["spec"], outcome["fingerprint"],
                outcome["result"],
            ),
        }

    def test_multi_spec_sweep_with_explicit_id(self, service_stack):
        _, client = service_stack
        specs = [dict(PAYLOAD), {**PAYLOAD, "seed": 4}]
        ticket = client.submit(specs, sweep_id="mine")
        assert ticket["sweep_id"] == "mine"
        snapshot = client.wait_for_sweep("mine", timeout=60)
        assert snapshot["total"] == 2
        assert snapshot["failed"] == []

    def test_second_submit_is_a_cache_hit(self, service_stack):
        _, client = service_stack
        first = client.submit_one(dict(PAYLOAD))
        client.wait_for_sweep(first["sweep_id"], timeout=60)
        second = client.submit_one(dict(PAYLOAD))
        snapshot = client.wait_for_sweep(second["sweep_id"], timeout=60)
        digest = spec_hash(PAYLOAD)
        assert snapshot["cells"][digest]["cache_hit"] is True
        assert client.stats()["runs_computed"] == 1

    def test_bad_spec_is_a_400_with_the_validation_message(
        self, service_stack
    ):
        _, client = service_stack
        with pytest.raises(ServiceError) as info:
            client.submit_one({"workers": 4, "bogus": True})
        assert info.value.status == 400
        assert "unknown spec field" in str(info.value)

    def test_a_misspelled_compression_knob_is_a_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as info:
            client.submit_one(
                {
                    "workers": 4,
                    "compression": {"scheme": "topk",
                                    "params": {"ratoi": 0.1}},
                }
            )
        assert info.value.status == 400
        assert "compressor 'topk' does not take ['ratoi']" in str(info.value)

    def test_a_misspelled_scenario_knob_is_a_400_not_a_failed_run(
        self, service_stack
    ):
        _, client = service_stack
        with pytest.raises(ServiceError) as info:
            client.submit_one(
                {
                    "workers": 4,
                    "max_iter": 2,
                    "scenario": {"family": "straggler",
                                 "params": {"factr": 9}},
                }
            )
        assert info.value.status == 400
        assert "scenario 'straggler' does not take ['factr']" in str(
            info.value
        )
        stats = client.stats()
        assert stats["retries"] == 0 and stats["run_failures"] == 0

    def test_malformed_json_is_a_400(self, service_stack):
        _, client = service_stack
        import urllib.request
        request = urllib.request.Request(
            client.url + "/submit", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_unknown_sweep_and_result_are_404(self, service_stack):
        _, client = service_stack
        for path in ("/sweep/nope", "/result/" + "0" * 64, "/nope"):
            with pytest.raises(ServiceError) as info:
                client._request(path)
            assert info.value.status == 404

    def test_duplicate_sweep_id_is_a_409(self, service_stack):
        _, client = service_stack
        client.submit([dict(PAYLOAD)], sweep_id="dup")
        with pytest.raises(ServiceError) as info:
            client.submit([{**PAYLOAD, "seed": 9}], sweep_id="dup")
        assert info.value.status == 409
        client.wait_for_sweep("dup", timeout=60)

    def test_resubmitting_identical_sweep_is_idempotent(self, service_stack):
        # A client retry after a lost response re-sends the same
        # sweep_id + cells; the server must acknowledge with the
        # existing ticket, not 409, and never duplicate the sweep.
        _, client = service_stack
        first = client.submit([dict(PAYLOAD)], sweep_id="retry")
        second = client.submit([dict(PAYLOAD)], sweep_id="retry")
        assert second == first
        snapshot = client.wait_for_sweep("retry", timeout=60)
        assert snapshot["total"] == 1
        assert client.stats()["runs_computed"] == 1


class TestDegradation:
    def test_healthz_always_answers(self, service_stack):
        _, client = service_stack
        assert client.healthz() == {"ok": True}

    def test_overload_sheds_with_429_and_readyz_reflects_it(self, tmp_path):
        service = ExperimentService(
            tmp_path / "state", inline=True, max_pending=1
        )
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10.0
        )
        try:
            slow = {**PAYLOAD, "chaos": {"delay_seconds": 1.0}}
            ticket = client.submit_one(slow)
            with pytest.raises(ServiceError) as info:
                client.submit_one({**PAYLOAD, "seed": 5})
            assert info.value.status == 429
            assert client.readyz() is False  # saturated
            assert client.healthz() == {"ok": True}  # but alive
            client.wait_for_sweep(ticket["sweep_id"], timeout=60)
            assert client.readyz() is True  # recovered
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.scheduler.shutdown(timeout=10)

    def test_draining_returns_503_and_unready(self, service_stack):
        service, client = service_stack
        service.scheduler.drain(timeout=10)
        with pytest.raises(ServiceError) as info:
            client.submit_one(dict(PAYLOAD))
        assert info.value.status == 503
        assert client.readyz() is False

    def test_slow_client_does_not_block_other_requests(self, service_stack):
        _, client = service_stack
        # Open a connection and... do nothing with it (a stalled
        # client holding a socket); health checks must still answer.
        host, port = client.url.rsplit(":", 1)[0][7:], int(
            client.url.rsplit(":", 1)[1]
        )
        stalled = socket.create_connection((host, port))
        try:
            stalled.sendall(b"POST /submit HTTP/1.1\r\n")  # never finishes
            assert client.healthz() == {"ok": True}
            ticket = client.submit_one(dict(PAYLOAD))
            assert client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        finally:
            stalled.close()


class TestResume:
    def test_resume_replays_incomplete_sweeps_from_cache(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentService(state, inline=True)
        ticket = first.submit(dict(PAYLOAD))
        sweep = first.scheduler.sweep(ticket["sweep_id"])
        assert sweep.finished.wait(60)
        # Simulate dying *before* sweep-done landed: rebuild the
        # journal without the final record.
        digest = spec_hash(PAYLOAD)
        lines = [
            json.dumps(
                {"kind": "sweep", "sweep_id": "s000001",
                 "cells": [{"hash": digest, "payload": PAYLOAD}]}
            )
        ]
        (state / "journal.jsonl").write_text("\n".join(lines) + "\n")
        first.scheduler.shutdown(timeout=10)

        second = ExperimentService(state, inline=True)
        resumed = second.resume()
        assert resumed == ["s000001"]
        sweep = second.scheduler.sweep("s000001")
        assert sweep.finished.wait(60)
        cell = sweep.snapshot()["cells"][digest]
        # The pre-crash result is found in the cache: no recompute.
        assert cell["cache_hit"] is True
        assert second.scheduler.counters["runs_computed"] == 0
        assert second.journal.replay()["s000001"].complete
        second.scheduler.shutdown(timeout=10)

    def test_resumed_sweep_probes_each_cell_once(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentService(state, inline=True)
        cached = [{**PAYLOAD, "seed": seed} for seed in (20, 21)]
        ticket = first.submit({"specs": cached})
        assert first.scheduler.sweep(ticket["sweep_id"]).finished.wait(60)
        first.shutdown(timeout=10)
        # A sweep the dead server had journaled but never finished:
        # two of its cells are in the cache, one is not.
        specs = cached + [{**PAYLOAD, "seed": 22}]
        cells = [{"hash": spec_hash(s), "payload": s} for s in specs]
        with open(state / "journal.jsonl", "a") as handle:
            handle.write(json.dumps(
                {"kind": "sweep", "sweep_id": "s000002", "cells": cells}
            ) + "\n")

        second = ExperimentService(state, inline=True)
        assert second.resume() == ["s000002"]
        assert second.scheduler.sweep("s000002").finished.wait(60)
        assert second.cache.stats() == {
            "hits": 2, "misses": 1, "corruptions": 0,
        }
        assert second.scheduler.counters["runs_computed"] == 1
        assert second.journal.replay()["s000002"].complete
        second.shutdown(timeout=10)

    def test_completed_sweeps_are_not_resumed(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentService(state, inline=True)
        ticket = first.submit(dict(PAYLOAD))
        sweep = first.scheduler.sweep(ticket["sweep_id"])
        assert sweep.finished.wait(60)
        first.scheduler.shutdown(timeout=10)

        second = ExperimentService(state, inline=True)
        assert second.resume() == []
        # ...and the sweep-id sequence continues, never reuses.
        ticket = second.submit({**PAYLOAD, "seed": 11})
        assert ticket["sweep_id"] == "s000002"
        second.scheduler.sweep("s000002").finished.wait(60)
        second.scheduler.shutdown(timeout=10)


class TestShutdown:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_shutdown_leaves_no_open_journal_descriptor(self, tmp_path):
        def journal_fds():
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:  # the listing's own descriptor
                    continue
                if target.startswith(str(journal)):  # incl. "... (deleted)"
                    found.append(target)
            return found

        journal = tmp_path / "state" / "journal.jsonl"
        service = ExperimentService(tmp_path / "state", inline=True)
        ticket = service.submit(dict(PAYLOAD))
        assert service.scheduler.sweep(ticket["sweep_id"]).finished.wait(60)
        assert len(journal_fds()) == 1  # the kept-open append handle
        assert service.shutdown(timeout=10)
        assert journal_fds() == []


class TestPoolWorkers:
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_pool_workers_taken_as_given(self, tmp_path, monkeypatch, workers):
        # One cell runs in one process, so no other knob scales the pool.
        monkeypatch.setenv("REPRO_SHARDS", "4")
        service = ExperimentService(
            tmp_path / "state", pool_workers=workers, inline=True
        )
        assert service.scheduler.pool_workers == workers
        assert service.shutdown(timeout=10)


class TestClientPolling:
    @pytest.fixture
    def naps(self, monkeypatch):
        """The intervals ``wait_for_sweep`` sleeps (and only those: the
        client module gets its own ``time``)."""
        import time
        import types

        from repro.service import client as client_module

        naps = []
        monkeypatch.setattr(
            client_module,
            "time",
            types.SimpleNamespace(
                monotonic=time.monotonic,
                sleep=lambda s: (naps.append(s), time.sleep(s))[1],
            ),
        )
        return naps

    def test_wait_for_sweep_backs_off_from_5ms_up_to_poll(
        self, service_stack, naps
    ):
        _, client = service_stack
        slow = {**PAYLOAD, "seed": 31, "chaos": {"delay_seconds": 0.4}}
        ticket = client.submit([slow])
        snapshot = client.wait_for_sweep(
            ticket["sweep_id"], timeout=60, poll=0.05
        )
        assert snapshot["complete"]
        assert naps[0] == pytest.approx(0.005)
        assert naps == sorted(naps) and max(naps) == pytest.approx(0.05)
        assert all(b <= 1.5 * a + 1e-12 for a, b in zip(naps, naps[1:]))

    def test_a_hit_sweep_does_not_wait_out_a_whole_poll(
        self, service_stack, naps
    ):
        _, client = service_stack
        client.wait_for_sweep(client.submit([PAYLOAD])["sweep_id"], timeout=60)
        del naps[:]
        ticket = client.submit([PAYLOAD])  # a hit: settles in milliseconds
        snapshot = client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        assert snapshot["complete"]
        assert sum(naps) < 0.2  # one fixed poll used to be the floor
