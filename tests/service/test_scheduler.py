"""Scheduler tests: cache-first, deterministic retries, admission.

Fast paths run ``inline=True`` (cells execute in the dispatcher
thread); the process-pool failure modes — a crashed worker breaking
the pool, a hung worker tripping the run timeout — use a real
``ProcessPoolExecutor`` with the runner's chaos knobs.
"""

import json
import os
import threading
import time

import pytest

from repro.harness.io import atomic_write_json
from repro.service.cache import ResultCache, entry_digest
from repro.service.journal import RunJournal
from repro.service.runner import execute_cell
from repro.service.scheduler import (
    RunScheduler,
    SchedulerDraining,
    ServiceOverloaded,
)
from repro.service.specio import spec_hash

#: A complete run in well under a second.
PAYLOAD = {"workers": 4, "max_iter": 2, "seed": 3}


def make_scheduler(tmp_path, **kwargs):
    kwargs.setdefault("inline", True)
    kwargs.setdefault("backoff_base", 0.001)
    return RunScheduler(
        ResultCache(tmp_path / "cache"),
        RunJournal(tmp_path / "journal.jsonl"),
        **kwargs,
    )


def wait(sweep, timeout=60.0):
    assert sweep.finished.wait(timeout), "sweep did not finish"
    return sweep.snapshot()


class TestHappyPathAndCache:
    def test_computes_then_serves_from_cache(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        first = wait(scheduler.submit_sweep("s1", [(digest, PAYLOAD)]))
        assert first["cells"][digest] == {
            "status": "done", "cache_hit": False, "attempts": 1,
            "error": None,
        }
        second = wait(scheduler.submit_sweep("s2", [(digest, PAYLOAD)]))
        assert second["cells"][digest]["cache_hit"] is True
        assert second["cells"][digest]["attempts"] == 0
        assert scheduler.counters["runs_computed"] == 1
        scheduler.shutdown(timeout=5)

    def test_duplicate_hashes_collapse_to_one_cell(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)] * 3)
        )
        assert snapshot["total"] == 1
        assert scheduler.counters["runs_computed"] == 1
        scheduler.shutdown(timeout=5)

    def test_journal_records_the_whole_story(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        wait(scheduler.submit_sweep("s1", [(digest, PAYLOAD)]))
        state = scheduler.journal.replay()
        assert state["s1"].complete
        assert state["s1"].done[digest]["cache_hit"] is False
        scheduler.shutdown(timeout=5)


def sweep_cells(seeds):
    payloads = [{**PAYLOAD, "seed": seed} for seed in seeds]
    return [(spec_hash(payload), payload) for payload in payloads]


@pytest.fixture
def journal_fsyncs(monkeypatch):
    """``arm(scheduler)`` -> a list growing by one entry per ``os.fsync``
    of the scheduler's journal file: the sweeps already announced
    finished when that fsync *started*.  (Runs under the journal's
    lock, so it must not take the scheduler's.)"""
    real_fsync = os.fsync

    def arm(scheduler):
        seen = []

        def counting(fd):
            if os.path.samestat(
                os.fstat(fd), os.stat(scheduler.journal.path)
            ):
                seen.append([
                    sweep.sweep_id
                    for sweep in list(scheduler._sweeps.values())
                    if sweep.finished.is_set() or sweep.snapshot()["complete"]
                ])
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return seen

    return arm


class TestSettlePass:
    """One cache probe per cell, one journal batch for all the hits."""

    def test_all_hit_sweep_is_two_journal_fsyncs(
        self, tmp_path, journal_fsyncs
    ):
        scheduler = make_scheduler(tmp_path)
        cells = sweep_cells(range(9))
        wait(scheduler.submit_sweep("cold", cells))
        before = scheduler.cache.stats()
        seen = journal_fsyncs(scheduler)
        snapshot = wait(scheduler.submit_sweep("warm", cells))
        # The sweep record; the hit batch carrying sweep-done.
        assert len(seen) == 2
        assert all(c["cache_hit"] for c in snapshot["cells"].values())
        after = scheduler.cache.stats()
        assert after["hits"] - before["hits"] == 9
        assert after["misses"] == before["misses"]
        record = scheduler.journal.replay()["warm"]
        assert record.complete and len(record.done) == 9
        assert scheduler.counters["runs_computed"] == 9
        scheduler.shutdown(timeout=5)

    def test_mixed_sweep_fsyncs_hits_once_and_each_computed_cell(
        self, tmp_path, journal_fsyncs
    ):
        scheduler = make_scheduler(tmp_path)
        wait(scheduler.submit_sweep("cold", sweep_cells(range(4))))
        before = scheduler.cache.stats()
        seen = journal_fsyncs(scheduler)
        snapshot = wait(scheduler.submit_sweep("mixed", sweep_cells(range(9))))
        # Sweep record + hit batch + 5 computed cells + sweep-done.
        assert len(seen) == 1 + 1 + 5 + 1
        hits = [c["cache_hit"] for c in snapshot["cells"].values()]
        assert hits == [True] * 4 + [False] * 5
        after = scheduler.cache.stats()
        # One probe per cell: the computed cells are not probed again.
        assert after["hits"] - before["hits"] == 4
        assert after["misses"] - before["misses"] == 5
        assert scheduler.journal.replay()["mixed"].complete
        scheduler.shutdown(timeout=5)

    def test_miss_sweep_probes_each_cell_once(self, tmp_path, journal_fsyncs):
        scheduler = make_scheduler(tmp_path)
        seen = journal_fsyncs(scheduler)
        wait(scheduler.submit_sweep("cold", sweep_cells(range(3))))
        assert len(seen) == 1 + 3 + 1  # no hits: no hit batch
        assert scheduler.cache.stats() == {
            "hits": 0, "misses": 3, "corruptions": 0,
        }
        scheduler.shutdown(timeout=5)

    def test_finished_is_never_observable_before_its_fsync(
        self, tmp_path, journal_fsyncs
    ):
        scheduler = make_scheduler(tmp_path, pool_workers=1)
        seen = journal_fsyncs(scheduler)
        wait(scheduler.submit_sweep("a", sweep_cells(range(3))))
        wait(scheduler.submit_sweep("b", sweep_cells(range(3))))  # all hits
        wait(scheduler.submit_sweep("c", sweep_cells(range(2, 5))))  # mixed
        # At every journal fsync, only *earlier* sweeps were finished:
        # no sweep completes ahead of the write that says so.
        assert seen == (
            [[]] * 5 + [["a"]] * 2 + [["a", "b"]] * 5
        )
        scheduler.shutdown(timeout=5)

    def test_sweep_done_is_the_last_record_of_its_sweep(
        self, tmp_path, hostile_switch_interval
    ):
        # More dispatchers than cores and a hostile switch interval: no
        # dispatcher may close the sweep while another's done record
        # is still on its way to the journal.
        scheduler = make_scheduler(tmp_path, pool_workers=4)
        for round_no in range(5):
            seeds = range(40 + 8 * round_no, 48 + 8 * round_no)
            wait(scheduler.submit_sweep(f"s{round_no}", sweep_cells(seeds)))
        scheduler.shutdown(timeout=5)
        records = [
            json.loads(line)
            for line in scheduler.journal.path.read_text().splitlines()
        ]
        for round_no in range(5):
            kinds = [
                r["kind"] for r in records if r["sweep_id"] == f"s{round_no}"
            ]
            assert kinds == ["sweep"] + ["done"] * 8 + ["sweep-done"]

    def test_corrupt_entry_counts_once_and_recomputes(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        (digest, payload), = sweep_cells([0])
        wait(scheduler.submit_sweep("s1", [(digest, payload)]))
        path = scheduler.cache.path_for(digest)
        path.write_text(path.read_text()[:40])
        snapshot = wait(scheduler.submit_sweep("s2", [(digest, payload)]))
        assert snapshot["cells"][digest]["cache_hit"] is False
        assert scheduler.cache.stats() == {
            "hits": 0, "misses": 2, "corruptions": 1,
        }
        assert scheduler.counters["runs_computed"] == 2
        scheduler.shutdown(timeout=5)

    def test_entry_in_the_indented_layout_is_recomputed_once(self, tmp_path):
        # What an older version wrote: the same five keys, pretty-printed.
        scheduler = make_scheduler(tmp_path)
        (digest, payload), = sweep_cells([0])
        outcome = execute_cell(dict(payload))
        old = {
            "spec_hash": digest,
            "spec": outcome["spec"],
            "fingerprint": outcome["fingerprint"],
            "result": outcome["result"],
            "integrity": entry_digest(
                digest, outcome["spec"], outcome["fingerprint"],
                outcome["result"],
            ),
        }
        atomic_write_json(scheduler.cache.path_for(digest), old)
        first = wait(scheduler.submit_sweep("s1", [(digest, payload)]))
        assert first["cells"][digest]["cache_hit"] is False
        assert scheduler.cache.stats() == {
            "hits": 0, "misses": 1, "corruptions": 1,
        }
        assert scheduler.counters["runs_computed"] == 1
        # Same digest definition: the recomputed entry reads back as the
        # very dict the old file held.
        assert scheduler.cache.get(digest) == old
        second = wait(scheduler.submit_sweep("s2", [(digest, payload)]))
        assert second["cells"][digest]["cache_hit"] is True
        assert scheduler.cache.stats()["corruptions"] == 1
        assert scheduler.counters["runs_computed"] == 1
        scheduler.shutdown(timeout=5)

    def test_two_sweeps_sharing_a_missing_cell_both_compute_it(
        self, tmp_path, monkeypatch
    ):
        # The accepted trade: no single-flight.  Both settle passes see
        # the miss before either computes, because each computation
        # waits for the other at a barrier.
        scheduler = make_scheduler(tmp_path, pool_workers=2)
        (digest, payload), = sweep_cells([0])
        both_settled = threading.Barrier(2, timeout=60)

        def held(cell_payload, attempt=0):
            both_settled.wait()
            return execute_cell(cell_payload, attempt)

        monkeypatch.setattr("repro.service.scheduler.execute_cell", held)
        a = scheduler.submit_sweep("a", [(digest, payload)])
        b = scheduler.submit_sweep("b", [(digest, payload)])
        for sweep in (a, b):
            snapshot = wait(sweep)
            assert snapshot["failed"] == []
            assert snapshot["cells"][digest]["status"] == "done"
            assert snapshot["cells"][digest]["cache_hit"] is False
        assert scheduler.counters["runs_computed"] == 2
        assert scheduler.cache.stats() == {
            "hits": 0, "misses": 2, "corruptions": 0,
        }
        entries = [
            path.name for path in scheduler.cache.root.rglob("*")
            if path.is_file()
        ]
        assert entries == [f"{digest}.json"]
        assert scheduler.cache.get(digest)["fingerprint"] == (
            execute_cell(dict(payload))["fingerprint"]
        )
        scheduler.shutdown(timeout=5)
        records = [
            json.loads(line)
            for line in scheduler.journal.path.read_text().splitlines()
        ]
        for sweep_id in ("a", "b"):
            kinds = [r["kind"] for r in records if r["sweep_id"] == sweep_id]
            assert kinds == ["sweep", "done", "sweep-done"]


class TestRetries:
    def test_injected_failures_retry_and_match_clean_run_bitwise(
        self, tmp_path
    ):
        scheduler = make_scheduler(tmp_path, attempts=3)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 2}}
        digest = spec_hash(chaotic)
        assert digest == spec_hash(PAYLOAD)  # chaos is not hashed
        snapshot = wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert cell["attempts"] == 3  # two injected failures + success
        assert scheduler.counters["retries"] == 2
        # The retried run's stats are bitwise identical to a clean,
        # uninterrupted run of the same spec.
        clean = execute_cell(dict(PAYLOAD))
        entry = scheduler.cache.get(digest)
        assert entry["fingerprint"] == clean["fingerprint"]
        assert entry["result"] == clean["result"]
        scheduler.shutdown(timeout=5)

    def test_exhausted_attempts_mark_the_cell_failed(self, tmp_path):
        scheduler = make_scheduler(tmp_path, attempts=2)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 99}}
        digest = spec_hash(chaotic)
        snapshot = wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        cell = snapshot["cells"][digest]
        assert cell["status"] == "failed"
        assert "injected failure" in cell["error"]
        assert snapshot["failed"] == [digest]
        assert scheduler.counters["run_failures"] == 1
        # A failed sweep is complete for clients but NOT journaled
        # done, so a restart retries it.
        assert scheduler.journal.replay()["s1"].complete is False
        scheduler.shutdown(timeout=5)

    def test_failed_cell_does_not_poison_the_cache(self, tmp_path):
        scheduler = make_scheduler(tmp_path, attempts=1)
        chaotic = {**PAYLOAD, "chaos": {"fail_attempts": 99}}
        digest = spec_hash(chaotic)
        wait(scheduler.submit_sweep("s1", [(digest, chaotic)]))
        assert scheduler.cache.get(digest) is None
        scheduler.shutdown(timeout=5)


class TestAdmission:
    def test_overload_sheds_with_service_overloaded(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_pending=1)
        slow = {**PAYLOAD, "chaos": {"delay_seconds": 0.5}}
        digest = spec_hash(slow)
        sweep = scheduler.submit_sweep("s1", [(digest, slow)])
        other = {**PAYLOAD, "seed": 4}
        with pytest.raises(ServiceOverloaded):
            scheduler.submit_sweep("s2", [(spec_hash(other), other)])
        assert scheduler.counters["shed"] == 1
        wait(sweep)
        # Capacity freed: the same submit is admitted now.
        scheduler.submit_sweep("s2", [(spec_hash(other), other)])
        scheduler.shutdown(timeout=10)

    def test_force_bypasses_the_admission_bound(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_pending=0)
        digest = spec_hash(PAYLOAD)
        with pytest.raises(ServiceOverloaded):
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        sweep = scheduler.submit_sweep(
            "s2", [(digest, PAYLOAD)], force=True
        )
        wait(sweep)
        scheduler.shutdown(timeout=5)

    def test_draining_rejects_new_sweeps(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.drain(timeout=5)
        with pytest.raises(SchedulerDraining):
            scheduler.submit_sweep("s1", [(spec_hash(PAYLOAD), PAYLOAD)])
        assert scheduler.accepting is False
        scheduler.shutdown(timeout=5)

    def test_duplicate_sweep_id_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        digest = spec_hash(PAYLOAD)
        sweep = scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        with pytest.raises(ValueError, match="already submitted"):
            scheduler.submit_sweep("s1", [(digest, PAYLOAD)])
        wait(sweep)
        scheduler.shutdown(timeout=5)


class TestProcessPoolFailures:
    def test_crashed_worker_respawns_pool_and_retries(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, inline=False, pool_workers=1, attempts=3,
            run_timeout=60.0,
        )
        chaotic = {**PAYLOAD, "chaos": {"crash_attempts": 1}}
        digest = spec_hash(chaotic)
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, chaotic)]), timeout=120
        )
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert cell["attempts"] >= 2
        assert scheduler.counters["worker_crashes"] >= 1
        # Crash-retried stats are still bitwise clean.
        clean = execute_cell(dict(PAYLOAD))
        assert scheduler.cache.get(digest)["fingerprint"] == (
            clean["fingerprint"]
        )
        scheduler.shutdown(timeout=10)

    def test_hung_worker_trips_timeout_and_recovers(self, tmp_path):
        scheduler = make_scheduler(
            tmp_path, inline=False, pool_workers=1, attempts=2,
            run_timeout=1.0,
        )
        chaotic = {
            **PAYLOAD,
            "chaos": {"hang_attempts": 1, "hang_seconds": 30.0},
        }
        digest = spec_hash(chaotic)
        start = time.monotonic()
        snapshot = wait(
            scheduler.submit_sweep("s1", [(digest, chaotic)]), timeout=120
        )
        elapsed = time.monotonic() - start
        cell = snapshot["cells"][digest]
        assert cell["status"] == "done"
        assert scheduler.counters["timeouts"] == 1
        # The hung attempt was abandoned at the timeout, not awaited.
        assert elapsed < 25.0
        scheduler.shutdown(timeout=10)
