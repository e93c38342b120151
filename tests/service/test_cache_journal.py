"""Durability tests: the result cache verifies, the journal replays."""

import hashlib
import json
import os
import threading

import pytest

from repro.service.cache import ResultCache, entry_digest
from repro.service.journal import (
    RunJournal,
    done_record,
    sweep_done_record,
)
from repro.service.runner import execute_cell

HASH = "ab" + "0" * 62
OTHER = "cd" + "1" * 62

FINGERPRINT = {"final_loss": "0x1.8p-1", "final_params_sha256": "f" * 64}
RESULT = {"stats": {"messages_sent": 60}}
SPEC = {"workers": 4, "max_iter": 5}

#: A small churn cell: leave, rejoin and re-sync all reach its entry.
CHURN = {
    "workers": 8,
    "max_iter": 10,
    "seed": 5,
    "scenario": {
        "family": "churn",
        "params": {"leaves": {"6": 3}, "cycles": {"5": [2, 5]}},
    },
}


def edit_in_place(path, old, new):
    """The file's bytes with one same-length edit (the file is kept)."""
    raw = path.read_bytes()
    assert raw.count(old) == 1 and len(old) == len(new)
    return raw.replace(old, new)


def assert_rejected_both_ways(cache, spec_hash, raw):
    """``raw`` stored at ``spec_hash`` reads as a miss through both
    readers, each read unlinking it and adding exactly one corruption."""
    path = cache.path_for(spec_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    for read in (cache.contains, cache.get):
        before = cache.stats()
        path.write_bytes(raw)
        assert not read(spec_hash)
        assert not path.exists()
        assert cache.stats() == {
            "hits": before["hits"],
            "misses": before["misses"] + 1,
            "corruptions": before["corruptions"] + 1,
        }


class TestResultCache:
    def make(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_round_trip(self, tmp_path):
        cache = self.make(tmp_path)
        assert cache.get(HASH) is None  # cold miss
        put = cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        got = cache.get(HASH)
        assert got == put
        assert got["fingerprint"] == FINGERPRINT
        assert cache.stats() == {"hits": 1, "misses": 1, "corruptions": 0}

    def test_entries_fan_out_by_prefix(self, tmp_path):
        cache = self.make(tmp_path)
        assert cache.path_for(HASH).parent.name == "ab"

    def test_truncated_entry_is_quarantined_and_recomputable(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        path = cache.path_for(HASH)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(HASH) is None  # detected, never served
        assert not path.exists()  # quarantined -> recompute repopulates
        assert cache.stats()["corruptions"] == 1
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        assert cache.get(HASH) is not None

    def test_bit_flip_in_result_fails_integrity(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        # A silent flip: still valid JSON, header and address intact.
        assert_rejected_both_ways(
            cache, HASH,
            edit_in_place(cache.path_for(HASH), b'"messages_sent":60',
                          b'"messages_sent":61'),
        )

    def test_tampered_fingerprint_fails_integrity(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        assert_rejected_both_ways(
            cache, HASH,
            edit_in_place(cache.path_for(HASH), b'"final_loss":"0x1.8p-1"',
                          b'"final_loss":"0x1.0p-1"'),
        )

    def test_entry_under_wrong_address_is_rejected(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        # Copy a (self-consistent!) entry to a different address: the
        # spec-hash binding must catch it even though the integrity
        # digest checks out.
        assert_rejected_both_ways(
            cache, OTHER, cache.path_for(HASH).read_bytes()
        )
        assert cache.get(HASH) is not None  # the original still verifies

    def test_address_that_is_not_a_spec_hash_is_never_read(self, tmp_path):
        # "../victim" would resolve outside the cache root; a failed
        # check there would unlink someone else's file.
        cache = ResultCache(tmp_path / "state" / "cache")
        victim = tmp_path / "victim.json"
        victim.write_text("{}\n")
        assert cache.path_for("../victim").resolve() == victim.resolve()
        assert not cache.contains("../victim")
        assert cache.get("../victim") is None
        assert victim.read_text() == "{}\n"
        assert cache.stats() == {"hits": 0, "misses": 2, "corruptions": 0}

    def test_stored_bytes_are_the_digested_body_behind_a_header(
        self, tmp_path
    ):
        cache = self.make(tmp_path)
        entry = cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        raw = cache.path_for(HASH).read_bytes()
        digest = entry_digest(HASH, SPEC, FINGERPRINT, RESULT)
        assert raw[:80] == b'{"integrity":"' + digest.encode() + b'",'
        assert raw.endswith(b'"spec_hash":"' + HASH.encode() + b'"}\n')
        assert hashlib.sha256(b"{" + raw[80:-1]).hexdigest() == digest
        assert json.loads(raw) == entry
        assert entry["integrity"] == digest

    def test_contains_counts_like_get_and_never_parses(
        self, tmp_path, monkeypatch
    ):
        cache = self.make(tmp_path)
        assert not cache.contains(HASH)
        cache.put(HASH, SPEC, FINGERPRINT, RESULT)
        monkeypatch.setattr(json, "loads", None)  # any parse would raise
        assert cache.contains(HASH)
        assert cache.stats() == {"hits": 1, "misses": 1, "corruptions": 0}

    def test_missing_keys_read_as_corruption(self, tmp_path):
        # Bytes that verify but do not hold an entry: get's structural
        # checks on the parsed dict still reject them.
        cache = self.make(tmp_path)
        path = cache.path_for(HASH)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = '{"spec_hash":"' + HASH + '"}'
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text('{"integrity":"' + digest + '",' + body[1:] + "\n")
        assert cache.get(HASH) is None
        assert cache.stats()["corruptions"] == 1

    def test_entry_digest_is_order_insensitive(self):
        a = entry_digest(HASH, {"a": 1, "b": 2}, FINGERPRINT, RESULT)
        b = entry_digest(HASH, {"b": 2, "a": 1}, FINGERPRINT, RESULT)
        assert a == b


def test_every_torn_write_and_every_changed_byte_reads_as_a_miss(tmp_path):
    """The cache's durability boundary, exhaustively, on a real entry."""
    outcome = execute_cell(dict(CHURN))
    digest = outcome["spec_hash"]
    cache = ResultCache(tmp_path / "cache")
    put = cache.put(
        digest, outcome["spec"], outcome["fingerprint"], outcome["result"]
    )
    raw = cache.path_for(digest).read_bytes()
    assert cache.contains(digest)
    assert cache.get(digest) == put
    for cut in range(len(raw)):
        assert_rejected_both_ways(cache, digest, raw[:cut])
    for offset in range(len(raw)):
        changed = bytearray(raw)
        changed[offset] ^= 0x01
        assert_rejected_both_ways(cache, digest, bytes(changed))
    assert cache.stats()["corruptions"] == 4 * len(raw)
    cache.path_for(digest).write_bytes(raw)
    assert cache.get(digest) == put


class TestRunJournal:
    def make(self, tmp_path):
        return RunJournal(tmp_path / "journal.jsonl")

    def test_empty_journal_replays_empty(self, tmp_path):
        assert self.make(tmp_path).replay() == {}

    def test_replay_reconstructs_sweeps(self, tmp_path):
        journal = self.make(tmp_path)
        cells = [{"hash": HASH, "payload": SPEC},
                 {"hash": OTHER, "payload": {"workers": 8}}]
        journal.sweep_submitted("s000001", cells)
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        state = journal.replay()
        sweep = state["s000001"]
        assert not sweep.complete
        assert [c["hash"] for c in sweep.pending] == [OTHER]
        journal.cell_done("s000001", OTHER, cache_hit=True, attempts=0)
        journal.sweep_done("s000001")
        assert journal.replay()["s000001"].complete

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", [{"hash": HASH, "payload": SPEC}])
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        with open(journal.path, "a") as handle:
            handle.write('{"kind": "done", "sweep_id": "s0000')  # kill -9
        state = journal.replay()
        assert HASH in state["s000001"].done

    def test_append_after_torn_tail_truncates_the_fragment(self, tmp_path):
        # A kill -9 mid-append leaves a torn tail with no newline; the
        # next process's first append must not glue its record onto
        # the fragment (that would corrupt a mid-file line and poison
        # every later replay).
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", [{"hash": HASH, "payload": SPEC}])
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        with open(journal.path, "a") as handle:
            handle.write('{"kind": "done", "sweep_id": "s0000')  # kill -9
        restarted = RunJournal(journal.path)  # fresh process
        restarted.sweep_done("s000001")
        state = restarted.replay()  # must not raise
        assert state["s000001"].complete
        assert HASH in state["s000001"].done
        for line in journal.path.read_text().splitlines():
            json.loads(line)  # every surviving line is intact

    def test_corruption_elsewhere_raises(self, tmp_path):
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", [{"hash": HASH, "payload": SPEC}])
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        lines = journal.path.read_text().splitlines()
        lines[0] = lines[0][:20]  # not the tail: external damage
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            journal.replay()

    def test_next_sweep_seq_advances_past_journaled_ids(self, tmp_path):
        journal = self.make(tmp_path)
        assert journal.next_sweep_seq() == 1
        journal.sweep_submitted("s000007", [{"hash": HASH, "payload": SPEC}])
        journal.sweep_submitted("custom-id", [{"hash": OTHER, "payload": {}}])
        assert journal.next_sweep_seq() == 8

    def test_checkpoint_drops_completed_sweeps(self, tmp_path):
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", [{"hash": HASH, "payload": SPEC}])
        journal.cell_done("s000001", HASH, cache_hit=False, attempts=1)
        journal.sweep_done("s000001")
        journal.sweep_submitted("s000002", [{"hash": OTHER, "payload": {}}])
        kept = journal.checkpoint()
        assert kept == 1
        state = journal.replay()
        assert set(state) == {"s000002"}
        # The compacted journal is still a valid journal.
        journal.cell_done("s000002", OTHER, cache_hit=False, attempts=1)
        journal.sweep_done("s000002")
        assert journal.replay()["s000002"].complete

    def test_checkpoint_preserves_the_sweep_sequence(self, tmp_path):
        # Compaction drops completed sweeps but must not let a
        # restarted server reuse their ids.
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000005", [{"hash": HASH, "payload": SPEC}])
        journal.cell_done("s000005", HASH, cache_hit=False, attempts=1)
        journal.sweep_done("s000005")
        journal.checkpoint()
        assert journal.replay() == {}  # the sweep itself is gone
        assert journal.next_sweep_seq() == 6  # but its id stays burned
        journal.checkpoint()  # the high-water-mark survives recompaction
        assert journal.next_sweep_seq() == 6


class TestBatchedAppend:
    """One write + one fsync per batch; a torn batch is a torn tail."""

    CELLS = [{"hash": HASH, "payload": SPEC}, {"hash": OTHER, "payload": {}}]
    BATCH = [
        done_record("s000001", HASH, cache_hit=True, attempts=0),
        done_record("s000001", OTHER, cache_hit=True, attempts=0),
        sweep_done_record("s000001"),
    ]

    def make(self, tmp_path):
        return RunJournal(tmp_path / "journal.jsonl")

    def test_batch_is_one_fsync_and_append_is_a_batch_of_one(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", self.CELLS)
        assert len(synced) == 1
        journal.append_batch(self.BATCH)
        assert len(synced) == 2
        journal.append_batch([])  # nothing to say: nothing written
        assert len(synced) == 2
        assert len(set(synced)) == 1  # one handle, kept open
        assert journal.replay()["s000001"].complete
        journal.close()

    def test_batch_torn_at_every_offset_replays_a_prefix_and_is_truncated(
        self, tmp_path
    ):
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", self.CELLS)
        durable = journal.path.read_bytes()
        journal.append_batch(self.BATCH)
        journal.close()
        batch = journal.path.read_bytes()[len(durable):]
        assert batch.count(b"\n") == len(self.BATCH)
        order = [HASH, OTHER]
        for cut in range(len(batch) + 1):
            journal.path.write_bytes(durable + batch[:cut])  # kill -9
            whole = batch[:cut].count(b"\n")
            sweep = RunJournal(journal.path).replay()["s000001"]
            # A prefix of the batch's records, in order.  (The final
            # record minus its newline still parses, so it may count.)
            assert list(sweep.done) == order[: len(sweep.done)]
            assert len(sweep.done) >= min(whole, 2)
            assert sweep.complete <= (cut >= len(batch) - 1)
            restarted = RunJournal(journal.path)  # fresh process
            restarted.sweep_submitted("s000002", [])
            restarted.close()
            lines = journal.path.read_bytes().split(b"\n")
            assert lines.pop() == b""  # file ends on a newline
            assert len(lines) == 1 + whole + 1  # fragment dropped
            assert [json.loads(line)["kind"] for line in lines] == (
                ["sweep"] + ["done", "done", "sweep-done"][:whole] + ["sweep"]
            )

    def test_append_after_checkpoint_lands_in_the_new_file(self, tmp_path):
        # The stale-handle trap: checkpoint renames a new file over
        # the path, so a handle opened before it writes to an unlinked
        # inode and the record silently vanishes.
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", self.CELLS)  # opens the handle
        journal.checkpoint()
        journal.append_batch(self.BATCH)
        on_disk = RunJournal(journal.path).replay()
        assert on_disk["s000001"].complete
        assert list(on_disk["s000001"].done) == [HASH, OTHER]
        journal.close()

    def test_failed_append_raises_and_the_next_append_recovers(
        self, tmp_path, monkeypatch
    ):
        journal = self.make(tmp_path)
        journal.sweep_submitted("s000001", self.CELLS)
        real_fsync = os.fsync

        def failing(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(OSError):
            journal.append_batch(self.BATCH)  # never reported durable
        monkeypatch.setattr(os, "fsync", real_fsync)
        journal.append_batch(self.BATCH)  # a fresh handle, a whole file
        journal.close()
        sweep = RunJournal(journal.path).replay()["s000001"]
        assert sweep.complete and list(sweep.done) == [HASH, OTHER]

    def test_concurrent_batches_stay_whole_across_close_and_reopen(
        self, tmp_path, hostile_switch_interval
    ):
        # More writers than cores, a hostile switch interval, and a
        # thread that keeps closing the shared handle under them: no
        # record may be lost and no batch interleaved with another.
        journal = self.make(tmp_path)
        writers, batches, size = 8, 40, 3
        stop = threading.Event()

        def write(writer):
            for batch in range(batches):
                journal.append_batch([
                    {"kind": "seq", "value": 0, "writer": writer,
                     "batch": batch, "index": index}
                    for index in range(size)
                ])

        def close_repeatedly():
            while not stop.is_set():
                journal.close()

        closer = threading.Thread(target=close_repeatedly)
        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        closer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        stop.set()
        closer.join(60)
        assert not closer.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        journal.close()
        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        assert len(records) == writers * batches * size
        for start in range(0, len(records), size):
            batch = records[start:start + size]
            assert [r["index"] for r in batch] == list(range(size))
            assert len({(r["writer"], r["batch"]) for r in batch}) == 1
        assert journal.replay() == {}  # and the file still replays
