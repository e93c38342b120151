"""Content-addressed, self-verifying result cache.

One experiment result per file, addressed by the canonical spec hash
(:func:`repro.service.specio.spec_hash`) and written atomically
(:func:`repro.harness.io.atomic_write_text`), so a crash mid-write can
never leave a torn entry at the final path.

Entries are *self-verifying*: each stores the run's golden-stats
fingerprint (:func:`repro.harness.golden.golden_fingerprint` — the
same bitwise contract the conformance matrix pins) plus an integrity
digest over the whole body.  An entry file *is* the bytes its digest
covers, behind an 80-byte header that holds the digest::

    {"integrity":"<64 hex>",<canonical body minus its "{">\\n

where the canonical body is :func:`entry_digest`'s sorted-key, compact
serialisation, so ``spec_hash`` is its last key.  Every read hashes
every stored byte and compares the header (no JSON work), and checks
that the body ends in the requested address; truncation, bit flips,
hand edits or an entry copied to the wrong address fail, the entry is
quarantined (unlinked) and the caller recomputes — a corrupt result is
*never served*.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from pathlib import Path
from typing import Optional, Union

_HEADER_START = b'{"integrity":"'
#: ``{"integrity":"`` + 64 hex digits + ``",``.
_HEADER_BYTES = len(_HEADER_START) + 64 + 2
_ADDRESS = re.compile(r"[0-9a-f]{64}")
_REQUIRED = ("spec_hash", "spec", "fingerprint", "result", "integrity")


def _canonical(entry: dict) -> str:
    """The sorted-key, compact serialisation the digest covers."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def entry_digest(spec_hash: str, spec: dict, fingerprint: dict,
                 result: dict) -> str:
    """Integrity digest over everything an entry asserts."""
    body = _canonical({
        "spec_hash": spec_hash,
        "spec": spec,
        "fingerprint": fingerprint,
        "result": result,
    })
    return hashlib.sha256(body.encode()).hexdigest()


class ResultCache:
    """Disk cache of completed runs, keyed by canonical spec hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Read/verify counters, surfaced by the service's /stats.
        self.hits = 0
        self.misses = 0
        self.corruptions = 0

    def path_for(self, spec_hash: str) -> Path:
        """Fan entries out over 256 subdirectories."""
        return self.root / spec_hash[:2] / f"{spec_hash}.json"

    def put(self, spec_hash: str, spec: dict, fingerprint: dict,
            result: dict) -> dict:
        """Persist one completed run atomically; returns the entry."""
        entry = {
            "spec_hash": spec_hash,
            "spec": spec,
            "fingerprint": fingerprint,
            "result": result,
        }
        canonical = _canonical(entry)
        entry["integrity"] = hashlib.sha256(canonical.encode()).hexdigest()
        from repro.harness.io import atomic_write_text

        atomic_write_text(
            self.path_for(spec_hash),
            '{"integrity":"' + entry["integrity"] + '",' + canonical[1:]
            + "\n",
        )
        return entry

    def contains(self, spec_hash: str) -> bool:
        """Whether a verified entry exists, without parsing it.

        Counts and quarantines exactly as :meth:`get` does.
        """
        if self._verified_bytes(spec_hash) is None:
            return False
        with self._lock:
            self.hits += 1
        return True

    def get(self, spec_hash: str) -> Optional[dict]:
        """The verified entry, or ``None`` (miss *or* failed check).

        A corrupted entry counts in ``corruptions``, is unlinked so the
        recompute can repopulate it, and reads as a miss.
        """
        raw = self._verified_bytes(spec_hash)
        if raw is None:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            return self._quarantine(self.path_for(spec_hash))
        if not (
            isinstance(entry, dict)
            and all(key in entry for key in _REQUIRED)
            and entry["spec_hash"] == spec_hash
        ):
            return self._quarantine(self.path_for(spec_hash))
        with self._lock:
            self.hits += 1
        return entry

    def _verified_bytes(self, spec_hash: str) -> Optional[bytes]:
        """The entry file's bytes if they verify, else ``None``.

        Counts a miss for an absent file (or an address that is not a
        spec hash, which is never read, so no request can reach a path
        outside the cache); quarantines a file that fails the check.
        """
        if not _ADDRESS.fullmatch(spec_hash):
            with self._lock:
                self.misses += 1
            return None
        path = self.path_for(spec_hash)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            return self._quarantine(path)
        header, body = raw[:_HEADER_BYTES], raw[_HEADER_BYTES:-1]
        # spec_hash sorts last, so the body ends in the address.
        tail = b'"spec_hash":"' + spec_hash.encode() + b'"}\n'
        if not (
            header.startswith(_HEADER_START)
            and header.endswith(b'",')
            and raw.endswith(tail)
            and hashlib.sha256(b"{" + body).hexdigest().encode()
            == header[len(_HEADER_START):-2]
        ):
            return self._quarantine(path)
        return raw

    def _quarantine(self, path: Path) -> None:
        with self._lock:
            self.corruptions += 1
            self.misses += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / perms
            pass
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corruptions": self.corruptions,
            }
