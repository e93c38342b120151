"""Fault-tolerant experiment service (``repro serve``).

A long-running HTTP server that accepts ExperimentSpec JSON, schedules
runs across a process pool, and content-addresses results on disk by
canonical spec hash — with golden-stats fingerprints doubling as
cache-integrity checks.  Robustness is the architecture, not a
feature: per-run timeouts with deterministic seeded-backoff retries,
crashed-worker respawn, a write-ahead journal that survives ``kill
-9``, and bounded admission with load shedding.

Layering (each module documents its own crash contract); a request
payload becomes a run through the one spec codec,
:mod:`repro.harness.specio` (validation, canonical form, hash), which
``repro train`` uses too:

* :mod:`repro.service.cache`    — self-verifying content-addressed store
* :mod:`repro.service.journal`  — fsync'd write-ahead JSONL journal
* :mod:`repro.service.runner`   — worker-side execution (+ chaos knobs)
* :mod:`repro.service.scheduler`— retries, pool respawn, admission bound
* :mod:`repro.service.server`   — the service + resume-on-restart
* :mod:`repro.service.httpd`    — HTTP facade (loaded by ``make_server``)
* :mod:`repro.service.client`   — kept-alive stdlib client with retries
"""

from repro.service.cache import ResultCache, entry_digest
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import RunJournal, SweepRecord
from repro.service.runner import execute_cell
from repro.service.scheduler import (
    RunScheduler,
    SchedulerDraining,
    ServiceOverloaded,
    SweepState,
)
from repro.service.server import ExperimentService, make_server
from repro.harness.specio import (
    SpecError,
    canonical_json,
    canonical_spec,
    spec_from_dict,
    spec_hash,
)

__all__ = [
    "ExperimentService",
    "ResultCache",
    "RunJournal",
    "RunScheduler",
    "SchedulerDraining",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "SpecError",
    "SweepRecord",
    "SweepState",
    "canonical_json",
    "canonical_spec",
    "entry_digest",
    "execute_cell",
    "make_server",
    "spec_from_dict",
    "spec_hash",
]
