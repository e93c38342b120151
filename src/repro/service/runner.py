"""Worker-side cell execution (runs inside the process pool).

:func:`execute_cell` is the one function the scheduler ships across
the process boundary: it rebuilds the :class:`ExperimentSpec` from the
request payload (plain JSON — always picklable), runs it, and returns
a JSON-safe result summary plus the run's golden-stats fingerprint
(the bitwise determinism contract the cache stores and verifies).

Chaos injection: a spec payload may carry a ``chaos`` object that the
canonical hash deliberately ignores (see :mod:`repro.harness.specio`)
— injected failures must reproduce the *exact* result of a clean run
once they stop failing.  Knobs, all keyed by the scheduler-supplied
attempt index so failures are deterministic and bounded:

* ``crash_attempts``: N — ``os._exit`` mid-run on attempts 0..N-1
  (simulates a worker process dying; surfaces as BrokenProcessPool),
* ``fail_attempts``: N — raise ``RuntimeError`` on attempts 0..N-1
  (a clean in-worker failure),
* ``hang_attempts``: N + ``hang_seconds`` — sleep before computing on
  attempts 0..N-1 (drives the per-run timeout path),
* ``delay_seconds`` — sleep on *every* attempt (slows cells down so
  chaos tests can kill a server provably mid-sweep).
"""

from __future__ import annotations

import os
import time

from repro.harness.golden import golden_fingerprint
from repro.harness.io import run_to_dict
from repro.harness.spec import run_spec
from repro.harness.specio import spec_from_dict


def _apply_chaos(chaos: dict, attempt: int) -> None:
    if attempt < int(chaos.get("crash_attempts", 0)):
        # A hard worker death: no exception crosses the pipe, the pool
        # breaks, and the scheduler must respawn it.
        os._exit(17)
    if attempt < int(chaos.get("hang_attempts", 0)):
        time.sleep(float(chaos.get("hang_seconds", 30.0)))
    if attempt < int(chaos.get("fail_attempts", 0)):
        raise RuntimeError(
            f"injected failure (attempt {attempt} < "
            f"fail_attempts {chaos['fail_attempts']})"
        )
    delay = float(chaos.get("delay_seconds", 0.0))
    if delay:
        time.sleep(delay)


def execute_cell(payload: dict, attempt: int = 0) -> dict:
    """Run one spec payload.

    Returns ``{"spec_hash", "spec", "result", "fingerprint"}`` where
    ``spec`` is the canonical form — the scheduler stores it in the
    cache entry so ``GET /result/<hash>`` can report exactly which
    experiment a result belongs to.

    Deterministic by construction: the spec carries every seed, so the
    same payload produces the same fingerprint on any attempt, in any
    worker, on any host — which is what lets the cache serve old
    results and the chaos suite assert crash-retried runs bitwise.
    """
    chaos = payload.get("chaos") or {}
    if chaos:
        _apply_chaos(chaos, attempt)
    spec, canonical, digest = spec_from_dict(payload)
    run = run_spec(spec)
    return {
        "spec_hash": digest,
        "spec": canonical,
        "result": run_to_dict(run),
        "fingerprint": golden_fingerprint(run),
    }
