"""The experiment service: durable state + crash-safe lifecycle.

:class:`ExperimentService` owns the durable state (result cache +
write-ahead journal under one ``state_dir``) and the
:class:`~repro.service.scheduler.RunScheduler`.  The HTTP facade in
front of it is :mod:`repro.service.httpd`, which :func:`make_server`
imports when it is called: a process that only runs cells or talks to
the service in-process never loads ``http.server``.

Crash recovery: :meth:`ExperimentService.resume` replays the journal
on startup and re-submits every sweep without a ``sweep-done`` record.
Cells whose results landed in the cache before the crash short-circuit
as verified cache hits; only genuinely unfinished cells compute.
Graceful shutdown (SIGTERM in the CLI) flips ``/readyz`` to 503, stops
admissions, waits for in-flight sweeps, then checkpoints the journal.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.service.cache import ResultCache
from repro.service.journal import RunJournal
from repro.service.scheduler import RunScheduler, SweepState
from repro.harness.specio import SpecError, spec_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.httpd import ServiceHTTPServer


class ExperimentService:
    """Durable state + scheduler behind the HTTP endpoints."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        pool_workers: int = 2,
        run_timeout: float = 120.0,
        attempts: int = 3,
        backoff_base: float = 0.05,
        max_pending: int = 64,
        inline: bool = False,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.cache = ResultCache(self.state_dir / "cache")
        self.journal = RunJournal(self.state_dir / "journal.jsonl")
        self.scheduler = RunScheduler(
            self.cache,
            self.journal,
            pool_workers=pool_workers,
            run_timeout=run_timeout,
            attempts=attempts,
            backoff_base=backoff_base,
            max_pending=max_pending,
            inline=inline,
        )
        self._seq_lock = threading.Lock()
        self._sweep_seq = self.journal.next_sweep_seq()
        self.resumed_sweeps: List[str] = []

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def resume(self) -> List[str]:
        """Re-submit every journaled sweep that never finished.

        All cells are re-submitted (not just the pending ones): a cell
        whose cache write survived the crash short-circuits as a
        verified hit, one whose ``done`` record was lost to a torn tail
        is *found again* in the cache, and a cell journaled ``failed``
        gets a fresh attempt budget.  Nothing ever computes twice.
        """
        state = self.journal.replay()
        resumed = []
        for sweep_id, record in state.items():
            if record.complete or not record.cells:
                continue
            self.scheduler.submit_sweep(
                sweep_id,
                [(cell["hash"], cell["payload"]) for cell in record.cells],
                journal=False,
                force=True,
            )
            resumed.append(sweep_id)
        self.resumed_sweeps = resumed
        return resumed

    # ------------------------------------------------------------------
    # Request handling (shared by HTTP layer and in-process tests)
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Validate + admit one submit payload; returns the 202 body.

        Raises :class:`~repro.harness.specio.SpecError` (-> 400),
        :class:`~repro.service.scheduler.ServiceOverloaded` (-> 429) or
        :class:`~repro.service.scheduler.SchedulerDraining` (-> 503).
        """
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        if "specs" in payload:
            specs = payload["specs"]
            if not isinstance(specs, list) or not specs:
                raise SpecError('"specs" must be a non-empty array')
            extra = sorted(set(payload) - {"specs", "sweep_id"})
            if extra:
                raise SpecError(f"unknown request field(s) {extra}")
            sweep_id = payload.get("sweep_id")
        else:
            specs = [payload]
            sweep_id = None
        cells: List[Tuple[str, dict]] = []
        for spec in specs:
            cells.append((spec_hash(spec), spec))
        if sweep_id is None:
            with self._seq_lock:
                sweep_id = f"s{self._sweep_seq:06d}"
                self._sweep_seq += 1
        elif not isinstance(sweep_id, str) or not sweep_id:
            raise SpecError("sweep_id must be a non-empty string")
        else:
            # Explicit sweep ids make submit idempotent: a client
            # retry whose first response was lost re-sends the same
            # sweep, and re-sending identical cells is acknowledged
            # with the existing ticket instead of a 409.  Mismatched
            # cells under a reused id still conflict.
            duplicate = self._matching_sweep(sweep_id, cells)
            if duplicate is not None:
                return self._ticket(duplicate)
        try:
            return self._ticket(self.scheduler.submit_sweep(sweep_id, cells))
        except ValueError:
            # Two identical submits can race past the check above;
            # the loser still gets the winner's ticket.
            duplicate = self._matching_sweep(sweep_id, cells)
            if duplicate is not None:
                return self._ticket(duplicate)
            raise

    def _matching_sweep(self, sweep_id: str, cells) -> Optional[SweepState]:
        """The existing sweep iff it has exactly these cell hashes."""
        existing = self.scheduler.sweep(sweep_id)
        if existing is None:
            return None
        if set(existing.cells) == {digest for digest, _ in cells}:
            return existing
        raise ValueError(
            f"sweep {sweep_id!r} already submitted with different cells"
        )

    @staticmethod
    def _ticket(sweep: SweepState) -> dict:
        return {
            "sweep_id": sweep.sweep_id,
            "cells": list(sweep.cells),
            "status_url": f"/sweep/{sweep.sweep_id}",
        }

    def sweep_status(self, sweep_id: str) -> Optional[dict]:
        sweep = self.scheduler.sweep(sweep_id)
        return None if sweep is None else sweep.snapshot()

    def result(self, digest: str) -> Optional[dict]:
        return self.cache.get(digest)

    def stats(self) -> dict:
        return self.scheduler.stats()

    @property
    def ready(self) -> bool:
        return self.scheduler.accepting

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = 30.0) -> bool:
        """Drain in-flight sweeps, stop the pool, compact the journal
        and release its append handle."""
        drained = self.scheduler.shutdown(timeout)
        if drained:
            self.journal.checkpoint()
        self.journal.close()
        return drained


def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind the HTTP server (``port=0`` -> OS-assigned, see
    ``server_address[1]`` for the real port).

    Call it before the service runs cells: it imports the HTTP stack,
    and a pool worker forked while another thread is importing a module
    it later needs (``email`` is one) blocks on that import forever.
    """
    from repro.service.httpd import ServiceHTTPServer

    return ServiceHTTPServer((host, port), service)
