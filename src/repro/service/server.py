"""The experiment service: HTTP facade + crash-safe lifecycle.

:class:`ExperimentService` owns the durable state (result cache +
write-ahead journal under one ``state_dir``) and the
:class:`~repro.service.scheduler.RunScheduler`.  The HTTP layer is a
thin stdlib ``ThreadingHTTPServer`` on top — one daemon thread per
connection, a per-request socket timeout so a slow or stalled client
can never wedge the server, and JSON in/out everywhere.  Connections
are HTTP/1.1 and kept alive until the client closes them, they idle
past that timeout, or a request's body goes unread (an answer sent
before the body was read in full closes the connection, so its bytes
are never parsed as the next request).  Each response leaves in one
write.

Endpoints:

=======================  ==================================================
``POST /submit``         ExperimentSpec JSON (one spec or ``{"specs":
                         [...]}``) -> 202 + sweep id; 400 on a bad spec,
                         429 when the admission queue is full, 503 while
                         draining.  Re-sending an explicit ``sweep_id``
                         with identical cells is idempotent (returns
                         the existing ticket); different cells -> 409.
``GET /sweep/<id>``      Live sweep snapshot (per-cell status, attempts,
                         cache hits).
``GET /result/<hash>``   The verified cache entry for one cell.
``GET /healthz``         Liveness: 200 whenever the process can answer.
``GET /readyz``          Readiness: 200 iff accepting work (503 while
                         draining or saturated).
``GET /stats``           Scheduler + cache counters.
=======================  ==================================================

Crash recovery: :meth:`ExperimentService.resume` replays the journal
on startup and re-submits every sweep without a ``sweep-done`` record.
Cells whose results landed in the cache before the crash short-circuit
as verified cache hits; only genuinely unfinished cells compute.
Graceful shutdown (SIGTERM in the CLI) flips ``/readyz`` to 503, stops
admissions, waits for in-flight sweeps, then checkpoints the journal.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

from repro.service.cache import ResultCache
from repro.service.journal import RunJournal
from repro.service.scheduler import (
    RunScheduler,
    SchedulerDraining,
    ServiceOverloaded,
    SweepState,
)
from repro.harness.specio import SpecError, spec_hash

#: Reject request bodies above this (a spec sweep is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024


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


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ExperimentService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._open: Set[socket.socket] = set()
        self._open_changed = threading.Condition()

    def process_request(self, request, client_address) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def server_close(self) -> None:
        """Close the listener and every kept-alive connection.

        Connection threads are daemons and are not joined, so an open
        connection would go on being answered by this closed server
        until it idled out.  Ending each one's read side wakes an idle
        connection with EOF at once; a response being written still
        goes out whole, and this returns once every connection is
        closed (or after one handler timeout).
        """
        with self._open_changed:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:  # the peer is already gone
                    pass
            self._open_changed.wait_for(
                lambda: not self._open,
                timeout=self.RequestHandlerClass.timeout,
            )
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    #: Socket timeout per request, and so also how long a kept-alive
    #: connection may idle: a slow client stalls only its own
    #: connection thread, never the accept loop or other requests.
    timeout = 10.0
    #: TCP_NODELAY: a small segment never waits for the peer's ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the CLI owns stdout; request logs would drown it

    def _send_json(self, status: int, body: dict) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # Not end_headers(): it sends the head in a write of its own, and
        # on a reused connection the body then waits behind it for the
        # peer's delayed ACK.  Head, blank line and body go in one write.
        head = getattr(self, "_headers_buffer", None)  # none for HTTP/0.9
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + b"\r\n" + data if head else data)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if not 0 < length <= MAX_BODY_BYTES:
            # Answered with the body unread: its bytes would be parsed
            # as the next request, so the connection closes instead.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise SpecError(
                    f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            raise SpecError("request body required")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise SpecError(f"request body is not valid JSON: {error}")

    # -- endpoints -----------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/submit":
            self.close_connection = True  # the body is never read
            self._send_json(404, {"error": f"no such endpoint {self.path}"})
            return
        service = self.server.service
        try:
            body = self._read_json()
            self._send_json(202, service.submit(body))
        except SpecError as error:
            self._send_json(400, {"error": str(error)})
        except ServiceOverloaded as error:
            self._send_json(429, {"error": str(error)})
        except SchedulerDraining as error:
            self._send_json(503, {"error": str(error)})
        except ValueError as error:  # duplicate sweep id
            self._send_json(409, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if "Content-Length" in self.headers or (
            "Transfer-Encoding" in self.headers
        ):
            self.close_connection = True  # a GET body is never read
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/readyz":
            if service.ready:
                self._send_json(200, {"ready": True})
            else:
                self._send_json(503, {"ready": False})
        elif path == "/stats":
            self._send_json(200, service.stats())
        elif path.startswith("/sweep/"):
            snapshot = service.sweep_status(path[len("/sweep/"):])
            if snapshot is None:
                self._send_json(404, {"error": "unknown sweep"})
            else:
                self._send_json(200, snapshot)
        elif path.startswith("/result/"):
            entry = service.result(path[len("/result/"):])
            if entry is None:
                self._send_json(404, {"error": "no cached result"})
            else:
                self._send_json(200, entry)
        else:
            self._send_json(404, {"error": f"no such endpoint {path}"})


def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> _ServiceHTTPServer:
    """Bind the HTTP server (``port=0`` -> OS-assigned, see
    ``server_address[1]`` for the real port)."""
    return _ServiceHTTPServer((host, port), service)
