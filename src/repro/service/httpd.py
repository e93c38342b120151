"""The service's HTTP facade: a thin stdlib ``ThreadingHTTPServer``.

One daemon thread per connection, a per-request socket timeout so a
slow or stalled client can never wedge the server, and JSON in/out
everywhere.  Connections are HTTP/1.1 and kept alive until the client
closes them, they idle past that timeout, or a request's body goes
unread (an answer sent before the body was read in full closes the
connection, so its bytes are never parsed as the next request).  Each
response leaves in one write.  Every request is answered by the
:class:`~repro.service.server.ExperimentService` the server was bound
to with :func:`~repro.service.server.make_server`.

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
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Set

from repro.harness.specio import SpecError
from repro.service.scheduler import SchedulerDraining, ServiceOverloaded
from repro.service.server import ExperimentService

#: Reject request bodies above this (a spec sweep is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ExperimentService) -> None:
        super().__init__(address, ServiceHandler)
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


class ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
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
