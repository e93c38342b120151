"""Stdlib HTTP client for the experiment service.

Each thread of each process talks over one kept-alive HTTP/1.1
connection (``http.client``, imported by the first request, so
importing :mod:`repro.service` loads no HTTP stack), opened on first
use.  Before it is reused, a zero-timeout poll checks that the server
has not closed it (idle timeout, restart, or an answer that closed
it): an idle connection with anything to read — EOF, a reset, stray
bytes — is dropped and a fresh one opened, so a request is never
written onto a connection already known to be dead.  A connection is never shared
between threads, and a forked child opens its own.

Requests go through the same :mod:`repro.harness.retry` policy the
server uses internally: connection errors retry under deterministic
seeded backoff (a just-started server that hasn't bound yet is the
common case), while HTTP error *statuses* pass through untouched — a
400 or 429 is an answer, not an outage.  Any transport failure drops
the connection, so the next attempt starts on a fresh one.

Only idempotent requests auto-retry: every GET, and submits that
carry an explicit ``sweep_id`` (the server acknowledges an identical
re-send with the existing ticket).  A submit *without* a sweep id is
not idempotent — a retry whose first request was admitted but whose
response was lost would mint a duplicate sweep — so it gets exactly
one attempt; pass ``sweep_id`` to make submission retry-safe.
"""

from __future__ import annotations

import json
import os
import select
import threading
import time
from typing import List, Optional

from repro.harness.retry import retry


#: ``wait_for_sweep`` polls at 5 ms first and stretches the interval
#: by half each time, so a wait overshoots the sweep by at most ~50%
#: of its duration (or one ``poll``, whichever is shorter).
_FIRST_POLL_SECONDS = 0.005
_POLL_GROWTH = 1.5


class ServiceError(RuntimeError):
    """An HTTP error status from the service, with the parsed body."""

    def __init__(self, status: int, body: dict) -> None:
        message = body.get("error") if isinstance(body, dict) else None
        super().__init__(f"HTTP {status}: {message or body}")
        self.status = status
        self.body = body


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        connect_attempts: int = 5,
        jitter_seed: int = 0,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.connect_attempts = connect_attempts
        self.jitter_seed = jitter_seed
        scheme, _, rest = self.url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(f"not an http:// URL: {url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, connected and safe to write on.

        A connection inherited across a ``fork`` is replaced: the child
        closes only its own copy of the descriptor, which sends nothing
        while the parent still holds the connection.  Any failure to
        connect is a ``ConnectionError``, which idempotent requests
        retry.
        """
        import http.client

        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            if getattr(local, "conn", None) is not None:
                local.conn.close()
            local.conn = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            local.pid = os.getpid()
        elif local.conn.sock is not None:
            poller = select.poll()
            poller.register(local.conn.sock, select.POLLIN)
            if poller.poll(0):  # EOF, a reset or stray bytes: not idle
                local.conn.close()
        if local.conn.sock is None:
            try:
                local.conn.connect()
            except ConnectionError:  # refused, reset
                raise
            except OSError as error:  # unreachable, unresolved, timed out
                raise ConnectionError(
                    f"cannot connect to {self.url}: {error}"
                ) from error
        return local.conn

    def _request(
        self,
        path: str,
        payload: Optional[dict] = None,
        idempotent: Optional[bool] = None,
    ) -> dict:
        import http.client

        method, data, headers = "GET", None, {}
        if payload is not None:
            method, data = "POST", json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"

        def attempt() -> dict:
            conn = self._connection()
            try:
                conn.request(method, self._prefix + path, data, headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException):
                conn.close()  # the next attempt starts on a fresh one
                raise
            if 200 <= response.status < 300:
                return json.loads(raw)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                body = {"error": raw.decode(errors="replace")}
            raise ServiceError(response.status, body)

        # Only connection failures (refused, unreachable, reset) on
        # *idempotent* requests are retried; ServiceError is an
        # application answer.  Non-idempotent requests (submit with a
        # server-assigned sweep id) get one attempt: a retry after a
        # lost response could duplicate server-side state.
        if idempotent is None:
            idempotent = payload is None  # GETs are always idempotent
        return retry(
            attempt,
            attempts=self.connect_attempts if idempotent else 1,
            base=0.1,
            jitter_seed=self.jitter_seed,
            retry_on=(ConnectionError,),
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(self, specs: List[dict], sweep_id: Optional[str] = None) -> dict:
        """Submit a sweep.  With an explicit ``sweep_id`` the request
        is idempotent (the server dedupes identical re-sends) and so
        retries on connection failure; without one it is sent once."""
        body: dict = {"specs": list(specs)}
        if sweep_id is not None:
            body["sweep_id"] = sweep_id
        return self._request("/submit", body, idempotent=sweep_id is not None)

    def submit_one(self, spec: dict) -> dict:
        return self._request("/submit", spec, idempotent=False)

    def sweep(self, sweep_id: str) -> dict:
        return self._request(f"/sweep/{sweep_id}")

    def result(self, spec_hash: str) -> dict:
        return self._request(f"/result/{spec_hash}")

    def healthz(self) -> dict:
        return self._request("/healthz")

    def readyz(self) -> bool:
        try:
            return bool(self._request("/readyz").get("ready"))
        except ServiceError as error:
            if error.status == 503:
                return False
            raise

    def stats(self) -> dict:
        return self._request("/stats")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def wait_for_sweep(
        self, sweep_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> dict:
        """Poll until the sweep completes; returns the final snapshot.

        ``poll`` is the *longest* interval between polls: the wait
        backs off geometrically towards it from 5 ms, so a sweep of
        cache hits returns in milliseconds instead of one full ``poll``.
        """
        deadline = time.monotonic() + timeout
        interval = min(_FIRST_POLL_SECONDS, poll)
        while True:
            snapshot = self.sweep(sweep_id)
            if snapshot.get("complete"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} incomplete after {timeout:.0f}s: "
                    f"{snapshot.get('done')}/{snapshot.get('total')} cells"
                )
            time.sleep(interval)
            interval = min(interval * _POLL_GROWTH, poll)
