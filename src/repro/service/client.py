"""Stdlib HTTP client for the experiment service.

Wraps ``urllib`` with the same :mod:`repro.harness.retry` policy the
server uses internally: connection errors retry under deterministic
seeded backoff (a just-started server that hasn't bound yet is the
common case), while HTTP error *statuses* pass through untouched — a
400 or 429 is an answer, not an outage.

Only idempotent requests auto-retry: every GET, and submits that
carry an explicit ``sweep_id`` (the server acknowledges an identical
re-send with the existing ticket).  A submit *without* a sweep id is
not idempotent — a retry whose first request was admitted but whose
response was lost would mint a duplicate sweep — so it gets exactly
one attempt; pass ``sweep_id`` to make submission retry-safe.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
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

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        path: str,
        payload: Optional[dict] = None,
        idempotent: Optional[bool] = None,
    ) -> dict:
        def attempt() -> dict:
            data = None
            headers = {}
            if payload is not None:
                data = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            request = urllib.request.Request(
                self.url + path, data=data, headers=headers
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read())
            except urllib.error.HTTPError as error:
                raw = error.read()
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError:
                    body = {"error": raw.decode(errors="replace")}
                raise ServiceError(error.code, body) from None

        # Only transport failures (URLError: refused, reset, DNS) on
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
            retry_on=(urllib.error.URLError, ConnectionError),
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

    def run_and_wait(
        self, specs: List[dict], timeout: float = 300.0
    ) -> dict:
        """Submit, wait, and return ``{"sweep": ..., "results": {...}}``."""
        ticket = self.submit(specs)
        snapshot = self.wait_for_sweep(ticket["sweep_id"], timeout=timeout)
        results = {}
        for digest, cell in snapshot["cells"].items():
            if cell["status"] == "done":
                results[digest] = self.result(digest)
        return {"sweep": snapshot, "results": results}
