"""Kept-alive connections between ``ServiceClient`` and the server.

Every test here binds a real server on an OS-assigned port.  Accepts
are counted by wrapping the server's ``get_request``, so "one
connection" means the server accepted exactly one socket.
"""

import http.client
import json
import os
import socket
import socketserver
import threading
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.httpd import MAX_BODY_BYTES, ServiceHandler
from repro.service.server import ExperimentService, make_server

PAYLOAD = {"workers": 4, "max_iter": 2, "seed": 3}
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class Stack:
    """An inline service behind a real server, accepts counted."""

    def __init__(self, state_dir, port=0):
        self.service = ExperimentService(state_dir, inline=True)
        self.httpd = make_server(self.service, port=port)
        self.port = self.httpd.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.accepts = 0
        accept = self.httpd.get_request

        def counted():
            pair = accept()
            self.accepts += 1
            return pair

        self.httpd.get_request = counted
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self._thread.start()

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(10)

    def close(self):
        self.stop()
        self.service.scheduler.shutdown(timeout=10)


@pytest.fixture
def stack(tmp_path):
    stack = Stack(tmp_path / "state")
    yield stack
    stack.close()


def exchange(port, request, timeout=5.0):
    """Send raw bytes on one socket; everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.settimeout(timeout)
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestUnreadBody:
    """An answer sent before the body was read closes the connection.

    Each request below is followed on the same socket by a pipelined
    ``GET /healthz``.  If the server kept the connection, it would
    parse the unread body as the start of that next request line.
    """

    @pytest.mark.parametrize(
        "request_bytes, status, error",
        [
            (
                b"POST /nope HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 5\r\n\r\nhello",
                404,
                b"no such endpoint /nope",
            ),
            (
                b"POST /submit HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                + b"x" * 64,
                400,
                b"request body exceeds",
            ),
            (
                b"POST /submit HTTP/1.1\r\nHost: test\r\n\r\n"
                b'{"workers": 4}',
                400,
                b"request body required",
            ),
            (
                b"POST /submit HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: five\r\n\r\nhello",
                400,
                b"request body required",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 5\r\n\r\nhello",
                200,
                b'{"ok": true}',
            ),
        ],
        ids=["unknown-post-path", "oversized-body", "no-content-length",
             "malformed-content-length", "get-with-body"],
    )
    def test_one_answer_then_the_connection_closes(
        self, stack, request_bytes, status, error
    ):
        data = exchange(stack.port, request_bytes + HEALTHZ)
        assert data.count(b"HTTP/1.1 ") == 1, data
        assert data.startswith(f"HTTP/1.1 {status} ".encode()), data
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert error in body

    def test_a_read_body_keeps_the_connection(self, stack):
        body = b'{"workers": 4, "bogus": 1}'
        data = exchange(
            stack.port,
            b"POST /submit HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
            + HEALTHZ
            + b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert data.count(b"HTTP/1.1 ") == 3, data
        assert data.startswith(b"HTTP/1.1 400 ")
        assert data.count(b"HTTP/1.1 200 ") == 2
        assert stack.accepts == 1


class TestOneWrite:
    def test_sequential_requests_on_one_connection_do_not_stall(self, stack):
        # Head and body in separate writes wait out the peer's delayed
        # ACK behind Nagle: ~40 ms a request on Linux.
        conn = http.client.HTTPConnection("127.0.0.1", stack.port, timeout=5)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.read() == b'{"ok": true}\n'
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 requests took {elapsed:.3f} s"
        assert stack.accepts == 1

    def test_head_and_body_leave_in_one_write(self, stack, monkeypatch):
        ticket = stack.service.submit(dict(PAYLOAD))
        assert stack.service.scheduler.sweep(
            ticket["sweep_id"]
        ).finished.wait(60)
        writes = []
        write = socketserver._SocketWriter.write
        monkeypatch.setattr(
            socketserver._SocketWriter,
            "write",
            lambda writer, data: (writes.append(bytes(data)),
                                  write(writer, data))[1],
        )
        client = ServiceClient(stack.url, timeout=10.0)
        entry = client.result(ticket["cells"][0])
        assert client.healthz() == {"ok": True}
        assert len(writes) == 2
        assert all(w.startswith(b"HTTP/1.1 200 OK\r\n") for w in writes)
        assert writes[0].endswith(
            (json.dumps(entry, sort_keys=True) + "\n").encode()
        )
        assert writes[1].endswith(b'\r\n\r\n{"ok": true}\n')


class TestLifecycle:
    def test_a_sweep_round_trip_uses_one_connection(self, stack):
        client = ServiceClient(stack.url, timeout=10.0)
        ticket = client.submit([PAYLOAD])
        snapshot = client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        assert snapshot["complete"]
        digest = ticket["cells"][0]
        assert client.result(digest)["spec_hash"] == digest
        assert client.stats()["runs_computed"] == 1
        assert stack.accepts == 1

    def test_threads_get_a_connection_each_and_answers_never_cross(
        self, stack, hostile_switch_interval
    ):
        for sweep_id in ("a", "b"):
            stack.service.submit({"specs": [PAYLOAD], "sweep_id": sweep_id})
        client = ServiceClient(stack.url, timeout=10.0)
        crossed = []

        def poll(sweep_id):
            for _ in range(50):
                answer = client.sweep(sweep_id)["sweep_id"]
                if answer != sweep_id:
                    crossed.append((sweep_id, answer))

        threads = [
            threading.Thread(target=poll, args=(s,)) for s in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert crossed == []
        assert stack.accepts == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_opens_its_own_connection(self, stack):
        client = ServiceClient(stack.url, timeout=10.0)
        assert client.healthz() == {"ok": True}
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            try:
                ok = client.healthz() == {"ok": True}
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert stack.accepts == 2
        # Closing its copy in the child left the parent's connection up.
        assert client.healthz() == {"ok": True}
        assert stack.accepts == 2

    def test_an_idle_connection_the_server_closed_is_replaced(
        self, stack, monkeypatch
    ):
        monkeypatch.setattr(ServiceHandler, "timeout", 0.2)
        posts = []
        do_post = ServiceHandler.do_POST
        monkeypatch.setattr(
            ServiceHandler,
            "do_POST",
            lambda handler: (posts.append(handler.path), do_post(handler)),
        )
        client = ServiceClient(stack.url, timeout=10.0)
        assert client.healthz() == {"ok": True}
        time.sleep(0.5)  # the server times the idle connection out
        assert client.healthz() == {"ok": True}
        assert stack.accepts == 2
        time.sleep(0.5)
        # A submit without a sweep id is sent once: it must never be
        # written onto the dead connection.
        ticket = client.submit([PAYLOAD])
        assert ticket["sweep_id"] == "s000001"
        assert posts == ["/submit"]
        assert stack.accepts == 3

    def test_the_client_reconnects_after_a_restart_on_the_same_port(
        self, tmp_path
    ):
        first = Stack(tmp_path / "state")
        client = ServiceClient(first.url, timeout=10.0)
        try:
            assert client.healthz() == {"ok": True}
        finally:
            first.close()
        second = Stack(tmp_path / "state", port=first.port)
        try:
            ticket = client.submit([PAYLOAD])  # sent once, so no retry
            assert ticket["sweep_id"] == "s000001"
            assert client.healthz() == {"ok": True}
            assert second.accepts == 1
        finally:
            second.close()

    def test_a_closed_server_answers_nothing_on_a_kept_connection(
        self, stack
    ):
        conn = http.client.HTTPConnection("127.0.0.1", stack.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b'{"ok": true}\n'
            stack.stop()
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
        finally:
            conn.close()
