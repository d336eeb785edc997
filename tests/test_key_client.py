"""Tests for the key-fetching client: happy path, every failure shape."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from modelvault import key_client
from modelvault.crypto import derive_key
from modelvault.errors import AuthError, FormatError, TransportError
from modelvault.key_client import fetch_key
from modelvault.key_service import (KeyService, ServiceConfig, _Handler,
                                    issue_token)

SECRET = b"client-test-secret"
PASSPHRASE = "fedcba9876543210"
TOKEN_SENTINEL = "tok-3f1b9d"  # appearing in any error text would be a leak


@pytest.fixture(autouse=True)
def no_idle_connection():
    """Each test starts and ends without a kept-alive connection."""
    key_client._close_idle()
    yield
    key_client._close_idle()


def service_config() -> ServiceConfig:
    return ServiceConfig(listen_port=0, jwt_secret=SECRET, passphrase=PASSPHRASE)


class _StubHandler(BaseHTTPRequestHandler):
    """Programmable responses, keyed by path."""

    def do_GET(self):
        self.server.hits.append(self.path)
        if self.path == "/slow":
            time.sleep(1.0)
        status, headers, body = self.server.routes.get(
            self.path, (404, {}, b'{"error": "not found"}'))
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.hits = []
    server.routes = {
        "/ok": (200, {}, json.dumps({"key": PASSPHRASE}).encode()),
        "/forbidden": (403, {}, b'{"error": "unauthorized"}'),
        "/notjson": (200, {}, b"<html>surprise</html>"),
        "/nondict": (200, {}, b"[1, 2, 3]"),
        "/intkey": (200, {}, b'{"key": 123}'),
        "/nokey": (200, {}, b'{"passphrase": "nope"}'),
        "/shortkey": (200, {}, b'{"key": "abc"}'),
        "/huge": (200, {}, b'{"key": "' + b"a" * 5000 + b'"}'),
        "/redirect": (302, {"Location": "/ok"}, b""),
        "/teapot": (418, {}, b'{"error": "teapot"}'),
        "/slow": (200, {}, json.dumps({"key": PASSPHRASE}).encode()),
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield server, base
    server.shutdown()
    server.server_close()


class TestFetchKeyAgainstRealService:
    @pytest.fixture
    def service(self):
        with KeyService(service_config()) as svc:
            yield svc

    def test_success(self, service):
        key = fetch_key(service.url, issue_token(SECRET, 60))
        assert key.secret == derive_key(PASSPHRASE).secret

    def test_bad_token_is_auth_error(self, service):
        with pytest.raises(AuthError) as exc_info:
            fetch_key(service.url, TOKEN_SENTINEL)
        assert exc_info.value.status == 401

    def test_expired_token_is_auth_error(self, service):
        with pytest.raises(AuthError):
            fetch_key(service.url, issue_token(SECRET, 1, now=0))

    def test_wrong_path_is_transport_error(self, service):
        with pytest.raises(TransportError) as exc_info:
            fetch_key(service.url + "-nope", issue_token(SECRET, 60))
        assert exc_info.value.status == 404

    def test_error_text_never_leaks_credentials(self, service):
        with pytest.raises(AuthError) as exc_info:
            fetch_key(service.url, TOKEN_SENTINEL)
        text = str(exc_info.value) + repr(exc_info.value)
        assert TOKEN_SENTINEL not in text
        assert PASSPHRASE not in text

    def test_token_with_line_break_is_not_echoed(self, service):
        with pytest.raises(TransportError) as exc_info:
            fetch_key(service.url, TOKEN_SENTINEL + "\r\nX-Injected: 1")
        assert TOKEN_SENTINEL not in str(exc_info.value) + repr(exc_info.value)

    def test_environment_proxy_is_not_used(self, service, stub, monkeypatch):
        # A fresh process, so that nothing read the proxy settings earlier.
        proxy, base = stub
        proxy.routes[service.url] = (200, {}, b'{"key": "proxy-key-000000"}')
        monkeypatch.setenv("http_proxy", base)
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        fetched = subprocess.run(
            [sys.executable, "-m", "modelvault.cli", "fetch-key", service.url,
             "--token", issue_token(SECRET, 60)],
            capture_output=True, text=True, timeout=60)
        assert fetched.returncode == 0, fetched.stderr
        assert fetched.stdout.strip() == derive_key(PASSPHRASE).fingerprint.hex()
        assert proxy.hits == []  # the bearer token never reached the proxy


class TestFetchKeyResponseValidation:
    def test_stub_happy_path(self, stub):
        _, base = stub
        key = fetch_key(f"{base}/ok", "t")
        assert key.secret == derive_key(PASSPHRASE).secret

    def test_403_is_auth_error(self, stub):
        _, base = stub
        with pytest.raises(AuthError) as exc_info:
            fetch_key(f"{base}/forbidden", "t")
        assert exc_info.value.status == 403

    def test_unexpected_status_is_transport_error(self, stub):
        _, base = stub
        with pytest.raises(TransportError) as exc_info:
            fetch_key(f"{base}/teapot", "t")
        assert exc_info.value.status == 418

    def test_non_json_body(self, stub):
        _, base = stub
        with pytest.raises(FormatError):
            fetch_key(f"{base}/notjson", "t")

    def test_non_object_body(self, stub):
        _, base = stub
        with pytest.raises(FormatError):
            fetch_key(f"{base}/nondict", "t")

    def test_non_string_key(self, stub):
        _, base = stub
        with pytest.raises(FormatError):
            fetch_key(f"{base}/intkey", "t")

    def test_missing_key_field(self, stub):
        _, base = stub
        with pytest.raises(FormatError):
            fetch_key(f"{base}/nokey", "t")

    def test_wrong_length_key(self, stub):
        _, base = stub
        with pytest.raises(FormatError) as exc_info:
            fetch_key(f"{base}/shortkey", "t")
        assert "abc" not in str(exc_info.value)  # value itself not echoed

    def test_oversized_body(self, stub):
        _, base = stub
        with pytest.raises(FormatError):
            fetch_key(f"{base}/huge", "t")

    def test_redirects_not_followed(self, stub):
        server, base = stub
        with pytest.raises(TransportError):
            fetch_key(f"{base}/redirect", TOKEN_SENTINEL)
        assert "/ok" not in server.hits  # the Location was never chased

    def test_read_timeout_is_transport_error(self, stub):
        _, base = stub
        with pytest.raises(TransportError):
            fetch_key(f"{base}/slow", "t", timeout=0.1)


class TestFetchKeyTransport:
    def test_connection_refused(self):
        # Bind-then-close guarantees the port is unoccupied.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError) as exc_info:
            fetch_key(f"http://127.0.0.1:{port}/v1/model-key", TOKEN_SENTINEL)
        assert TOKEN_SENTINEL not in str(exc_info.value)

    @pytest.mark.parametrize("url", ["ftp://host/key", "file:///etc/passwd",
                                     "not a url"])
    def test_non_http_scheme_rejected(self, url):
        with pytest.raises(TransportError):
            fetch_key(url, "t")


class TestKeptAliveConnection:
    @pytest.fixture
    def counted(self, monkeypatch):
        """A running service, and a list that grows by one per connection."""
        opened = []
        setup = _Handler.setup

        def counting_setup(handler):
            opened.append(handler.client_address)
            setup(handler)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        with KeyService(service_config()) as svc:
            yield svc, opened

    def fetch_ok(self, url):
        assert fetch_key(url, issue_token(SECRET, 60)).secret == \
            derive_key(PASSPHRASE).secret

    def test_fetches_share_one_connection(self, counted):
        service, opened = counted
        for _ in range(20):
            self.fetch_ok(service.url)
        assert len(opened) == 1

    def test_refusal_on_a_reused_connection(self, counted):
        service, opened = counted
        self.fetch_ok(service.url)
        with pytest.raises(AuthError) as exc_info:
            fetch_key(service.url, TOKEN_SENTINEL)
        assert exc_info.value.status == 401
        self.fetch_ok(service.url)
        assert len(opened) == 1

    def test_fetch_after_the_server_dropped_the_idle_connection(self, counted,
                                                                monkeypatch):
        service, opened = counted
        monkeypatch.setattr(_Handler, "timeout", 0.2)  # keep the test short
        self.fetch_ok(service.url)
        time.sleep(0.5)
        self.fetch_ok(service.url)
        assert len(opened) == 2

    def test_fetch_after_stop_is_transport_error(self):
        service = KeyService(service_config()).start()
        try:
            self.fetch_ok(service.url)
        finally:
            service.stop()
        with pytest.raises(TransportError):
            fetch_key(service.url, issue_token(SECRET, 60))

    def test_concurrent_fetches_leave_at_most_one_idle_connection(self, counted):
        service, _ = counted
        start = threading.Barrier(8)

        def fetch_several(_):
            start.wait(timeout=10)
            for _ in range(5):
                self.fetch_ok(service.url)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(fetch_several, i) for i in range(8)]:
                    future.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        connections = service._server.connections
        deadline = time.monotonic() + 5
        while len(connections) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(connections) <= 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_share_the_connection(self, counted):
        service, opened = counted
        self.fetch_ok(service.url)
        pid = os.fork()
        if pid == 0:  # the child reports and leaves at once
            os._exit(0 if key_client._idle is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        self.fetch_ok(service.url)
        assert len(opened) == 1  # the parent's connection is still open

    def test_reused_fetches_are_not_held_back(self, counted):
        # With Nagle's algorithm on at the server, each reply's body waits
        # for a delayed ACK: about 40 ms per fetch.
        service, opened = counted
        self.fetch_ok(service.url)
        start = time.monotonic()
        for _ in range(20):
            self.fetch_ok(service.url)
        assert time.monotonic() - start < 0.5
        assert len(opened) == 1
