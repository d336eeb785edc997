"""Tests for the key-fetching client: happy path, every failure shape."""

import datetime
import ipaddress
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from modelvault import key_client
from modelvault.crypto import derive_key
from modelvault.errors import AuthError, FormatError, TransportError
from modelvault.key_client import fetch_key
from modelvault.key_service import (KeyService, ServiceConfig, _Handler,
                                    issue_token)

SECRET = b"client-test-secret"
PASSPHRASE = "fedcba9876543210"
TOKEN_SENTINEL = "tok-3f1b9d"  # appearing in any error text would be a leak

KEY_BODY = json.dumps({"key": PASSPHRASE}).encode()


def chunked(body: bytes, size: int = 7) -> bytes:
    """``body`` in the chunked transfer coding, ``size`` bytes a chunk."""
    chunks = [body[i:i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\n\r\n"


def first_chunk_sized(size_line: bytes) -> bytes:
    """A chunked response of KEY_BODY whose first chunk, 16 bytes, has ``size_line``."""
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s\r\n%s\r\n%s"
            % (size_line, KEY_BODY[:16], chunked(KEY_BODY[16:])))


# Responses written byte for byte, in shapes the key service never sends.
RAW_REPLIES = {
    "/chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(KEY_BODY),
    "/chunk-extension": first_chunk_sized(b"10 ;name=value"),
    # Sizes that int(x, 16) reads but RFC 9112's 1*HEXDIG does not allow.
    "/chunk-size-minus": first_chunk_sized(b"-1"),
    "/chunk-size-plus": first_chunk_sized(b"+10"),
    "/chunk-size-0x": first_chunk_sized(b"0x10"),
    "/chunk-size-underscore": first_chunk_sized(b"1_0"),
    "/chunked-huge": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                     + chunked(b'{"key": "' + b"a" * 5000 + b'"}', size=1000),
    "/until-close": b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + KEY_BODY,
    "/continue": b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                 % (len(KEY_BODY), KEY_BODY),
    "/http2": b"HTTP/2.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(KEY_BODY), KEY_BODY),
    "/many-headers": b"HTTP/1.0 200 OK\r\n" + b"X-Filler: 1\r\n" * 101
                     + b"Content-Length: %d\r\n\r\n%s" % (len(KEY_BODY), KEY_BODY),
    # Framed by the first length, this is the key on a connection kept alive.
    "/two-lengths": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Length: 2\r\n\r\n%s"
                    % (len(KEY_BODY), KEY_BODY),
    "/length-minus": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + KEY_BODY,
    "/length-exponent": b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n" + KEY_BODY,
    "/bad-trailer": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    + chunked(KEY_BODY)[:-2] + b"No colon here\r\n\r\n",
    "/no-content": b"HTTP/1.1 204 No Content\r\n\r\n",
}


@pytest.fixture(autouse=True)
def no_idle_connection():
    """Each test starts and ends without a kept-alive connection."""
    key_client._swap_idle()
    yield
    key_client._swap_idle()


def service_config() -> ServiceConfig:
    return ServiceConfig(listen_port=0, jwt_secret=SECRET, passphrase=PASSPHRASE)


class _StubHandler(BaseHTTPRequestHandler):
    """Programmable responses, keyed by path."""

    def do_GET(self):
        self.server.hits.append(self.path)
        if self.path == "/slow":
            time.sleep(1.0)
        if self.path in ("/cut-chunk", "/cut-sized", "/stalled-body"):
            self.send_cut_short()
            return
        if self.path in RAW_REPLIES:
            self.wfile.write(RAW_REPLIES[self.path])
            return
        status, headers, body = self.server.routes.get(
            self.path, (404, {}, b'{"error": "not found"}'))
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def send_cut_short(self):
        """Promise a 100-byte body and send 10 bytes of it."""
        self.send_response(200)
        if self.path == "/cut-chunk":  # the connection closes inside the chunk
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self.wfile.write(b"64\r\n" + b'{"key": "0')
        else:
            # The rest never arrives: the connection closes when this
            # HTTP/1.0 handler returns, or, for a stalled body, a second later.
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"key": "0')
            self.wfile.flush()
            if self.path == "/stalled-body":
                time.sleep(1.0)

    def log_message(self, *args):
        pass


class _KeptAliveStubHandler(_StubHandler):
    """The stub over HTTP/1.1: a connection carries requests until the client closes it."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.opened.append(self.client_address)


def serve_stub(handler, wrap=None):
    """A stub server on its own thread; ``wrap`` may replace its listening socket."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if wrap is not None:
        server.socket = wrap(server.socket)
    server.hits = []
    server.opened = []
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
    # A short poll, as KeyService uses, so shutdown() does not wait 0.5 s.
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server


@pytest.fixture
def stub():
    server = serve_stub(_StubHandler)
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def kept_alive_stub():
    server = serve_stub(_KeptAliveStubHandler)
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
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

    @pytest.mark.parametrize("token", [TOKEN_SENTINEL + "\r\nX-Injected: 1",
                                       TOKEN_SENTINEL + "\u20ac"],
                             ids=["line-break", "not-latin-1"])
    def test_token_with_line_break_is_not_echoed(self, service, token):
        with pytest.raises(TransportError, match="key request is malformed") as exc_info:
            fetch_key(service.url, token)
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

    @pytest.mark.parametrize("path,status", [("/teapot", 418), ("/no-content", 204)])
    def test_unexpected_status_is_transport_error(self, stub, path, status):
        _, base = stub
        with pytest.raises(TransportError) as exc_info:
            fetch_key(f"{base}{path}", "t")
        assert exc_info.value.status == status

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
        with pytest.raises(FormatError, match="key response too large"):
            fetch_key(f"{base}/huge", "t")

    def test_redirects_not_followed(self, stub):
        server, base = stub
        with pytest.raises(TransportError):
            fetch_key(f"{base}/redirect", TOKEN_SENTINEL)
        assert "/ok" not in server.hits  # the Location was never chased

    @pytest.mark.parametrize("path", ["/cut-chunk", "/cut-sized", "/stalled-body"])
    def test_body_that_fails_to_arrive_is_transport_error(self, stub, path):
        _, base = stub
        with pytest.raises(TransportError, match="cannot reach key service"):
            fetch_key(f"{base}{path}", TOKEN_SENTINEL, timeout=0.2)
        assert key_client._idle is None

    def test_read_timeout_is_transport_error(self, stub):
        _, base = stub
        with pytest.raises(TransportError):
            fetch_key(f"{base}/slow", "t", timeout=0.1)


class TestResponseShapes:
    """Bodies and heads that the key service never sends, read as HTTP/1.1 says."""

    def test_chunked_body_is_decoded_and_the_connection_reused(self, kept_alive_stub):
        server, base = kept_alive_stub
        for _ in range(2):
            assert fetch_key(f"{base}/chunked", "t").secret == derive_key(PASSPHRASE).secret
        assert server.hits == ["/chunked"] * 2
        assert len(server.opened) == 1

    def test_chunk_extension_is_skipped(self, stub):
        _, base = stub
        assert fetch_key(f"{base}/chunk-extension", "t").secret == derive_key(PASSPHRASE).secret

    @pytest.mark.parametrize("path", ["/chunk-size-minus", "/chunk-size-plus",
                                      "/chunk-size-0x", "/chunk-size-underscore"])
    def test_chunk_size_other_than_hex_digits_is_transport_error(self, kept_alive_stub, path):
        # The server keeps the connection open, so a size read as -1, which
        # reads to the end of the stream, would wait out the timeout.
        _, base = kept_alive_stub
        start = time.monotonic()
        with pytest.raises(TransportError, match="bad chunk size line"):
            fetch_key(f"{base}{path}", TOKEN_SENTINEL, timeout=5)
        assert time.monotonic() - start < 2
        assert key_client._idle is None

    def test_chunked_body_past_the_cap_is_format_error(self, kept_alive_stub):
        _, base = kept_alive_stub
        with pytest.raises(FormatError, match="key response too large"):
            fetch_key(f"{base}/chunked-huge", "t")
        assert key_client._idle is None  # the rest of the body was never read

    def test_body_without_a_length_is_read_until_close(self, stub):
        _, base = stub
        assert fetch_key(f"{base}/until-close", "t").secret == derive_key(PASSPHRASE).secret
        assert key_client._idle is None

    def test_100_continue_is_skipped(self, stub):
        _, base = stub
        assert fetch_key(f"{base}/continue", "t").secret == derive_key(PASSPHRASE).secret

    @pytest.mark.parametrize("path", ["/http2", "/many-headers", "/two-lengths",
                                      "/length-minus", "/length-exponent", "/bad-trailer"])
    def test_head_it_cannot_read_is_transport_error(self, stub, path):
        _, base = stub
        with pytest.raises(TransportError, match="cannot reach key service"):
            fetch_key(f"{base}{path}", TOKEN_SENTINEL)
        assert key_client._idle is None


def self_signed(tmp_path) -> tuple[str, str]:
    """PEM paths of a key and a certificate for 127.0.0.1 that no authority signed."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name).public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
            .sign(key, hashes.SHA256()))
    key_path, cert_path = tmp_path / "key.pem", tmp_path / "cert.pem"
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    return str(key_path), str(cert_path)


class TestTls:
    @pytest.fixture
    def tls_stub(self, tmp_path):
        key_path, cert_path = self_signed(tmp_path)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert_path, key_path)
        server = serve_stub(_StubHandler,
                            lambda sock: context.wrap_socket(sock, server_side=True))
        yield server, f"https://127.0.0.1:{server.server_address[1]}", cert_path
        server.shutdown()
        server.server_close()

    def test_untrusted_certificate_is_transport_error(self, tls_stub):
        server, base, _ = tls_stub
        with pytest.raises(TransportError, match="cannot reach key service"):
            fetch_key(f"{base}/ok", TOKEN_SENTINEL)
        assert server.hits == []  # no request, so no Authorization header, arrived

    def test_trusted_certificate_carries_the_fetch(self, tls_stub, monkeypatch):
        _, base, cert_path = tls_stub
        monkeypatch.setenv("SSL_CERT_FILE", cert_path)  # read by the default context
        assert fetch_key(f"{base}/ok", "t").secret == derive_key(PASSPHRASE).secret


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

    @pytest.mark.parametrize("url,message", [
        ("http://127.0.0.1:99999/v1/model-key", "invalid port"),
        ("http://127.0.0.1:port/v1/model-key", "invalid port"),
        ("http:///v1/model-key", "no host"),
        ("https://:8443/v1/model-key", "no host"),
        ("http://keys.example/v1/model key", "holds a space"),
    ])
    def test_url_without_a_host_or_valid_port_rejected(self, url, message):
        with pytest.raises(TransportError, match=message):
            fetch_key(url, TOKEN_SENTINEL)

    @pytest.mark.parametrize("url,origin,target", [
        ("http://keys.example/v1/model-key", ("http", "keys.example", 80), "/v1/model-key"),
        ("https://keys.example", ("https", "keys.example", 443), "/"),
        ("http://keys.example:8080/k?model=a&v=2", ("http", "keys.example", 8080),
         "/k?model=a&v=2"),
    ])
    def test_url_split(self, url, origin, target):
        assert key_client._split_url(url) == (origin, target)

    @pytest.mark.parametrize("url,host", [
        ("http://[::1]:8080/k", b"[::1]:8080"),
        ("https://b\u00fccher.example/k", b"xn--bcher-kva.example"),
    ], ids=["ipv6-literal", "idna-name"])
    def test_request_names_the_host(self, url, host):
        request = key_client._request(*key_client._split_url(url), "t")
        assert request.split(b"\r\n")[1] == b"Host: " + host


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
