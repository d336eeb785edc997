"""Minimal key-delivery service: one JWT-gated endpoint returning the key.

``GET /v1/model-key`` with a valid ``Authorization: Bearer <jwt>`` header
answers ``{"key": "<16-character passphrase>"}``. Tokens are HS256 JWTs
signed with a shared secret; only the ``exp`` claim is required, and any
``alg`` other than HS256 is rejected outright (no algorithm negotiation).
Every authentication failure gets the same 401 body, so the response does
not reveal which check failed.

This is the development/test half of the key flow. It speaks plain HTTP;
a production deployment must sit behind TLS termination.

Connections are kept alive (HTTP/1.1), and each open connection holds one
server thread until the client closes it, sends nothing for
``_Handler.timeout`` seconds, or :meth:`KeyService.stop` ends it. Every
request on a connection is authenticated on its own.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from .crypto import derive_key
from .errors import RangeError

KEY_PATH = "/v1/model-key"

_UNAUTHORIZED = (401, {"error": "unauthorized"})
# Seconds between the serving loop's checks for stop(); stop() waits up to one.
_POLL_INTERVAL = 0.05


def _b64url_encode(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _b64url_decode(part: str) -> bytes:
    padded = part + "=" * (-len(part) % 4)
    return base64.urlsafe_b64decode(padded.encode("ascii"))


def _sign(jwt_secret: bytes, signing_input: bytes) -> bytes:
    return hmac.new(jwt_secret, signing_input, hashlib.sha256).digest()


def issue_token(jwt_secret: bytes, ttl: float, now: float | None = None) -> str:
    """Mint an HS256 JWT with a single ``exp`` claim, ``ttl`` seconds out.

    Development and test helper; real deployments bring their own issuer.
    """
    if not (math.isfinite(ttl) and ttl > 0):
        raise ValueError(f"ttl must be positive and finite, got {ttl}")
    if now is None:
        now = time.time()
    header = _b64url_encode(json.dumps({"alg": "HS256", "typ": "JWT"},
                                       separators=(",", ":")).encode())
    payload = _b64url_encode(json.dumps({"exp": int(now + ttl)},
                                        separators=(",", ":")).encode())
    signing_input = f"{header}.{payload}".encode("ascii")
    return f"{header}.{payload}.{_b64url_encode(_sign(jwt_secret, signing_input))}"


def verify_token(jwt_secret: bytes, token: str, now: float | None = None,
                 clock_skew: float = 0.0) -> bool:
    """True only for a well-formed HS256 token with a live ``exp`` claim."""
    if now is None:
        now = time.time()
    parts = token.split(".")
    if len(parts) != 3:
        return False
    header_part, payload_part, signature_part = parts
    try:
        header = json.loads(_b64url_decode(header_part))
        signature = _b64url_decode(signature_part)
    except (ValueError, binascii.Error):
        return False
    if not isinstance(header, dict) or header.get("alg") != "HS256":
        return False
    expected = _sign(jwt_secret, f"{header_part}.{payload_part}".encode("ascii"))
    if not hmac.compare_digest(expected, signature):
        return False
    try:
        payload = json.loads(_b64url_decode(payload_part))
    except (ValueError, binascii.Error):
        return False
    if not isinstance(payload, dict):
        return False
    exp = payload.get("exp")
    if not isinstance(exp, (int, float)) or isinstance(exp, bool):
        return False
    return now <= exp + clock_skew


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable service settings, validated on construction."""

    listen_port: int
    jwt_secret: bytes = field(repr=False)
    passphrase: str = field(repr=False)
    token_clock_skew: float = 0.0

    def __post_init__(self):
        if not 0 <= self.listen_port <= 65535:
            raise RangeError(f"listen_port must be between 0 and 65535, got {self.listen_port}")
        if not self.jwt_secret:
            raise ValueError("jwt_secret must be non-empty")
        if not (math.isfinite(self.token_clock_skew) and self.token_clock_skew >= 0):
            raise RangeError("token_clock_skew must be finite and at least 0, "
                             f"got {self.token_clock_skew}")
        derive_key(self.passphrase)  # surfaces LengthError/EncodingError early


def handle_key_request(config: ServiceConfig, method: str, path: str,
                       authorization: str | None,
                       now: float | None = None) -> tuple[int, dict]:
    """Route one request. Returns (HTTP status, JSON-ready body).

    Pure apart from the clock, which tests can pin via ``now``.
    """
    if urlparse(path).path != KEY_PATH:
        return 404, {"error": "not found"}
    if method != "GET":
        return 405, {"error": "method not allowed"}
    if not authorization:
        return _UNAUTHORIZED
    scheme, _, token = authorization.partition(" ")
    token = token.strip()
    if scheme.lower() != "bearer" or not token:
        return _UNAUTHORIZED
    if not verify_token(config.jwt_secret, token, now=now,
                        clock_skew=config.token_clock_skew):
        return _UNAUTHORIZED
    return 200, {"key": config.passphrase}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10.0  # idle seconds before a silent client is dropped, freeing its thread
    # The headers and the body leave as two writes. With Nagle's algorithm
    # on, the body of a reply on a kept-alive connection waits for the
    # client's delayed ACK of the headers, about 40 ms.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        server = self.server
        with server.connections_lock:
            server.connections.add(self.connection)
            if server.closing:
                _end_reading(self.connection)

    def finish(self):
        server = self.server
        with server.connections_lock:
            server.connections.discard(self.connection)
        super().finish()

    def _respond(self):
        server = self.server
        if server.closing:
            # A request read after stop() is not answered.
            self.close_connection = True
            return
        status, body = handle_key_request(
            server.config, self.command, self.path, self.headers.get("Authorization"))
        encoded = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(encoded)

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_HEAD = _respond

    def log_message(self, format, *args):
        # Silence the default access log: nothing is logged per request.
        pass


def _end_reading(conn: socket.socket) -> None:
    """Wake the handler blocked reading ``conn``; a reply in flight still leaves."""
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the client has gone already


class _Server(ThreadingHTTPServer):
    """A threading HTTP server that tracks its open connections."""

    def __init__(self, address: tuple[str, int], config: ServiceConfig):
        super().__init__(address, _Handler)
        self.config = config
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()
        self.closing = False

    def end_connections(self) -> None:
        """Answer no further request and drop every open connection."""
        with self.connections_lock:
            self.closing = True
            for conn in self.connections:
                _end_reading(conn)


class KeyService:
    """The HTTP server wrapper: start in a daemon thread, or serve inline."""

    def __init__(self, config: ServiceConfig, host: str = "127.0.0.1"):
        self.config = config
        self._server = _Server((host, config.listen_port), config)
        self._thread: threading.Thread | None = None
        self._served = False  # shutdown() waits forever on a server never served

    @property
    def port(self) -> int:
        """Actual bound port (useful with listen_port=0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}{KEY_PATH}"

    def start(self) -> "KeyService":
        self._served = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(_POLL_INTERVAL,),
                                        name="mvc-key-service", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._served = True
        self._server.serve_forever(_POLL_INTERVAL)

    def stop(self) -> None:
        """Stop accepting and end every open connection; a reply in flight still leaves."""
        if self._served:
            self._server.shutdown()
        self._server.end_connections()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "KeyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
