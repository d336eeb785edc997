"""Minimal key-delivery service: one JWT-gated endpoint returning the key.

``GET /v1/model-key`` with a valid ``Authorization: Bearer <jwt>`` header
answers ``{"key": "<16-character passphrase>"}``. Tokens are HS256 JWTs
signed with a shared secret; only the ``exp`` claim is required, and it
must be a finite number. Any ``alg`` other than HS256 is rejected outright
(no algorithm negotiation). Every refusal on the key path, whether the
header is missing or not Bearer, or the token is malformed (non-ASCII text
included), wrongly signed or expired, gets the same
``401 {"error": "unauthorized"}``, so the response does not reveal which
check failed. A request the service cannot parse still gets an answer: a
target that does not parse, such as ``http://[x/v1/model-key``, is a 404,
and any method but GET on the key path, whatever its name, is a JSON 405.

This is the development/test half of the key flow. It speaks plain HTTP;
a production deployment must sit behind TLS termination.

It speaks the part of HTTP/1.1 (RFC 9112) that the key flow needs. It
reads a request line and header fields, at most 65 536 bytes a line and
100 fields, and never a body. A request line past that bound gets 414,
fields past it 431, a head that does not parse 400, and an HTTP version
of 2 or above 505; each answer is a JSON ``{"error": ...}`` holding its
reason phrase in lower case, such as ``"uri too long"``, and the
connection closes after it. A field sent twice is read as one value, the
two joined by ", ". Every reply leaves in one write, with ``Date``,
``Content-Type`` and ``Content-Length``; a HEAD gets the head alone.

Connections are kept alive (HTTP/1.1), and each open connection holds one
server thread until the client closes it, sends nothing for
``_Handler.timeout`` seconds, or :meth:`KeyService.stop` ends it. Every
request on a connection is authenticated on its own. An HTTP/1.0 request,
one with ``Connection: close`` and one that declares a body get their
answer, and then the connection closes, so a body is never read as the
next request. Two ``Content-Length`` fields, even a ``0`` and another,
declare a body too.

Each answered request logs one INFO record on the
``modelvault.key_service`` logger: the method, the path without its
query, the status and the latency in ms. Nothing is printed unless the
application configures a handler.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import logging
import math
import re
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlparse

from ._http import MAX_LINE, read_fields
from .crypto import derive_key
from .errors import RangeError

KEY_PATH = "/v1/model-key"

_UNAUTHORIZED = (401, {"error": "unauthorized"})
# Seconds between the serving loop's checks for stop(); stop() waits up to one.
_POLL_INTERVAL = 0.05

_VERSION = re.compile(rb"HTTP/[0-9]\.[0-9]")
_REASONS = {200: b"OK", 400: b"Bad Request", 401: b"Unauthorized", 404: b"Not Found",
            405: b"Method Not Allowed", 414: b"URI Too Long",
            431: b"Request Header Fields Too Large", 505: b"HTTP Version Not Supported"}

_log = logging.getLogger(__name__)


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
    """True only for a well-formed HS256 token with a live ``exp`` claim.

    ``exp`` must be a finite JSON number. A token that does not split into
    three ASCII parts, or whose parts do not decode as base64url JSON, is
    False like any other; this never raises for a ``str`` token.
    """
    if now is None:
        now = time.time()
    try:
        header_part, payload_part, signature_part = token.split(".")
        signing_input = f"{header_part}.{payload_part}".encode("ascii")
        if json.loads(_b64url_decode(header_part)).get("alg") != "HS256":
            return False
        if not hmac.compare_digest(_sign(jwt_secret, signing_input),
                                   _b64url_decode(signature_part)):
            return False
        exp = json.loads(_b64url_decode(payload_part)).get("exp")
        # A bool is an int to Python, and json reads NaN, Infinity and 1e999.
        if type(exp) not in (int, float) or not math.isfinite(exp):
            return False
    # binascii.Error and every JSON and Unicode error are ValueErrors; a
    # non-object header or payload has no .get; an int past any float
    # overflows isfinite; deep JSON nesting exhausts the recursion limit.
    except (ValueError, AttributeError, OverflowError, RecursionError):
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

    Pure apart from the clock, which tests can pin via ``now``. Any ``str``
    arguments get an answer; none makes it raise.
    """
    try:
        route = urlparse(path).path
    except ValueError:  # such as the unclosed bracket of "http://[x/v1/model-key"
        route = None
    if route != KEY_PATH:
        return 404, {"error": "not found"}
    if method != "GET":
        return 405, {"error": "method not allowed"}
    scheme, _, token = (authorization or "").partition(" ")
    if scheme.lower() != "bearer" or not verify_token(
            config.jwt_secret, token.strip(), now=now, clock_skew=config.token_clock_skew):
        return _UNAUTHORIZED
    return 200, {"key": config.passphrase}


def _read_request(rfile) -> tuple[str, str, str | None, bool] | int | None:
    """Read one request head from ``rfile``, a buffered binary reader.

    Returns ``(method, target, authorization, keep_alive)`` for a request,
    an error status for a head that does not parse, or None when the stream
    ends or the request line is blank. No body is read: a request that
    declares one does not keep its connection, so the body is never read as
    the next request. Only an OSError of ``rfile`` escapes.
    """
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        return 414
    words = line.split()
    if not line.endswith(b"\n") or not words:
        return None
    if len(words) != 3 or _VERSION.fullmatch(words[2]) is None:
        return 400
    method, target, version = words
    if version >= b"HTTP/2":
        return 505
    fields = read_fields(rfile)
    if not isinstance(fields, dict):
        return fields
    keep_alive = (version >= b"HTTP/1.1"
                  and b"close" not in fields.get(b"connection", b"").lower()
                  and fields.get(b"content-length", b"0") == b"0"
                  and b"transfer-encoding" not in fields)
    target = target.decode("latin-1")
    if target.startswith("//"):  # a path, not a host: "//v1/model-key" is the key path
        target = "/" + target.lstrip("/")
    authorization = fields.get(b"authorization")
    if authorization is not None:
        authorization = authorization.decode("latin-1")
    return method.decode("latin-1"), target, authorization, keep_alive


def _date() -> bytes:
    """Now as a ``Date`` value, an IMF-fixdate (RFC 9110, section 5.6.7).

    asctime's names are English whatever the locale, unlike strftime's.
    """
    weekday, month, day, clock, year = time.asctime(time.gmtime()).split()
    return f"{weekday}, {int(day):02d} {month} {year} {clock} GMT".encode()


class _Handler(socketserver.StreamRequestHandler):
    timeout = 10.0  # idle seconds before a silent client is dropped, freeing its thread
    # A reply is small and leaves in one write; never hold it back for an ACK.
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

    def handle(self):
        server = self.server
        while True:
            try:
                request = _read_request(self.rfile)
            except OSError:  # the idle timeout, or the client reset the connection
                return
            if request is None or server.closing:
                return  # a request read after stop() is not answered
            start = time.perf_counter()
            if isinstance(request, int):
                method, path, status, keep_alive = "-", "-", request, False
                body = {"error": _REASONS[status].decode().lower()}
            else:
                method, path, authorization, keep_alive = request
                status, body = handle_key_request(server.config, method, path, authorization)
            encoded = json.dumps(body).encode()
            reply = (b"HTTP/1.1 %d %s\r\nDate: %s\r\nContent-Type: application/json\r\n"
                     b"Content-Length: %d\r\n%s\r\n"
                     % (status, _REASONS[status], _date(), len(encoded),
                        b"" if keep_alive else b"Connection: close\r\n"))
            if method != "HEAD":
                reply += encoded
            try:
                self.wfile.write(reply)
            except OSError:
                return
            _log.info("%s %s %d %.3f ms", method, path.partition("?")[0], status,
                      (time.perf_counter() - start) * 1e3)
            if not keep_alive:
                return


def _end_reading(conn: socket.socket) -> None:
    """Wake the handler blocked reading ``conn``; a reply in flight still leaves."""
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the client has gone already


class _Server(socketserver.ThreadingTCPServer):
    """A threading TCP server that tracks its open connections."""

    daemon_threads = True
    allow_reuse_address = True

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
