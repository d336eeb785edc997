"""Client side of the key flow: fetch the passphrase, derive the key.

``fetch_key(url, token)`` performs one authenticated GET and hands back
:class:`~modelvault.crypto.KeyMaterial`. The passphrase only ever lives in
process memory; neither it nor the bearer token is written to disk or
included in any raised error message.

The GET follows no redirect and consults no proxy setting, so the
Authorization header only ever goes to the host named in the URL. Every
request carries the token, and the service checks it every time. An
https URL is verified against the system's trusted certificates and the
host name (``ssl.create_default_context``).

The client speaks the part of HTTP/1.1 (RFC 9112) that one GET needs: it
sends the request in one write and reads a status line, skipping any 1xx
interim response, then at most 100 header fields of at most 65 536 bytes
a line, then a body sized by Content-Length, chunked, or running to the
end of the connection. A response it cannot read that way is a
TransportError. At most 4096 bytes of body and one more are read; a 200
with a longer body is a FormatError, and no connection with one is kept.

One idle connection per process is kept alive for the next fetch to the
same scheme, host and port; a fetch elsewhere closes it and dials afresh.
A connection goes back only when its response was read in full and the
server did not ask to close it. A kept-alive connection that the server
dropped while it sat idle fails before any response byte arrives; that
GET is sent once more on a fresh connection, which is safe because a GET
has no side effects. A fresh connection is never retried, and neither is
a timeout.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import socket
import threading
from urllib.parse import urlsplit

from ._http import MAX_LINE, read_fields
from .crypto import KeyMaterial, derive_key
from .errors import AuthError, FormatError, ModelVaultError, TransportError

DEFAULT_TIMEOUT = 10.0

_MAX_BODY_BYTES = 4096  # honest responses are ~40 bytes

_DEFAULT_PORTS = {"http": 80, "https": 443}
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) +([1-9][0-9]{2})(?: .*)?\r?\n", re.DOTALL)
# A chunk's size line: 1*HEXDIG, capped at 16 digits, then any extension
# (RFC 9112, section 7.1). int(x, 16) alone would take a sign, "0x" or "_".
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})(?:[ \t]*;.*)?\r?\n", re.DOTALL)
# What a request target may not hold (RFC 9112, section 3.2).
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")

# What a kept-alive connection raises when the server closed it while it
# sat idle: the request left, or failed to leave, and no response byte came.
_STALE = (ConnectionResetError, BrokenPipeError)


class _ProtocolError(Exception):
    """A response that does not follow HTTP/1.1."""


class _Connection:
    """A socket to one origin and the one buffered reader of its responses."""

    __slots__ = ("sock", "reader")

    def __init__(self, origin: tuple, timeout: float):
        scheme, host, port = origin
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                import ssl  # only an https key URL pays for it
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


_idle_lock = threading.Lock()
_idle: tuple[tuple, _Connection] | None = None  # ((scheme, host, port), conn)


def _swap_idle(entry: tuple[tuple, _Connection] | None = None,
               origin: tuple | None = None) -> _Connection | None:
    """Put ``entry`` in the idle slot and close the connection it held.

    A held connection that leads to ``origin`` is returned instead of closed.
    """
    global _idle
    with _idle_lock:
        held, _idle = _idle, entry
    if held is None:
        return None
    held_origin, conn = held
    if held_origin == origin:
        return conn
    conn.close()
    return None


atexit.register(_swap_idle)


def _forget_idle_in_child() -> None:
    # A forked child must not talk over its parent's connection: closing the
    # child's copy leaves the parent's open. The lock may have been held by
    # a thread that the child does not have.
    global _idle_lock
    _idle_lock = threading.Lock()
    _swap_idle()


os.register_at_fork(after_in_child=_forget_idle_in_child)


def _exchange(conn: _Connection, request: bytes) -> bytes:
    """Send ``request`` and read the status line; close ``conn`` on failure."""
    try:
        conn.sock.sendall(request)
        line = conn.reader.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("connection closed before any response")
        return line
    except BaseException:
        conn.close()
        raise


def _send(origin: tuple, request: bytes, timeout: float) -> tuple[_Connection, bytes]:
    """Send ``request`` to ``origin``; return the connection and status line.

    The idle connection is used when it leads to ``origin``; if the server
    dropped it, the request goes once more over a fresh connection.
    """
    conn = _swap_idle(origin=origin)
    if conn is not None:
        conn.sock.settimeout(timeout)
        try:
            return conn, _exchange(conn, request)
        except _STALE:
            pass
    conn = _Connection(origin, timeout)
    return conn, _exchange(conn, request)


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise _ProtocolError(f"body ended after {len(data)} of {size} bytes")
    return data


def _read_chunked(reader) -> tuple[bytes, bool]:
    """A chunked body, cut at one byte past the cap; and whether it was read whole."""
    body = b""
    while True:
        match = _CHUNK_SIZE.fullmatch(reader.readline(MAX_LINE + 1))
        if match is None:
            raise _ProtocolError("bad chunk size line")
        size = int(match[1], 16)
        if size == 0:
            break
        if len(body) + size > _MAX_BODY_BYTES:
            return body + _read_exactly(reader, _MAX_BODY_BYTES + 1 - len(body)), False
        body += _read_exactly(reader, size)
        _read_exactly(reader, 2)  # the CRLF after the chunk
    if not isinstance(read_fields(reader), dict):  # the trailer section
        raise _ProtocolError("bad trailer section")
    return body, True


def _read_response(reader, line: bytes) -> tuple[int, bytes, bool]:
    """The rest of a response after its status line ``line``.

    Returns the status, the body cut at one byte past the cap, and whether
    the connection can carry another request. Interim 1xx responses are
    skipped.
    """
    while True:
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise _ProtocolError("status line is not HTTP/1.x")
        status = int(match[2])
        fields = read_fields(reader)
        if not isinstance(fields, dict):
            raise _ProtocolError("malformed or oversized response head")
        if not 100 <= status < 200:
            break
        line = reader.readline(MAX_LINE + 1)
    connection = fields.get(b"connection", b"").lower()
    if match[1] == b"0":
        keep_alive = b"keep-alive" in connection
    else:
        keep_alive = b"close" not in connection
    if status in (204, 304):
        return status, b"", keep_alive
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        body, whole = _read_chunked(reader)
        return status, body, keep_alive and whole
    length = fields.get(b"content-length")
    if length is None:  # the body runs to the end of the connection
        return status, reader.read(_MAX_BODY_BYTES + 1), False
    if not length.isdigit() or len(length) > 18:
        raise _ProtocolError("bad Content-Length")
    length = int(length)
    body = _read_exactly(reader, min(length, _MAX_BODY_BYTES + 1))
    return status, body, keep_alive and length <= _MAX_BODY_BYTES


def _split_url(url: str) -> tuple[tuple, str]:
    """``((scheme, host, port), request target)`` of an http(s) URL."""
    if not url.startswith(("http://", "https://")):
        raise TransportError("key URL must be http or https")
    parts = urlsplit(url)
    try:
        port = parts.port
    except ValueError:
        raise TransportError("key URL has an invalid port") from None
    if not parts.hostname:
        raise TransportError("cannot reach key service: no host given")
    if port is None:
        port = _DEFAULT_PORTS[parts.scheme]
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    if _BAD_TARGET.search(target):
        raise TransportError("key URL holds a space, a control or a non-ASCII character")
    return (parts.scheme, parts.hostname, port), target


def _request(origin: tuple, target: str, token: str) -> bytes:
    """The GET of ``target`` that carries ``token``, as it goes on the wire."""
    scheme, host, port = origin
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:  # an IPv6 address
        host = f"[{host}]"
    if port != _DEFAULT_PORTS[scheme]:
        host = f"{host}:{port}"
    return (f"GET {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            f"Accept: application/json\r\nAuthorization: Bearer {token}\r\n\r\n"
            ).encode("latin-1")


def fetch_key(url: str, token: str, timeout: float = DEFAULT_TIMEOUT) -> KeyMaterial:
    """GET the key endpoint with a bearer token and derive the AES-256 key.

    Raises AuthError on 401/403, TransportError on connection trouble (a
    body that ends before its Content-Length included) or any other
    unexpected status, FormatError when the response body is not the
    expected ``{"key": "<16 chars>"}`` shape.
    """
    origin, target = _split_url(url)
    if "\r" in token or "\n" in token:
        raise TransportError("key request is malformed")
    try:
        conn, line = _send(origin, _request(origin, target, token), timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach key service: {exc}") from None
    except ValueError:
        # A token that Latin-1 cannot carry, or a host name that cannot be
        # looked up; the error would quote the token or the URL.
        raise TransportError("key request is malformed") from None
    reusable = False
    try:
        status, raw, reusable = _read_response(conn.reader, line)
    except (OSError, _ProtocolError) as exc:
        raise TransportError(f"cannot reach key service: {exc}") from None
    finally:
        if reusable:
            _swap_idle((origin, conn))
        else:
            conn.close()

    if status in (401, 403):
        raise AuthError("key request rejected", status=status)
    if status != 200:
        # No redirect is followed, so a 3xx lands here too.
        raise TransportError(f"key service returned status {status}", status=status)
    if len(raw) > _MAX_BODY_BYTES:
        raise FormatError("key response too large")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise FormatError("key response is not valid JSON") from None
    if not isinstance(body, dict) or not isinstance(body.get("key"), str):
        raise FormatError('key response must be an object with a string "key"')
    try:
        return derive_key(body["key"])
    except ModelVaultError as exc:
        # Re-shape derivation failures as response-format problems, without
        # echoing the received value.
        raise FormatError(f"key field unusable: {exc}") from exc
