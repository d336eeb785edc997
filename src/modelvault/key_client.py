"""Client side of the key flow: fetch the passphrase, derive the key.

``fetch_key(url, token)`` performs one authenticated GET and hands back
:class:`~modelvault.crypto.KeyMaterial`. The passphrase only ever lives in
process memory; neither it nor the bearer token is written to disk or
included in any raised error message.

The GET goes over :mod:`http.client`, which follows no redirect and
consults no proxy setting, so the Authorization header only ever goes to
the host named in the URL. Every request carries the token, and the
service checks it every time.

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
import threading
from http.client import HTTPConnection, HTTPException, HTTPSConnection, IncompleteRead
from urllib.parse import urlsplit

from .crypto import KeyMaterial, derive_key
from .errors import AuthError, FormatError, ModelVaultError, TransportError

DEFAULT_TIMEOUT = 10.0

_MAX_BODY_BYTES = 4096  # honest responses are ~40 bytes

_CONNECTION_TYPES = {"http": HTTPConnection, "https": HTTPSConnection}

# What a kept-alive connection raises when the server closed it while it
# sat idle: the request left, or failed to leave, and no response byte came.
# RemoteDisconnected is a ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError)

_idle_lock = threading.Lock()
_idle: tuple[tuple, HTTPConnection] | None = None  # ((scheme, host, port), conn)


def _swap_idle(entry: tuple[tuple, HTTPConnection] | None = None,
               origin: tuple | None = None) -> HTTPConnection | None:
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


def _exchange(conn: HTTPConnection, target: str, headers: dict):
    """Send the GET and read the response head; close ``conn`` on failure."""
    try:
        conn.request("GET", target, headers=headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


def _send(origin: tuple, target: str, headers: dict, timeout: float):
    """GET ``target`` from ``origin``; return the connection and response.

    The idle connection is used when it leads to ``origin``; if the server
    dropped it, the GET goes once more over a fresh connection.
    """
    conn = _swap_idle(origin=origin)
    if conn is not None:
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
        try:
            return conn, _exchange(conn, target, headers)
        except _STALE:
            pass
    scheme, host, port = origin
    conn = _CONNECTION_TYPES[scheme](host, port, timeout=timeout)
    return conn, _exchange(conn, target, headers)


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
        port = 443 if parts.scheme == "https" else 80
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return (parts.scheme, parts.hostname, port), target


def fetch_key(url: str, token: str, timeout: float = DEFAULT_TIMEOUT) -> KeyMaterial:
    """GET the key endpoint with a bearer token and derive the AES-256 key.

    Raises AuthError on 401/403, TransportError on connection trouble (a
    body that ends before its Content-Length included) or any other
    unexpected status, FormatError when the response body is not the
    expected ``{"key": "<16 chars>"}`` shape.
    """
    origin, target = _split_url(url)
    headers = {"Authorization": f"Bearer {token}", "Accept": "application/json"}
    try:
        conn, response = _send(origin, target, headers, timeout)
    except ValueError:
        # http.client refuses header values with line breaks; its message
        # would quote the token.
        raise TransportError("key request is malformed") from None
    except (OSError, HTTPException) as exc:
        raise TransportError(f"cannot reach key service: {exc}") from None
    reusable = False
    try:
        status = response.status
        raw = response.read(_MAX_BODY_BYTES + 1)
        if response.length and len(raw) <= _MAX_BODY_BYTES:  # http.client reads it short
            raise IncompleteRead(raw, response.length)
        reusable = (response.isclosed() and not response.will_close
                    and len(raw) <= _MAX_BODY_BYTES)
    except (OSError, HTTPException) as exc:
        raise TransportError(f"cannot reach key service: {exc}") from None
    finally:
        response.close()
        if reusable:
            _swap_idle((origin, conn))
        else:
            conn.close()

    if status in (401, 403):
        raise AuthError("key request rejected", status=status)
    if status != 200:
        # http.client follows no redirect, so a 3xx lands here too.
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
