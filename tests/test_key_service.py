"""Unit and integration tests for the JWT-gated key endpoint."""

import base64
import hashlib
import hmac
import http.client
import io
import json
import logging
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelvault import cli
from modelvault.errors import LengthError, RangeError
from modelvault.key_service import (KEY_PATH, KeyService, ServiceConfig,
                                    _end_reading, _Handler, _read_request,
                                    handle_key_request, issue_token, verify_token)

SECRET = b"test-jwt-secret"
PASSPHRASE = "0123456789abcdef"

# issue_token(SECRET, ttl=2000000000, now=0) must produce exactly this
# (header {"alg":"HS256","typ":"JWT"}, payload {"exp":2000000000}),
# cross-checked against an independent HS256 implementation.
GOLDEN_TOKEN = ("eyJhbGciOiJIUzI1NiIsInR5cCI6IkpXVCJ9"
                ".eyJleHAiOjIwMDAwMDAwMDB9"
                ".amBi3aeJrhmG_zFB87pt0lSGoPSwQTo-Su9Ga-MkAtg")
GOLDEN_HEAD, _, GOLDEN_SIGNATURE = GOLDEN_TOKEN.split(".")

# The golden token with a payload segment that has no ASCII encoding.
NON_ASCII_TOKEN = f"{GOLDEN_HEAD}.\u00e9.{GOLDEN_SIGNATURE}"
# A target that urlparse cannot split: the IPv6 bracket is never closed.
UNPARSABLE_TARGET = "http://[x/v1/model-key"

UNAUTHORIZED = (401, {"error": "unauthorized"})


def config(**overrides) -> ServiceConfig:
    settings = dict(listen_port=0, jwt_secret=SECRET, passphrase=PASSPHRASE)
    settings.update(overrides)
    return ServiceConfig(**settings)


def b64url(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode()


def signed(header_part: str, payload_part: str) -> str:
    """A token of these two parts with a valid HS256 signature under SECRET."""
    mac = hmac.new(SECRET, f"{header_part}.{payload_part}".encode(), hashlib.sha256)
    return f"{header_part}.{payload_part}.{b64url(mac.digest())}"


def forge(header: dict, payload: dict, signature: bytes | None = None) -> str:
    """A token of these parts, validly signed under SECRET unless ``signature`` is given."""
    def enc(obj):
        return b64url(json.dumps(obj, separators=(",", ":")).encode())

    if signature is None:
        return signed(enc(header), enc(payload))
    return f"{enc(header)}.{enc(payload)}.{b64url(signature)}"


class TestIssueToken:
    def test_golden_value(self):
        assert issue_token(SECRET, 2_000_000_000, now=0) == GOLDEN_TOKEN
        head, payload, _ = GOLDEN_TOKEN.split(".")
        assert signed(head, payload) == GOLDEN_TOKEN  # the test signer agrees

    def test_round_trips(self):
        token = issue_token(SECRET, ttl=60)
        assert verify_token(SECRET, token)

    def test_three_dot_separated_parts(self):
        assert issue_token(SECRET, 60).count(".") == 2

    @pytest.mark.parametrize("ttl", [0, -1, math.inf, -math.inf, math.nan])
    def test_nonpositive_ttl_rejected(self, ttl):
        with pytest.raises(ValueError):
            issue_token(SECRET, ttl)


class TestVerifyToken:
    def test_golden_accepted_before_expiry(self):
        assert verify_token(SECRET, GOLDEN_TOKEN, now=1_999_999_999)

    def test_golden_rejected_after_expiry(self):
        assert not verify_token(SECRET, GOLDEN_TOKEN, now=2_000_000_001)

    def test_expiry_is_inclusive(self):
        assert verify_token(SECRET, GOLDEN_TOKEN, now=2_000_000_000)

    def test_clock_skew_tolerance(self):
        assert not verify_token(SECRET, GOLDEN_TOKEN, now=2_000_000_030)
        assert verify_token(SECRET, GOLDEN_TOKEN, now=2_000_000_030,
                            clock_skew=60)

    def test_wrong_secret_rejected(self):
        assert not verify_token(b"other-secret", GOLDEN_TOKEN, now=0)

    def test_tampered_payload_rejected(self):
        head, payload, sig = GOLDEN_TOKEN.split(".")
        other = base64.urlsafe_b64encode(
            b'{"exp":9999999999}').rstrip(b"=").decode()
        assert not verify_token(SECRET, f"{head}.{other}.{sig}", now=0)

    def test_alg_none_rejected(self):
        token = forge({"alg": "none", "typ": "JWT"}, {"exp": 9_999_999_999},
                      signature=b"")
        assert not verify_token(SECRET, token, now=0)

    def test_other_algs_rejected(self):
        # Even with a valid-looking structure, only HS256 is acceptable.
        token = forge({"alg": "HS512", "typ": "JWT"}, {"exp": 9_999_999_999})
        assert not verify_token(SECRET, token, now=0)

    @pytest.mark.parametrize("bad", [
        "",
        "onlyonepart",
        "two.parts",
        "a.b.c.d",
        "!!!.???.###",
        "e30.e30.e30",                    # {} header: no alg
        pytest.param(NON_ASCII_TOKEN, id="non-ascii-payload"),
        pytest.param("\u00e9.e30.e30", id="non-ascii-header"),
        pytest.param(f"{b64url(b'[' * 100_000)}.e30.x", id="nested-past-recursion-limit"),
    ])
    def test_malformed_tokens_rejected(self, bad):
        assert not verify_token(SECRET, bad, now=0)
        assert handle_key_request(config(), "GET", KEY_PATH, f"Bearer {bad}",
                                  now=0) == UNAUTHORIZED

    def test_missing_exp_rejected(self):
        token = issue_token(SECRET, 60)
        head = token.split(".")[0]
        empty = base64.urlsafe_b64encode(b"{}").rstrip(b"=").decode()
        assert not verify_token(SECRET, f"{head}.{empty}.x", now=0)

    @pytest.mark.parametrize("exp", [
        "soon", None, True, [1],
        # json.dumps writes these as Infinity, -Infinity and NaN, which JSON
        # (RFC 8259 section 6) does not have; the next is no float at all,
        # and the last two are JSON text that Python reads as infinities.
        math.inf, -math.inf, math.nan, pytest.param(10**400, id="400-digits"),
        pytest.param(b"1e999", id="1e999-text"), pytest.param(b"-1e999", id="-1e999-text"),
    ])
    def test_non_numeric_exp_rejected(self, exp):
        text = exp if isinstance(exp, bytes) else json.dumps(exp).encode()
        token = signed(GOLDEN_HEAD, b64url(b'{"exp":' + text + b"}"))
        assert not verify_token(SECRET, token, now=0)
        assert handle_key_request(config(), "GET", KEY_PATH, f"Bearer {token}",
                                  now=0) == UNAUTHORIZED

    def test_non_dict_payload_rejected(self):
        head = GOLDEN_TOKEN.split(".")[0]
        arr = base64.urlsafe_b64encode(b"[1,2]").rstrip(b"=").decode()
        assert not verify_token(SECRET, f"{head}.{arr}.x", now=0)
        assert not verify_token(SECRET, signed(head, arr), now=0)

    @pytest.mark.parametrize("payload_part", ["!!!", b64url(b"\xff\xfe{"), b64url(b"{")],
                             ids=["not-base64", "not-utf8", "not-json"])
    def test_undecodable_payload_rejected(self, payload_part):
        head = GOLDEN_TOKEN.split(".")[0]
        assert not verify_token(SECRET, signed(head, payload_part), now=0)


class TestServiceConfig:
    def test_valid(self):
        assert config().listen_port == 0

    def test_bad_passphrase_rejected_early(self):
        with pytest.raises(LengthError):
            config(passphrase="too short")

    def test_empty_jwt_secret_rejected(self):
        with pytest.raises(ValueError):
            config(jwt_secret=b"")

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range_rejected(self, port):
        with pytest.raises(RangeError, match="listen_port"):
            config(listen_port=port)

    @pytest.mark.parametrize("skew", [math.inf, math.nan, -1.0])
    def test_bad_clock_skew_rejected(self, skew):
        with pytest.raises(RangeError, match="token_clock_skew"):
            config(token_clock_skew=skew)

    def test_highest_port_accepted(self):
        assert config(listen_port=65535).listen_port == 65535

    def test_repr_hides_secrets(self):
        shown = repr(config())
        assert PASSPHRASE not in shown
        assert "test-jwt-secret" not in shown


class TestHandleKeyRequest:
    def good_token(self):
        return issue_token(SECRET, 60)

    def test_valid_request(self):
        status, body = handle_key_request(
            config(), "GET", KEY_PATH, f"Bearer {self.good_token()}")
        assert (status, body) == (200, {"key": PASSPHRASE})

    def test_query_string_ignored_for_routing(self):
        status, _ = handle_key_request(
            config(), "GET", KEY_PATH + "?cache=no",
            f"Bearer {self.good_token()}")
        assert status == 200

    def test_unknown_path_404(self):
        for path in ("/v1/other", UNPARSABLE_TARGET):
            status, body = handle_key_request(
                config(), "GET", path, f"Bearer {self.good_token()}")
            assert (status, body) == (404, {"error": "not found"})

    def test_non_get_405(self):
        for method in ("POST", "PUT", "DELETE", "PATCH"):
            status, body = handle_key_request(
                config(), method, KEY_PATH, f"Bearer {self.good_token()}")
            assert (status, body) == (405, {"error": "method not allowed"})

    def test_auth_failures_are_uniform(self):
        # Every authentication failure must look exactly the same.
        shapes = [
            None,
            "",
            "Bearer",
            "Bearer ",
            "Basic dXNlcjpwdw==",
            "Bearer not-a-jwt",
            f"Bearer {GOLDEN_TOKEN[:-2]}xx",            # broken signature
            f"Bearer {issue_token(b'wrong', 60)}",      # wrong secret
            f"Bearer {NON_ASCII_TOKEN}",
            f"Bearer {forge({'alg': 'HS256'}, {'exp': math.inf})}",  # never expires
        ]
        responses = [handle_key_request(config(), "GET", KEY_PATH, auth)
                     for auth in shapes]
        responses.append(handle_key_request(
            config(), "GET", KEY_PATH,
            f"Bearer {issue_token(SECRET, 1, now=0)}", now=100.0))  # expired
        for status, body in responses:
            assert (status, body) == UNAUTHORIZED

    def test_bearer_scheme_is_case_insensitive(self):
        status, _ = handle_key_request(
            config(), "GET", KEY_PATH, f"bearer {self.good_token()}")
        assert status == 200

    # Any text at all, and text shaped like the key path and a bearer token.
    @settings(max_examples=300, deadline=None)
    @given(method=st.sampled_from(["GET", "POST", "HEAD"]) | st.text(),
           path=st.text() | st.text().map(KEY_PATH.__add__)
           | st.text().map(lambda host: f"http://{host}{KEY_PATH}"),
           authorization=st.none() | st.text() | st.text().map("Bearer ".__add__)
           | st.lists(st.text(), max_size=4).map(lambda parts: "Bearer " + ".".join(parts)))
    @example(method="GET", path=UNPARSABLE_TARGET, authorization=None)
    @example(method="GET", path=KEY_PATH, authorization=f"Bearer {NON_ASCII_TOKEN}")
    def test_every_refused_request_gets_an_answer(self, method, path, authorization):
        status, body = handle_key_request(config(), method, path, authorization, now=0)
        assert (status, body) in [UNAUTHORIZED, (404, {"error": "not found"}),
                                  (405, {"error": "method not allowed"})]

    def test_clock_skew_honored(self):
        stale = issue_token(SECRET, 1, now=0)
        strict, _ = handle_key_request(config(), "GET", KEY_PATH,
                                       f"Bearer {stale}", now=100.0)
        lax, _ = handle_key_request(config(token_clock_skew=1000.0), "GET",
                                    KEY_PATH, f"Bearer {stale}", now=100.0)
        assert (strict, lax) == (401, 200)


class TestKeyServiceHttp:
    @pytest.fixture
    def service(self):
        with KeyService(config()) as svc:
            yield svc

    def request(self, url, token=None, method="GET"):
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        req = urllib.request.Request(url, headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, json.loads(exc.read())

    # A target that starts "//" is a path, not a host, so it is the key path.
    @pytest.mark.parametrize("path", [KEY_PATH, "/" + KEY_PATH], ids=["key-path", "two-slashes"])
    def test_end_to_end_success(self, service, path):
        status, body = self.request(service.url.replace(KEY_PATH, path), issue_token(SECRET, 60))
        assert (status, body) == (200, {"key": PASSPHRASE})

    def test_unauthorized_is_json(self, service):
        status, body = self.request(service.url, "bad-token")
        assert (status, body) == (401, {"error": "unauthorized"})

    def test_missing_header(self, service):
        status, body = self.request(service.url)
        assert status == 401

    def test_unknown_path(self, service):
        root = service.url.replace(KEY_PATH, "/elsewhere")
        status, body = self.request(root, issue_token(SECRET, 60))
        assert status == 404

    def test_post_rejected(self, service):
        status, body = self.request(service.url, issue_token(SECRET, 60),
                                    method="POST")
        assert status == 405

    @pytest.mark.parametrize("method", ["OPTIONS", "TRACE", "BREW"])
    def test_every_other_method_gets_the_json_405(self, service, method):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=5)
        try:
            conn.request(method, KEY_PATH,
                         headers={"Authorization": f"Bearer {issue_token(SECRET, 60)}"})
            with conn.getresponse() as response:
                assert response.status == 405
                assert response.getheader("Content-Type") == "application/json"
                assert json.loads(response.read()) == {"error": "method not allowed"}
        finally:
            conn.close()

    @pytest.mark.parametrize("target,token,answer", [
        (KEY_PATH, NON_ASCII_TOKEN, UNAUTHORIZED),  # sent as Latin-1
        (UNPARSABLE_TARGET, GOLDEN_TOKEN, (404, {"error": "not found"})),
    ], ids=["non-ascii-token", "unparsable-target"])
    def test_request_it_cannot_parse_is_answered(self, service, target, token,
                                                 answer):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=5)
        try:  # RemoteDisconnected if nothing is answered
            # A Host header of its own keeps http.client from parsing the target.
            conn.request("GET", target, headers={"Host": "127.0.0.1",
                                                 "Authorization": f"Bearer {token}"})
            with conn.getresponse() as response:
                assert (response.status, json.loads(response.read())) == answer
        finally:
            conn.close()

    def test_port_is_bound(self, service):
        assert service.port > 0
        assert str(service.port) in service.url

    def test_concurrent_requests(self, service):
        import concurrent.futures
        token = issue_token(SECRET, 60)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: self.request(service.url, token)[0], range(16)))
        assert results == [200] * 16

    def test_stop_without_serving_releases_the_port(self):
        svc = KeyService(config())
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", svc.port), timeout=5).close()

    def test_started_idle_service_stops_within_one_short_poll(self):
        svc = KeyService(config()).start()
        time.sleep(0.1)  # the serving loop is now inside a poll
        start = time.monotonic()
        svc.stop()
        assert time.monotonic() - start < 0.25

    def test_serve_forever_serves_until_stopped(self):
        # The inline loop that `mvc serve-key` runs.
        svc = KeyService(config())
        loop = threading.Thread(target=svc.serve_forever, daemon=True)
        loop.start()
        try:
            status, body = self.request(svc.url, issue_token(SECRET, 60))
            assert (status, body) == (200, {"key": PASSPHRASE})
        finally:
            start = time.monotonic()
            svc.stop()
            stopped_in = time.monotonic() - start
        loop.join(timeout=5)
        assert not loop.is_alive()
        assert stopped_in < 0.25
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", svc.port), timeout=5).close()

    def test_connection_accepted_after_stop_began_is_not_answered(self):
        with KeyService(config()) as svc:
            # stop() marks the server closing before the serving loop has
            # ended; a connection that loop accepts meanwhile gets no answer.
            svc._server.end_connections()
            with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as late:
                assert late.recv(1) == b""  # ended by the server, nothing sent

    def test_ending_a_closed_socket_is_quiet(self):
        sock = socket.socket()
        sock.close()
        with pytest.raises(OSError):
            sock.shutdown(socket.SHUT_RD)
        _end_reading(sock)  # the client has gone already: nothing to wake

    def test_idle_client_is_disconnected(self, monkeypatch):
        assert _Handler.timeout is not None and _Handler.timeout > 0
        monkeypatch.setattr(_Handler, "timeout", 0.2)  # keep the test short
        with KeyService(config()) as svc, \
                socket.create_connection(("127.0.0.1", svc.port), timeout=5) as idle:
            start = time.monotonic()
            assert idle.recv(1) == b""  # closed by the server, nothing sent
            assert time.monotonic() - start < 5


class TestKeptAliveConnections:
    def get(self, conn, token):
        conn.request("GET", KEY_PATH, headers={"Authorization": f"Bearer {token}"})
        with conn.getresponse() as resp:
            return resp.status, json.loads(resp.read())

    def test_one_connection_serves_many_requests(self):
        token = issue_token(SECRET, 60)
        with KeyService(config()) as svc:
            conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
            try:
                for _ in range(3):
                    assert self.get(conn, token) == (200, {"key": PASSPHRASE})
                assert self.get(conn, "bad-token") == (401, {"error": "unauthorized"})
                assert len(svc._server.connections) == 1
            finally:
                conn.close()
            deadline = time.monotonic() + 5
            while svc._server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not svc._server.connections  # the client closing ends it

    def test_stop_ends_kept_alive_connections(self):
        token = issue_token(SECRET, 60)
        svc = KeyService(config()).start()
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
        try:
            assert self.get(conn, token)[0] == 200
            svc.stop()
            with pytest.raises(ConnectionError):  # RemoteDisconnected is one
                self.get(conn, token)  # a stopped service answers nothing
        finally:
            conn.close()
            svc.stop()

    def test_request_read_while_closing_is_not_answered(self):
        # The handler is already waiting on the kept-alive connection when
        # the server starts closing, and nothing ends its read: the next
        # request it reads gets no answer.
        token = issue_token(SECRET, 60)
        with KeyService(config()) as svc:
            conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=5)
            try:
                assert self.get(conn, token)[0] == 200
                svc._server.closing = True
                with pytest.raises(ConnectionError):  # RemoteDisconnected is one
                    self.get(conn, token)
            finally:
                conn.close()


def exchange(port: int, data: bytes) -> tuple[list[tuple[int, dict, bytes]], bool]:
    """Send ``data`` on one connection; read every reply until the server closes.

    Returns ``(status, headers, body)`` per reply, bodies sized by their
    Content-Length, and whether the server closed the connection.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        sock.settimeout(0.5)
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
            closed = True
        except TimeoutError:  # still open: every reply has arrived
            closed = False
    replies = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = 0 if data.startswith(b"HEAD") else int(headers["Content-Length"])
        replies.append((int(status_line.split()[1]), headers, received[:length]))
        received = received[length:]
    return replies, closed


class TestRequestHead:
    """What the service answers to a request head, byte by byte."""

    @pytest.fixture
    def port(self):
        with KeyService(config()) as svc:
            yield svc.port

    def get(self, token=None, version=b"HTTP/1.1", extra=b"") -> bytes:
        auth = b"Authorization: Bearer %s\r\n" % token.encode() if token else b""
        return b"GET %s %s\r\nHost: x\r\n%s%s\r\n" % (KEY_PATH.encode(), version, auth, extra)

    # Each case sends no byte past the one that decides the answer, so the
    # server has read everything when it closes.
    @pytest.mark.parametrize("data,status", [
        (b"GET /" + b"a" * 65532, 414),
        (b"GET / HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101, 431),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 65536, 431),
        (b"GARBAGE\r\n", 400),
        (b"GET /v1/model-key\r\n", 400),
        (b"GET /v1/model-key HTTP/1.1 extra\r\n", 400),
        (b"GET /v1/model-key HTTP/one\r\n", 400),
        (b"GET / HTTP/1.1\r\nNo colon here\r\n", 400),
        (b"GET / HTTP/1.1\r\nHost: x\r\n folded\r\n", 400),
        (b"GET /v1/model-key HTTP/2.0\r\n", 505),
    ], ids=["line-too-long", "101-headers", "header-too-long", "garbage", "http-0.9",
            "four-words", "bad-version", "no-colon", "folded", "http-2"])
    def test_bad_head_gets_json_and_a_close(self, port, data, status):
        replies, closed = exchange(port, data)
        assert [reply[0] for reply in replies] == [status]
        _, headers, body = replies[0]
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert json.loads(body) == {"error": {
            400: "bad request", 414: "uri too long", 431: "request header fields too large",
            505: "http version not supported"}[status]}
        assert closed

    def test_100_headers_are_read(self, port):
        data = self.get(issue_token(SECRET, 60), extra=b"X-Filler: 1\r\n" * 98)
        replies, closed = exchange(port, data)  # 98 fillers, Host and Authorization
        assert [reply[0] for reply in replies] == [200]
        assert not closed

    # The second head is a GET whose two lengths a proxy might read as one
    # request: a body of the last length. The service reads "0, <length>".
    @pytest.mark.parametrize("head,answer", [
        (b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n",
         (405, b'{"error": "method not allowed"}')),
        (b"GET %s HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nContent-Length: %d\r\n\r\n",
         (401, b'{"error": "unauthorized"}')),
    ], ids=["post", "get-with-two-lengths"])
    def test_body_of_a_refused_post_is_never_a_request(self, port, head, answer):
        smuggled = self.get(issue_token(SECRET, 60))
        data = head % (KEY_PATH.encode(), len(smuggled)) + smuggled
        replies, closed = exchange(port, data)
        assert [(status, body) for status, _, body in replies] == [answer]
        assert replies[0][1]["Connection"] == "close"
        assert closed

    @pytest.mark.parametrize("version,extra", [(b"HTTP/1.0", b""),
                                               (b"HTTP/1.1", b"Connection: close\r\n")],
                             ids=["http-1.0", "connection-close"])
    def test_request_that_asks_to_close_is_closed_after_the_reply(self, port, version,
                                                                  extra):
        replies, closed = exchange(port, self.get(issue_token(SECRET, 60), version, extra))
        assert [(status, json.loads(body)) for status, _, body in replies] == [
            (200, {"key": PASSPHRASE})]
        assert closed

    def test_kept_alive_connection_answers_in_order(self, port):
        token = issue_token(SECRET, 60)
        replies, closed = exchange(port, self.get(token) + self.get("bad") + self.get(token))
        assert [status for status, _, _ in replies] == [200, 401, 200]
        assert all("Connection" not in headers and headers["Date"].endswith(" GMT")
                   for _, headers, _ in replies)
        assert not closed

    def test_head_gets_the_headers_and_no_body(self, port):
        data = b"HEAD %s HTTP/1.1\r\nHost: x\r\n\r\n" % KEY_PATH.encode()
        replies, closed = exchange(port, data)
        [(status, headers, body)] = replies
        assert (status, body) == (405, b"")
        assert int(headers["Content-Length"]) == len(b'{"error": "method not allowed"}')
        assert not closed

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=300)
           | st.lists(st.sampled_from([b"GET", b" ", b"/v1/model-key", b"HTTP/1.1", b"HTTP/2.0",
                                       b"\r\n", b"\n", b":", b"Authorization", b"Bearer x",
                                       b"Connection", b"close", b"Content-Length", b"0",
                                       b"\xe9", b"\t"]),
                      max_size=40).map(b"".join))
    @example(data=b"GET /v1/model-key HTTP/1.1\r\nAuthorization: Bearer \xe9\r\n\r\n")
    @example(data=b"GET /v1/model-key HTTP/1.1\r\nHost: x\r\n")  # ends before its blank line
    def test_any_bytes_give_a_request_a_status_or_a_close(self, data):
        head = _read_request(io.BytesIO(data))
        assert (head is None or head in (400, 414, 431, 505)
                or (isinstance(head, tuple) and len(head) == 4))


class TestRequestLog:
    def test_one_record_per_request_and_no_secret(self, caplog, capsys):
        token = issue_token(SECRET, 60)
        caplog.set_level(logging.INFO, logger="modelvault.key_service")
        with KeyService(config()) as svc:
            assert cli.main(["fetch-key", svc.url, "--token", token]) == 0
            assert cli.main(["fetch-key", svc.url + "?v=1", "--token", "bad"]) == 2
            deadline = time.monotonic() + 5
            while len(caplog.records) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)  # a record follows its reply
        records = [r for r in caplog.records if r.name == "modelvault.key_service"]
        assert [(r.levelno, r.args[:3]) for r in records] == [
            (logging.INFO, ("GET", KEY_PATH, 200)), (logging.INFO, ("GET", KEY_PATH, 401))]
        assert all(r.args[3] >= 0 for r in records)
        shown = caplog.text + "".join(r.getMessage() for r in records) + \
            "".join(capsys.readouterr())
        assert token not in shown
        assert PASSPHRASE not in shown
