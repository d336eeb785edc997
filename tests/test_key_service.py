"""Unit and integration tests for the JWT-gated key endpoint."""

import base64
import http.client
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from modelvault.errors import LengthError, RangeError
from modelvault.key_service import (KEY_PATH, KeyService, ServiceConfig,
                                    _Handler, handle_key_request,
                                    issue_token, verify_token)

SECRET = b"test-jwt-secret"
PASSPHRASE = "0123456789abcdef"

# issue_token(SECRET, ttl=2000000000, now=0) must produce exactly this
# (header {"alg":"HS256","typ":"JWT"}, payload {"exp":2000000000}),
# cross-checked against an independent HS256 implementation.
GOLDEN_TOKEN = ("eyJhbGciOiJIUzI1NiIsInR5cCI6IkpXVCJ9"
                ".eyJleHAiOjIwMDAwMDAwMDB9"
                ".amBi3aeJrhmG_zFB87pt0lSGoPSwQTo-Su9Ga-MkAtg")


def config(**overrides) -> ServiceConfig:
    settings = dict(listen_port=0, jwt_secret=SECRET, passphrase=PASSPHRASE)
    settings.update(overrides)
    return ServiceConfig(**settings)


def forge(header: dict, payload: dict, signature: bytes = b"x") -> str:
    def enc(obj):
        raw = json.dumps(obj, separators=(",", ":")).encode()
        return base64.urlsafe_b64encode(raw).rstrip(b"=").decode()

    sig = base64.urlsafe_b64encode(signature).rstrip(b"=").decode()
    return f"{enc(header)}.{enc(payload)}.{sig}"


class TestIssueToken:
    def test_golden_value(self):
        assert issue_token(SECRET, 2_000_000_000, now=0) == GOLDEN_TOKEN

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
    ])
    def test_malformed_tokens_rejected(self, bad):
        assert not verify_token(SECRET, bad, now=0)

    def test_missing_exp_rejected(self):
        token = issue_token(SECRET, 60)
        head = token.split(".")[0]
        empty = base64.urlsafe_b64encode(b"{}").rstrip(b"=").decode()
        assert not verify_token(SECRET, f"{head}.{empty}.x", now=0)

    @pytest.mark.parametrize("exp", ["soon", None, True, [1]])
    def test_non_numeric_exp_rejected(self, exp):
        token = forge({"alg": "HS256", "typ": "JWT"}, {"exp": exp})
        assert not verify_token(SECRET, token, now=0)

    def test_non_dict_payload_rejected(self):
        head = GOLDEN_TOKEN.split(".")[0]
        arr = base64.urlsafe_b64encode(b"[1,2]").rstrip(b"=").decode()
        assert not verify_token(SECRET, f"{head}.{arr}.x", now=0)


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
        status, body = handle_key_request(
            config(), "GET", "/v1/other", f"Bearer {self.good_token()}")
        assert status == 404
        assert "key" not in body

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
        ]
        responses = [handle_key_request(config(), "GET", KEY_PATH, auth)
                     for auth in shapes]
        responses.append(handle_key_request(
            config(), "GET", KEY_PATH,
            f"Bearer {issue_token(SECRET, 1, now=0)}", now=100.0))  # expired
        for status, body in responses:
            assert (status, body) == (401, {"error": "unauthorized"})

    def test_bearer_scheme_is_case_insensitive(self):
        status, _ = handle_key_request(
            config(), "GET", KEY_PATH, f"bearer {self.good_token()}")
        assert status == 200

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

    def test_end_to_end_success(self, service):
        status, body = self.request(service.url, issue_token(SECRET, 60))
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
