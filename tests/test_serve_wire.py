"""The serving endpoint's HTTP/1.1 wire behaviour, over raw sockets.

``tests/test_serve_http.py`` and ``tests/test_serve_errors_http.py`` pin
routes, payloads and typed statuses through ordinary clients.  This file
pins what those clients never exercise: pipelined requests,
``Connection: close``, HTTP/1.0, ``Expect: 100-continue``, bodies split
over several sends, requests the reader cannot parse (each a typed JSON
400 followed by a close), and the headers of every reply.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from email.utils import parsedate_to_datetime
from pathlib import Path

import pytest

from repro.serve import RecommenderService, create_server
from repro.serve.http import MAX_HEAD_BYTES

GOLDEN = Path(__file__).parent / "fixtures" / "serve" / "golden_model.npz"
IMF_DATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    r"\d{4} \d{2}:\d{2}:\d{2} GMT"
)


@pytest.fixture(scope="module")
def service():
    return RecommenderService(GOLDEN)


@pytest.fixture(scope="module")
def address(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class _Conn:
    """A raw client socket that reads replies head, headers and body."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buf += chunk
        return bool(chunk)

    def read_head(self) -> tuple[str, dict[str, str]]:
        while b"\r\n\r\n" not in self.buf:
            assert self._fill(), f"connection closed mid-reply: {self.buf!r}"
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        status, *fields = head.decode("latin-1").split("\r\n")
        headers = {}
        for field in fields:
            name, _, value = field.partition(":")
            assert name.lower() not in headers, f"duplicate header {name}"
            headers[name.lower()] = value.strip()
        return status, headers

    def read_reply(self) -> tuple[int, dict[str, str], bytes]:
        status, headers = self.read_head()
        length = int(headers["content-length"])
        while len(self.buf) < length:
            assert self._fill(), "connection closed mid-body"
        body, self.buf = self.buf[:length], self.buf[length:]
        return int(status.split()[1]), headers, body

    def closed_by_server(self) -> bool:
        """True once the server has closed its side: EOF with nothing left unread."""
        try:
            return not self.buf and not self._fill()
        except ConnectionResetError:
            return not self.buf


def _get(path: str, extra: str = "", version: str = "HTTP/1.1") -> bytes:
    return f"GET {path} {version}\r\nHost: test\r\n{extra}\r\n".encode("ascii")


def _score_head(body: bytes, extra: str = "") -> bytes:
    return (
        f"POST /score HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode("ascii")


def _health_ok(address) -> bool:
    with _Conn(address) as conn:
        conn.send(_get("/health"))
        status, _, body = conn.read_reply()
    return status == 200 and json.loads(body)["status"] == "ok"


UNPARSABLE = {
    "no-version": b"GARBAGE\r\n\r\n",
    "put": b"PUT /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\r\n{}",
    "header-over-cap": b"GET /health HTTP/1.1\r\nHost: test\r\nX-Big: "
    + b"a" * 70_000 + b"\r\n\r\n",
    "header-without-colon": b"GET /health HTTP/1.1\r\nHost test\r\n\r\n",
    "http-2": b"GET /health HTTP/2.0\r\nHost: test\r\n\r\n",
    "chunked-body": b"POST /score HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"2\r\n{}\r\n0\r\n\r\n",
}


class TestProtocolErrors:
    @pytest.mark.parametrize("raw", list(UNPARSABLE.values()), ids=list(UNPARSABLE))
    def test_unparsable_request_gets_typed_400_then_close(self, address, raw):
        with _Conn(address) as conn:
            conn.send(raw)
            status, headers, body = conn.read_reply()
            assert status == 400
            assert headers["content-type"] == "application/json"
            assert headers["connection"] == "close"
            reply = json.loads(body)
            assert reply["type"] == "BadRequestError"
            assert reply["error"]
            assert conn.closed_by_server()
        assert _health_ok(address)

    def test_cap_is_64_kib(self):
        assert MAX_HEAD_BYTES == 64 * 1024

    @pytest.mark.parametrize("partial", [b"GET /health HTTP/1.1\r\nHo", b"", b"G"],
                             ids=["mid-headers", "nothing", "mid-request-line"])
    def test_client_hanging_up_mid_head_leaves_the_server_answering(self, address, partial):
        with _Conn(address) as conn:
            conn.send(partial)
        assert _health_ok(address)

    def test_client_hanging_up_mid_body_leaves_the_server_answering(self, address):
        with _Conn(address) as conn:
            conn.send(_score_head(b'{"user": 0, "items": [1, 2]}') + b'{"user"')
        assert _health_ok(address)


class TestKeepAlive:
    def test_pipelined_requests_get_replies_in_order(self, address, service):
        with _Conn(address) as conn:
            conn.send(_get("/recommend?user=1&k=3") + _get("/recommend?user=2&k=4")
                      + _get("/health"))
            replies = [conn.read_reply() for _ in range(3)]
        assert [status for status, _, _ in replies] == [200, 200, 200]
        first, second, health = (json.loads(body) for _, _, body in replies)
        for reply, user, k in ((first, 1, 3), (second, 2, 4)):
            items, scores = service.recommend(user, k)
            assert (reply["user"], reply["k"]) == (user, k)
            assert reply["items"] == [int(i) for i in items]
            assert reply["scores"] == [float(s) for s in scores]
        assert health["status"] == "ok"
        assert all("connection" not in headers for _, headers, _ in replies)

    def test_one_connection_serves_many_requests(self, address):
        with _Conn(address) as conn:
            for user in range(20):
                conn.send(_get(f"/recommend?user={user % 8}&k=2"))
                status, _, body = conn.read_reply()
                assert (status, json.loads(body)["user"]) == (200, user % 8)

    def test_connection_close_closes_after_the_reply(self, address):
        with _Conn(address) as conn:
            conn.send(_get("/health", "Connection: close\r\n"))
            status, headers, _ = conn.read_reply()
            assert status == 200
            assert headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_http10_closes_after_the_reply(self, address):
        with _Conn(address) as conn:
            conn.send(_get("/health", version="HTTP/1.0"))
            status, headers, _ = conn.read_reply()
            assert status == 200
            assert headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_http10_keep_alive_keeps_the_connection(self, address):
        with _Conn(address) as conn:
            for _ in range(2):
                conn.send(_get("/health", "Connection: keep-alive\r\n", version="HTTP/1.0"))
                status, headers, _ = conn.read_reply()
                assert status == 200
                assert "connection" not in headers

    def test_a_404_post_body_is_consumed_so_the_next_request_parses(self, address):
        with _Conn(address) as conn:
            conn.send(b"POST /nope HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\r\n{}"
                      + _get("/health"))
            assert conn.read_reply()[0] == 404
            assert conn.read_reply()[0] == 200


class TestBodies:
    BODY = json.dumps({"user": 3, "items": list(range(40))}).encode("utf-8")

    def _expect_scores(self, service, body: bytes) -> None:
        reply = json.loads(body)
        assert reply["items"] == list(range(40))
        assert reply["scores"] == [float(s) for s in service.score(3, list(range(40)))]

    def test_expect_100_continue_gets_continue_then_the_reply(self, address, service):
        with _Conn(address) as conn:
            conn.send(_score_head(self.BODY, "Expect: 100-continue\r\n"))
            interim, headers = conn.read_head()
            assert interim == "HTTP/1.1 100 Continue"
            assert headers == {}
            conn.send(self.BODY)
            status, _, body = conn.read_reply()
        assert status == 200
        self._expect_scores(service, body)

    def test_body_split_over_several_sends_is_read_whole(self, address, service):
        with _Conn(address) as conn:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.send(_score_head(self.BODY))
            for start in range(0, len(self.BODY), 50):
                time.sleep(0.01)
                conn.send(self.BODY[start:start + 50])
            status, _, body = conn.read_reply()
        assert status == 200
        self._expect_scores(service, body)

    def test_head_split_over_several_sends_is_read_whole(self, address):
        raw = _get("/recommend?user=5&k=3")
        with _Conn(address) as conn:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start in range(0, len(raw), 7):
                time.sleep(0.005)
                conn.send(raw[start:start + 7])
            status, _, body = conn.read_reply()
        assert (status, json.loads(body)["k"]) == (200, 3)


class TestReplyHeaders:
    def test_every_reply_carries_date_and_its_body_length(self, address):
        score = json.dumps({"user": 0, "items": [0, 1]}).encode("utf-8")
        requests = [
            _get("/health"),
            _get("/stats"),
            _get("/recommend?user=0&k=5"),
            _get("/recommend?user=-1"),  # 400
            _get("/nope"),  # 404
            _score_head(score) + score,
        ]
        with _Conn(address) as conn:
            for raw in requests:
                conn.send(raw)
                status, headers, body = conn.read_reply()
                assert status in (200, 400, 404)
                assert int(headers["content-length"]) == len(body)
                assert headers["content-type"] == "application/json"
                assert IMF_DATE.fullmatch(headers["date"]), headers["date"]
                sent = parsedate_to_datetime(headers["date"]).timestamp()
                assert abs(sent - time.time()) < 5
                json.loads(body)
