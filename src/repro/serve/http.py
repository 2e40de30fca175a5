"""A JSON endpoint over :class:`RecommenderService` on a small HTTP/1.1 layer.

No web framework and no ``http.server``: a ``socketserver``
thread-per-connection TCP server with its own request reader and reply
writer, written for the four routes below.  Routes:

* ``GET  /health``      → ``{"status": "ok", "model": ..., "schema": ...}``
* ``GET  /stats``       → the service's :meth:`stats` snapshot
* ``GET  /recommend?user=U&k=K&exclude_seen=1`` → top-K items + scores
* ``POST /score``       → body ``{"user": U, "items": [...]}`` → scores

Wire rules:

* The request line and headers (lines ending in CRLF) are read into one
  receive buffer and must fit in :data:`MAX_HEAD_BYTES` (64 KiB).  A body
  is framed by ``Content-Length`` only, which must lie in
  ``[0, MAX_BODY_BYTES]``; it is checked before any of the body is read.
* Connections are kept alive: an HTTP/1.1 client keeps its connection
  until it sends ``Connection: close``, an HTTP/1.0 client only when it
  sends ``Connection: keep-alive``.  Pipelined requests are answered in
  order, and ``Expect: 100-continue`` gets ``100 Continue`` before the
  body is read.
* Each reply (status line, ``Content-Type``, ``Content-Length``, a
  ``Date`` formatted at most once a second, ``Connection: close`` when
  the server closes after it, and the body) goes out in one ``sendall``.
* A request the reader cannot parse (no HTTP/1.x version, a header line
  without a colon, a head over the cap, a bad ``Content-Length``, a
  chunked body, a method other than GET or POST) gets a 400 with the
  typed JSON body below, and the connection is closed.

Error contract: every :class:`ServeError` subclass carries its own HTTP
status (``errors.py``) and is rendered as ``{"error": ..., "type":
<class name>}`` — ``BadRequestError`` → 400, ``UnknownScoreFnError`` →
501, ``ArtifactError``/``SchemaMismatchError`` → 503, anything else
typed → 500.  Unknown paths return 404.  The server never dies on a
request error.

Bounded serving (``max_requests=N``) exists for smoke tests and CI: the
server counts *completed responses* — the counter moves only after the
reply bytes are handed to the socket — and sets :attr:`drained` when the
budget is spent.  The owner then calls ``shutdown()`` +
``server_close()``; handler threads are non-daemon in bounded mode, so
``server_close`` joins them and the final in-flight response is always
fully written before the process exits (``TestBoundedDrain`` in
``tests/test_serve_pool.py`` pins this; counting *accepted connections*
instead — the old behaviour — raced exactly that last reply).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from urllib.parse import unquote

from ..utils import get_logger
from .artifact import MODEL_SCHEMA
from .errors import BadRequestError, ServeError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "ServiceHTTPServer",
    "create_server",
    "serve_until_drained",
]

logger = get_logger("repro.serve.http")

# Largest POST body read (8 MiB, ~900k item ids in a /score call).  The
# length is checked before reading: the body buffer is allocated up front.
MAX_BODY_BYTES = 8 * 1024 * 1024
# Largest request line plus headers; also the size of one receive.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_CLOSE = "Connection: close\r\n"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str, name: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise BadRequestError(f"{name} must be a boolean flag, got {raw!r}")


def _parse_int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise BadRequestError(f"{name} must be an integer, got {raw!r}") from exc


def _parse_query(query: str) -> dict[str, str]:
    """First value of each query parameter, as ``urllib.parse.parse_qs`` reads it.

    ``&``-separated ``name=value`` pairs, ``+`` as a space, percent-escapes
    decoded; a pair without ``=`` or with an empty value is skipped.
    """
    params: dict[str, str] = {}
    for pair in query.split("&"):
        name, sep, value = pair.partition("=")
        if sep and value:
            params.setdefault(unquote(name.replace("+", " ")), unquote(value.replace("+", " ")))
    return params


def _typed_error(exc: ServeError) -> dict:
    return {"error": str(exc), "type": type(exc).__name__}


def _http_date(now: int) -> str:
    """An RFC 9110 ``Date`` value (IMF-fixdate) for ``now`` seconds since the epoch."""
    t = time.gmtime(now)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Request:
    """One parsed request head: what routing and framing need."""

    __slots__ = ("method", "path", "query", "length", "expect_continue", "close")

    def __init__(self, head: str):
        line, _, rest = head.partition("\r\n")
        words = line.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise BadRequestError(f"malformed request line {line[:200]!r}")
        method, target, version = words
        if method not in ("GET", "POST"):
            raise BadRequestError(f"unsupported method {method[:20]!r}")
        headers: dict[str, str] = {}
        for field in rest.split("\r\n") if rest else ():
            name, sep, value = field.partition(":")
            if not sep:
                raise BadRequestError(f"malformed header line {field[:200]!r}")
            headers.setdefault(name.strip().lower(), value.strip())
        if "transfer-encoding" in headers:
            raise BadRequestError("chunked request bodies are not supported; send Content-Length")
        try:
            length = int(headers.get("content-length", 0))
        except ValueError as exc:
            raise BadRequestError("invalid Content-Length header") from exc
        if not 0 <= length <= MAX_BODY_BYTES:
            raise BadRequestError(
                f"Content-Length must be between 0 and {MAX_BODY_BYTES} bytes, got {length}"
            )
        tokens = {token.strip() for token in headers.get("connection", "").lower().split(",")}
        self.method = method
        self.path, _, self.query = target.partition("?")
        self.length = length
        self.expect_continue = (
            version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue"
        )
        self.close = "close" in tokens or (version == "HTTP/1.0" and "keep-alive" not in tokens)


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection JSON server bound to one recommend/score service.

    With ``max_requests > 0`` the server runs *bounded*: handler threads
    are joined on close, keep-alive is disabled (each connection carries
    one response, so no idle thread can stall the drain), and
    :attr:`drained` fires once the Nth response has been written.
    """

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients overflows it and the dropped SYNs retry after ~1s, which
    # reads as a huge latency tail.  128 absorbs any realistic burst.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service, max_requests: int = 0):
        self.service = service
        self.max_requests = max(int(max_requests), 0)
        self.drained = threading.Event()
        self._served_lock = threading.Lock()
        self._served = 0
        self._date = (0, "")
        if self.bounded:
            # Non-daemon handler threads: server_close() joins the final
            # in-flight reply instead of racing it at interpreter exit.
            self.daemon_threads = False
        super().__init__(address, _Handler)

    @property
    def bounded(self) -> bool:
        return self.max_requests > 0

    @property
    def requests_served(self) -> int:
        with self._served_lock:
            return self._served

    def note_response_written(self) -> None:
        """Called by handlers after a response is handed to the socket."""
        with self._served_lock:
            self._served += 1
            if self.bounded and self._served >= self.max_requests:
                self.drained.set()

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once a second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = _http_date(now)
            self._date = (now, text)
        return text


class _Handler(socketserver.BaseRequestHandler):
    """Reads requests off one connection and answers each with one write."""

    server: ServiceHTTPServer
    request: socket.socket
    timeout = 30  # a stalled peer cannot wedge a handler thread forever

    def handle(self) -> None:
        sock = self.request
        sock.settimeout(self.timeout)
        # Replies are one write each, but a pipelined client would still
        # wait out Nagle's ~40 ms on the second reply without this.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the peer reset, hung up or timed out: nothing left to answer

    # ------------------------------------------------------------------
    def _serve_one(self) -> bool:
        """Read and answer one request; whether to keep the connection open."""
        try:
            head = self._read_head()
            if head is None:
                return False
            request = _Request(head)
        except BadRequestError as exc:
            self._reply(exc.http_status, _typed_error(exc), close=True)
            return False
        if request.expect_continue and len(self._buf) < request.length:
            self.request.sendall(_CONTINUE)
        body = self._read_body(request.length)
        if body is None:
            return False
        close = request.close or self.server.bounded
        code, payload = self._guarded(request, body)
        self._reply(code, payload, close)
        return not close

    def _read_head(self) -> str | None:
        """The next request line and headers, or None if the peer hung up first."""
        buf = self._buf
        start = 0
        while True:
            end = buf.find(b"\r\n\r\n", start)
            if end > MAX_HEAD_BYTES or (end < 0 and len(buf) >= MAX_HEAD_BYTES):
                raise BadRequestError(f"request head is larger than {MAX_HEAD_BYTES} bytes")
            if end >= 0:
                head = buf[:end].decode("latin-1")
                del buf[:end + 4]
                return head
            start = max(len(buf) - 3, 0)
            chunk = self.request.recv(MAX_HEAD_BYTES)
            if not chunk:
                return None
            buf += chunk

    def _read_body(self, length: int) -> bytes | None:
        """``length`` bytes of body, or None if the peer hung up first."""
        buf = self._buf
        while len(buf) < length:
            chunk = self.request.recv(max(length - len(buf), MAX_HEAD_BYTES))
            if not chunk:
                return None
            buf += chunk
        body = bytes(buf[:length])
        del buf[:length]
        return body

    def _reply(self, code: int, payload: dict, close: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {_REASONS.get(code, '')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Date: {self.server.http_date()}\r\n"
            f"{_CLOSE if close else ''}\r\n"
        )
        self.request.sendall(head.encode("latin-1") + body)
        self.server.note_response_written()

    # ------------------------------------------------------------------
    def _guarded(self, request: _Request, body: bytes) -> tuple[int, dict]:
        try:
            return self._route(request, body)
        except ServeError as exc:
            return exc.http_status, _typed_error(exc)
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("unhandled serving error")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _route(self, request: _Request, body: bytes) -> tuple[int, dict]:
        path = request.path
        if request.method == "GET":
            if path == "/recommend":
                return self._recommend(_parse_query(request.query))
            if path == "/health":
                return self._health()
            if path == "/stats":
                return 200, self.server.service.stats()
        elif path == "/score":
            return self._score(body)
        return 404, {"error": f"unknown path {path!r}"}

    def _health(self) -> tuple[int, dict]:
        service = self.server.service
        return 200, {
            "status": "ok",
            "schema": MODEL_SCHEMA,
            "model": service.artifact.model_name,
            "score_fn": service.artifact.score_fn,
            "n_users": service.n_users,
            "n_items": service.n_items,
        }

    def _recommend(self, query: dict[str, str]) -> tuple[int, dict]:
        if "user" not in query:
            raise BadRequestError("missing required query parameter 'user'")
        user = _parse_int(query["user"], "user")
        k = _parse_int(query["k"], "k") if "k" in query else 10
        exclude_seen = (
            _parse_bool(query["exclude_seen"], "exclude_seen")
            if "exclude_seen" in query
            else True
        )
        items, scores = self.server.service.recommend(user, k, exclude_seen=exclude_seen)
        return 200, {
            "user": user,
            "k": int(len(items)),
            "exclude_seen": exclude_seen,
            "items": [int(i) for i in items],
            "scores": [float(s) for s in scores],
        }

    def _score(self, raw: bytes) -> tuple[int, dict]:
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict) or "user" not in body or "items" not in body:
            raise BadRequestError("body must be a JSON object with 'user' and 'items'")
        scores = self.server.service.score(body["user"], body["items"])
        return 200, {
            "user": int(body["user"]),
            "items": [int(i) for i in body["items"]],
            "scores": [float(s) for s in scores],
        }


def create_server(
    service, host: str = "127.0.0.1", port: int = 0, max_requests: int = 0
) -> ServiceHTTPServer:
    """Bind a thread-per-connection JSON server to ``(host, port)`` (0 = ephemeral port).

    The caller owns the lifecycle: ``serve_forever()`` to serve,
    ``shutdown()`` + ``server_close()`` to stop — or
    :func:`serve_until_drained` for bounded runs.
    ``server.server_address`` carries the bound port.
    """
    return ServiceHTTPServer((host, port), service, max_requests=max_requests)


def serve_until_drained(server: ServiceHTTPServer) -> None:
    """Serve a bounded server until its request budget is spent, then drain.

    Runs ``serve_forever`` on a helper thread, waits for :attr:`drained`,
    stops accepting, and joins every handler thread via ``server_close``
    — so the caller returns only after the final response hit the wire.
    The caller must have built the server with ``max_requests > 0``.
    """
    if not server.bounded:
        raise ValueError("serve_until_drained requires a server with max_requests > 0")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        server.drained.wait()
    finally:
        server.shutdown()
        thread.join(timeout=30)
