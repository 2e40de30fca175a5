"""A stdlib JSON endpoint over :class:`RecommenderService`.

No web framework — ``http.server`` from the standard library, threaded so
concurrent clients do not serialise behind one socket.  Routes:

* ``GET  /health``      → ``{"status": "ok", "model": ..., "schema": ...}``
* ``GET  /stats``       → the service's :meth:`stats` snapshot
* ``GET  /recommend?user=U&k=K&exclude_seen=1`` → top-K items + scores
* ``POST /score``       → body ``{"user": U, "items": [...]}`` → scores

Handlers speak HTTP/1.1 with explicit ``Content-Length``, so load
clients and the shard router hold keep-alive connections instead of
paying a TCP handshake per request.

Error contract: every :class:`ServeError` subclass carries its own HTTP
status (``errors.py``) and is rendered as ``{"error": ..., "type":
<class name>}`` — ``BadRequestError`` → 400, ``ShardRoutingError`` → 421,
``UnknownScoreFnError`` → 501, ``ArtifactError``/``SchemaMismatchError``
→ 503, anything else typed → 500.  Unknown paths return 404.  The server
never dies on a request error.

Bounded serving (``max_requests=N``) exists for smoke tests and CI: the
server counts *completed responses* — the counter moves only after the
reply bytes are handed to the socket — and sets :attr:`drained` when the
budget is spent.  The owner then calls ``shutdown()`` +
``server_close()``; handler threads are non-daemon in bounded mode, so
``server_close`` joins them and the final in-flight response is always
fully written before the process exits (the regression suite in
``tests/test_serve_http.py`` pins this; counting *accepted connections*
instead — the old behaviour — raced exactly that last reply).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..utils import get_logger
from .artifact import MODEL_SCHEMA
from .errors import BadRequestError, ServeError

__all__ = [
    "MAX_BODY_BYTES",
    "JSONHTTPServer",
    "JSONRequestHandler",
    "ServiceHTTPServer",
    "create_server",
    "serve_until_drained",
]

logger = get_logger("repro.serve.http")

# Largest POST body read (8 MiB, ~900k item ids in a /score call).  The
# length is checked before reading: a buffered read(n) allocates n bytes
# up front, and a negative n would read until the peer closes.
MAX_BODY_BYTES = 8 * 1024 * 1024

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


class JSONHTTPServer(ThreadingHTTPServer):
    """Threaded JSON server with completed-response accounting.

    Base for the single-service endpoint and the shard router.  With
    ``max_requests > 0`` the server runs *bounded*: handler threads are
    joined on close, keep-alive is disabled (each connection carries one
    response, so no idle thread can stall the drain), and
    :attr:`drained` fires once the Nth response has been written.
    """

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients overflows it and the dropped SYNs retry after ~1s, which
    # reads as a huge latency tail.  128 absorbs any realistic burst.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], handler, max_requests: int = 0):
        super().__init__(address, handler)
        self.max_requests = max(int(max_requests), 0)
        self.drained = threading.Event()
        self._served_lock = threading.Lock()
        self._served = 0
        if self.bounded:
            # Non-daemon handler threads: server_close() joins the final
            # in-flight reply instead of racing it at interpreter exit.
            self.daemon_threads = False

    @property
    def bounded(self) -> bool:
        return self.max_requests > 0

    @property
    def requests_served(self) -> int:
        with self._served_lock:
            return self._served

    def note_response_written(self) -> None:
        """Called by handlers after a response body is handed to the socket."""
        with self._served_lock:
            self._served += 1
            if self.bounded and self._served >= self.max_requests:
                self.drained.set()


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Shared plumbing: JSON replies, typed error mapping, drain accounting."""

    server: JSONHTTPServer
    protocol_version = "HTTP/1.1"
    timeout = 30  # a stalled peer cannot wedge a handler thread forever
    # Headers and body go out as separate writes on a keep-alive socket;
    # without TCP_NODELAY, Nagle holds the body until the header segment
    # is ACKed and every response eats a ~40ms delayed-ACK stall.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 (stdlib signature)
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_body(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.server.bounded:
            # One response per connection in bounded mode: the handler
            # thread exits right after this reply, so the drain join in
            # server_close() never waits on an idle keep-alive socket.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        self.server.note_response_written()

    def _reply(self, code: int, payload: dict) -> None:
        self._send_body(code, json.dumps(payload).encode("utf-8"), "application/json")

    def _reply_raw(self, code: int, body: bytes, content_type: str = "application/json") -> None:
        """Pass an upstream response through unchanged (router proxying)."""
        self._send_body(code, body, content_type)

    def _guarded(self, handler) -> None:
        try:
            code, payload = handler()
        except ServeError as exc:
            code = exc.http_status
            payload = {"error": str(exc), "type": type(exc).__name__}
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("unhandled serving error")
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(code, payload)

    def _read_json_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            raise BadRequestError("invalid Content-Length header") from exc
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True  # the unread body would desync keep-alive
            raise BadRequestError(
                f"Content-Length must be between 0 and {MAX_BODY_BYTES} bytes, got {length}"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
        return body


class ServiceHTTPServer(JSONHTTPServer):
    """Threaded HTTP server bound to one recommend/score service."""

    def __init__(self, address: tuple[str, int], service, max_requests: int = 0):
        super().__init__(address, _Handler, max_requests)
        self.service = service


class _Handler(JSONRequestHandler):
    server: ServiceHTTPServer

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlparse(self.path)
        if url.path == "/health":
            self._guarded(self._health)
        elif url.path == "/stats":
            self._guarded(lambda: (200, self.server.service.stats()))
        elif url.path == "/recommend":
            self._guarded(lambda: self._recommend(parse_qs(url.query)))
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlparse(self.path)
        if url.path == "/score":
            self._guarded(self._score)
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    # ------------------------------------------------------------------
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

    def _recommend(self, query: dict[str, list[str]]) -> tuple[int, dict]:
        if "user" not in query:
            raise BadRequestError("missing required query parameter 'user'")
        user = _parse_int(query["user"][0], "user")
        k = _parse_int(query["k"][0], "k") if "k" in query else 10
        exclude_seen = (
            _parse_bool(query["exclude_seen"][0], "exclude_seen")
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

    def _score(self) -> tuple[int, dict]:
        body = self._read_json_body()
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
    """Bind a threaded JSON server to ``(host, port)`` (0 = ephemeral port).

    The caller owns the lifecycle: ``serve_forever()`` to serve,
    ``shutdown()`` + ``server_close()`` to stop — or
    :func:`serve_until_drained` for bounded runs.
    ``server.server_address`` carries the bound port.
    """
    return ServiceHTTPServer((host, port), service, max_requests=max_requests)


def serve_until_drained(server: JSONHTTPServer) -> None:
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
