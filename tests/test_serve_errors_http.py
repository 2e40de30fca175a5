"""Typed serving errors → HTTP status codes, class by class.

Every :class:`ServeError` subclass carries an ``http_status`` and the
endpoint must render it as ``{"error": ..., "type": <class name>}`` with
that code — clients dispatch on the type, monitors on the status class
(4xx caller bug vs 5xx serving trouble).  Tested generically with a stub
service that raises each class on demand, plus the real integration
paths for the codes a production client will actually meet (400 bad
request, 421 misrouted shard).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.serve import RecommenderService, create_router, create_server, export_payload
from repro.serve.errors import (
    ArtifactError,
    BadRequestError,
    SchemaMismatchError,
    ServeError,
    ShardRoutingError,
    UnknownScoreFnError,
)

ERROR_CLASSES = [
    (ServeError, 500),
    (ArtifactError, 503),
    (SchemaMismatchError, 503),
    (UnknownScoreFnError, 501),
    (BadRequestError, 400),
    (ShardRoutingError, 421),
]


class TestStatusAttributes:
    @pytest.mark.parametrize("exc_class,expected", ERROR_CLASSES)
    def test_every_class_carries_its_status(self, exc_class, expected):
        assert exc_class.http_status == expected
        assert exc_class("boom").http_status == expected

    def test_unlisted_subclass_inherits_500(self):
        class CustomServingProblem(ServeError):
            pass

        assert CustomServingProblem.http_status == 500

    def test_hierarchy_is_catchable_as_serve_error(self):
        for exc_class, _ in ERROR_CLASSES:
            assert issubclass(exc_class, ServeError)


class _RaisingService:
    """Stub with the service surface; every request raises a chosen error."""

    class _Artifact:
        model_name = "Stub"
        score_fn = "dense"

    artifact = _Artifact()
    n_users = 5
    n_items = 5

    def __init__(self, exc: Exception):
        self.exc = exc

    def recommend(self, user, k=10, exclude_seen=True):
        raise self.exc

    def score(self, user, items):
        raise self.exc

    def stats(self):
        raise self.exc


def _serve(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(base: tuple[str, int], method: str, path: str, body=None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*base, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _get(base: tuple[str, int], path: str) -> tuple[int, dict]:
    return _request(base, "GET", path)


def _score_with_length(base: tuple[str, int], length: int) -> tuple[int, dict]:
    """``POST /score`` over a raw socket with a hand-written Content-Length and no body."""
    with socket.create_connection(base, timeout=5) as sock:
        sock.sendall(
            f"POST /score HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read().decode("utf-8"))


class TestWireMapping:
    @pytest.mark.parametrize("exc_class,expected", ERROR_CLASSES)
    def test_each_error_class_maps_to_its_code(self, exc_class, expected):
        server, thread = _serve(_RaisingService(exc_class("deliberate failure")))
        try:
            base = server.server_address[:2]
            for path in ("/recommend?user=0&k=3", "/stats"):
                status, body = _get(base, path)
                assert status == expected, (path, body)
                assert body["type"] == exc_class.__name__
                assert "deliberate failure" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_server_survives_the_whole_error_menu(self):
        """One server, every error class in sequence, still healthy after."""
        service = _RaisingService(ServeError("x"))
        server, thread = _serve(service)
        try:
            base = server.server_address[:2]
            for exc_class, expected in ERROR_CLASSES:
                service.exc = exc_class("rotating failure")
                status, body = _get(base, "/recommend?user=0")
                assert (status, body["type"]) == (expected, exc_class.__name__)
            status, _ = _get(base, "/health")  # health reads only the artifact stub
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


@pytest.fixture(scope="module")
def real_base(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(41)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("errors") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    service = RecommenderService(path, shard=(0, 4))
    server, thread = _serve(service)
    yield server.server_address[:2], service
    _stop(server, thread)


GOLDEN = Path(__file__).parent / "fixtures" / "serve" / "golden_model.npz"

# /score bodies whose ids are not int64 integers: each used to be either
# an untyped 500 (OverflowError) or silently truncated to a valid id.
BAD_SCORE_IDS = {
    "item-beyond-int64": {"user": 0, "items": [2**63]},
    "fractional-ids": {"user": 1.7, "items": [0.9, 2.5]},
    "bool-user": {"user": True, "items": [0]},
}


@pytest.fixture(scope="module")
def golden_fronts():
    """The golden artifact on a single-process server and on a router in front of it."""
    server, thread = _serve(RecommenderService(GOLDEN))
    router = create_router([server.server_address[:2]], n_shards=1)
    router_thread = threading.Thread(target=router.serve_forever, daemon=True)
    router_thread.start()
    yield {"single": server.server_address[:2], "router": router.server_address[:2]}
    _stop(router, router_thread)
    _stop(server, thread)


class TestRealPaths:
    def test_bad_request_paths_are_400(self, real_base):
        base, _ = real_base
        for path in (
            "/recommend",  # missing user
            "/recommend?user=abc",
            "/recommend?user=0&k=zero",
            "/recommend?user=0&k=5&exclude_seen=maybe",
            "/recommend?user=999999",
        ):
            status, body = _get(base, path)
            assert status == 400, (path, body)
            assert body["type"] == "BadRequestError"

    @pytest.mark.parametrize("body", list(BAD_SCORE_IDS.values()), ids=list(BAD_SCORE_IDS))
    def test_bad_score_ids_are_400_on_both_front_ends(self, golden_fronts, body):
        for front, base in golden_fronts.items():
            status, reply = _request(base, "POST", "/score", body)
            assert (status, reply.get("type")) == (400, "BadRequestError"), (front, reply)

    @pytest.mark.parametrize("length", [-1, 10**15], ids=["negative", "beyond-max"])
    def test_out_of_range_content_length_is_400_on_both_front_ends(self, golden_fronts, length):
        # A negative length used to hold the handler until the socket timed
        # out; a huge one allocated it up front (500 MemoryError).
        for front, base in golden_fronts.items():
            status, reply = _score_with_length(base, length)
            assert (status, reply.get("type")) == (400, "BadRequestError"), (front, reply)
            assert _get(base, "/health")[0] == 200, front

    def test_misrouted_user_is_421_on_the_wire(self, real_base):
        from repro.serve import shard_for_user

        base, service = real_base
        foreign = next(
            u for u in range(service.n_users) if shard_for_user(u, 4) != 0
        )
        status, body = _get(base, f"/recommend?user={foreign}&k=3")
        assert status == 421
        assert body["type"] == "ShardRoutingError"
        owned = next(
            u for u in range(service.n_users) if shard_for_user(u, 4) == 0
        )
        status, _ = _get(base, f"/recommend?user={owned}&k=3")
        assert status == 200

    def test_unknown_route_stays_404(self, real_base):
        base, _ = real_base
        status, body = _get(base, "/nonsense")
        assert status == 404
        assert "unknown path" in body["error"]
