"""The open-loop load generator against a stdlib stub server."""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from loadgen import Schedule, poisson_arrivals, run_schedule, summary

HANDLER_S = 0.002


@contextmanager
def stub_server(fail_every: int = 0):
    """Answers every GET after ``HANDLER_S``; every ``fail_every``-th with a 500."""
    counter = {"n": 0, "ports": set()}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def do_GET(self):  # noqa: N802 (stdlib naming)
            time.sleep(HANDLER_S)
            with lock:
                counter["n"] += 1
                counter["ports"].add(self.client_address[1])
                code = 500 if fail_every and counter["n"] % fail_every == 0 else 200
            body = b"{}"
            self.send_response(code)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[:2], counter
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def schedule(rate: float, seconds: float, seed: int = 0) -> Schedule:
    due = poisson_arrivals(rate, seconds, np.random.default_rng(seed))
    return Schedule(due, ["/x"] * len(due))


def test_schedule_is_seeded_and_poisson():
    a = poisson_arrivals(500.0, 4.0, np.random.default_rng(7))
    b = poisson_arrivals(500.0, 4.0, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) >= 0) and a.min() >= 0 and a.max() < 4.0
    assert abs(len(a) - 2000) < 5 * np.sqrt(2000)


def test_latency_is_measured_from_due_time_and_covers_the_handler():
    with stub_server() as (address, _):
        outcome = run_schedule(address, schedule(100.0, 1.0), connections=2)
    result = summary(outcome)
    assert result["failed"] == 0 and result["sent"] == result["ok"] > 50
    assert result["p50_ms"] >= HANDLER_S * 1e3
    assert np.all(outcome.latency_ms >= outcome.lateness_ms)
    assert result["backlog_ms"] < 10.0


def test_overload_builds_a_backlog():
    # Two connections at 2 ms per request cannot answer 3000 requests/s.
    with stub_server() as (address, _):
        outcome = run_schedule(address, schedule(3000.0, 1.0), connections=2)
    result = summary(outcome)
    assert result["backlog_ms"] > 100.0
    assert result["p99_ms"] > result["backlog_ms"]


def test_failures_are_counted_not_dropped():
    with stub_server(fail_every=100) as (address, _):
        outcome = run_schedule(address, schedule(400.0, 2.0), connections=2)
    result = summary(outcome)
    assert result["sent"] == len(outcome.schedule)
    assert result["failed"] / result["sent"] == pytest.approx(0.01, abs=0.003)


def test_socket_errors_count_as_failures():
    with stub_server() as (address, _):
        pass  # closed: nothing listens on the port any more
    outcome = run_schedule(address, schedule(50.0, 0.5), connections=2, timeout=1.0)
    result = summary(outcome)
    assert result["sent"] > 0 and result["failed"] == result["sent"]


def test_connections_never_exceed_cpu_count():
    with stub_server() as (address, counter):
        run_schedule(address, schedule(200.0, 0.5), connections=64)
    assert 1 <= len(counter["ports"]) <= (os.cpu_count() or 1)
