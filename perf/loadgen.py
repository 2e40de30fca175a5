"""Open-loop HTTP load generator.

Requests follow a precomputed, seeded Poisson schedule: the arrival times
are fixed before the first request is sent, so a slow server receives the
same load as a fast one (an open loop), unlike a closed loop whose clients
wait for each reply before sending the next request.

A small, fixed set of keep-alive connection threads (at most
``os.cpu_count()``) sends the schedule in order.  A request whose due time
passes while every connection is busy is sent late, and its latency is
still measured from its *due* time, so a stall is charged to every request
it delays.  How late the generator ran is reported as lateness; the mean
lateness over the last tenth of a phase is the backlog, which grows when
the offered rate exceeds what the server can answer.

Failures (a non-200 status, a socket error or a timeout) are counted
against the requests attempted and never dropped from the record.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["Schedule", "Outcome", "poisson_arrivals", "run_schedule", "summary"]


@dataclass
class Schedule:
    """Requests to send: due offsets (seconds from the start) and paths."""

    due: np.ndarray
    paths: list[str]

    def __len__(self) -> int:
        return len(self.paths)


def poisson_arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival offsets of a Poisson process of ``rate`` per second."""
    n = rng.poisson(rate * seconds)
    return np.sort(rng.uniform(0.0, seconds, size=n))


@dataclass
class Outcome:
    """Per-request record of one :func:`run_schedule` call (monotonic seconds)."""

    schedule: Schedule
    start: float
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray  # HTTP status; 0 for a socket error or timeout

    @property
    def due_abs(self) -> np.ndarray:
        return self.start + self.schedule.due

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due_abs) * 1e3

    @property
    def lateness_ms(self) -> np.ndarray:
        return (self.sent - self.due_abs) * 1e3

    @property
    def ok(self) -> np.ndarray:
        return self.status == 200


def run_schedule(
    address: tuple[str, int],
    schedule: Schedule,
    connections: int = 2,
    timeout: float = 5.0,
    start: float | None = None,
) -> Outcome:
    """Send ``schedule`` to ``address`` over ``connections`` keep-alive threads.

    Each thread takes the next unsent request, sleeps until it is due and
    sends it, so requests leave in schedule order and a busy pool makes
    the next one late rather than skipping it.  Due offsets count from
    ``start`` (``time.monotonic()`` seconds; default: 50 ms from now).
    """
    connections = max(1, min(int(connections), os.cpu_count() or 1))
    host, port = address
    n = len(schedule)
    sent = np.zeros(n)
    done = np.zeros(n)
    status = np.zeros(n, dtype=np.int64)
    cursor = iter(range(n))
    lock = threading.Lock()
    if start is None:
        start = time.monotonic() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                wait = start + schedule.due[i] - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent[i] = time.monotonic()
                try:
                    conn.request("GET", schedule.paths[i])
                    response = conn.getresponse()
                    response.read()
                    status[i] = response.status
                except (http.client.HTTPException, OSError):
                    status[i] = 0
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                done[i] = time.monotonic()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Outcome(schedule, start, sent, done, status)


def summary(outcome: Outcome) -> dict:
    """Latency percentiles of successful requests, lateness, backlog, failures.

    ``backlog_ms`` is the mean lateness of the last tenth of the requests;
    a generator that keeps up reads near zero.
    """
    sent = len(outcome.schedule)
    ok = outcome.ok
    latency = outcome.latency_ms[ok]
    lateness = outcome.lateness_ms
    tail = lateness[int(0.9 * sent):]
    p50, p90, p99 = np.percentile(latency, [50, 90, 99]) if len(latency) else (None,) * 3
    return {
        "sent": sent,
        "ok": int(ok.sum()),
        "failed": int(sent - ok.sum()),
        "p50_ms": None if p50 is None else float(p50),
        "p90_ms": None if p90 is None else float(p90),
        "p99_ms": None if p99 is None else float(p99),
        "mean_ms": float(latency.mean()) if len(latency) else None,
        "lateness_p99_ms": float(np.percentile(lateness, 99)) if sent else None,
        "backlog_ms": float(tail.mean()) if len(tail) else None,
    }
