"""Served load loops, answer checks and the traced span breakdown.

The generator is one process with at most two connections and two
threads. Request lines are pre-encoded at generation time; only the
``id`` (and, in the traced run, the ``trace`` rider) is spliced in per
send, so client-side JSON encoding stays off the measured path.
Answers are kept and checked after the timed window.
"""

from __future__ import annotations

import contextlib
import gc
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .inputs import Query, wire_line
from .stats import Tally, self_times

#: Result fields that carry answers; everything else (batch size,
#: backend, timing) is metadata.
ANSWER_FIELDS = ("value", "quantized", "posteriors", "values")


class Wire:
    """One ndJSON connection to the server (TCP_NODELAY, blocking reads)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self._next_id = 1 << 40

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, payload: dict) -> dict:
        """One blocking request outside any load loop (warm-up, scrape)."""
        self._next_id += 1
        payload = dict(payload, id=self._next_id)
        self.send((json.dumps(payload) + "\n").encode("utf-8"))
        while True:
            response = json.loads(self.recv())
            if response.get("id") == self._next_id:
                return response

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()


@dataclass
class Record:
    """One answered request: which query, when, and what came back."""

    query: int
    due: float
    sent: float
    received: float
    response: dict

    @property
    def wall_us(self) -> float:
        return (self.received - self.sent) * 1e6

    @property
    def latency_us(self) -> float:
        """Client-observed latency, from the time the request was due."""
        return (self.received - self.due) * 1e6


@contextlib.contextmanager
def collector_paused():
    """Keep the generator's own garbage collection out of the timed window.

    The records kept for the answer check grow for the whole run; a full
    collection over them would stall the generator and show up as server
    latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def warm_up(wire: Wire, queries: Sequence[Query]) -> None:
    """Send one query of every (op, format) the workload uses, in turn."""
    seen = set()
    for query in queries:
        key = (query.op, query.fmt)
        if key in seen:
            continue
        seen.add(key)
        response = json.loads(_request_line(wire, query))
        if not response.get("ok"):
            raise RuntimeError(f"warm-up {key} failed: {response.get('error')}")


def _request_line(wire: Wire, query: Query) -> bytes:
    wire._next_id += 1
    wire.send(wire_line(query, wire._next_id))
    return wire.recv()


def closed_loop(
    wire: Wire,
    queries: Sequence[Query],
    order: Sequence[int],
    seconds: float,
    depth: int,
    trace: bool,
) -> tuple[list[Record], float]:
    """Keep ``depth`` requests in flight on one connection for ``seconds``.

    Returns the records and the wall time from the first send to the
    last answer (in-flight requests are drained, not dropped).
    """
    records: list[Record] = []
    inflight: dict[int, tuple[int, float]] = {}
    position = 0
    next_id = 0

    def send() -> None:
        nonlocal position, next_id
        index = order[position % len(order)]
        position += 1
        next_id += 1
        inflight[next_id] = (index, time.perf_counter())
        wire.send(wire_line(queries[index], next_id, trace))

    start = time.perf_counter()
    deadline = start + seconds
    for _ in range(depth):
        send()
    while inflight:
        line = wire.recv()
        now = time.perf_counter()
        response = json.loads(line)
        index, sent = inflight.pop(response["id"])
        records.append(Record(index, sent, sent, now, response))
        if now < deadline:
            send()
    return records, time.perf_counter() - start


def open_loop(
    wire: Wire,
    queries: Sequence[Query],
    offsets: np.ndarray,
    trace: bool,
    drain_timeout: float = 60.0,
) -> tuple[list[Record], list[float], float, int]:
    """Send on a fixed schedule regardless of answers; read on a thread.

    Returns the records, the generator lag of every send (µs late), the
    wall time from the schedule start to the last answer, and how many
    requests never got an answer.
    """
    count = len(offsets)
    sent_at: list[float] = [0.0] * count
    due_at: list[float] = [0.0] * count
    records: list[Record] = []
    failures: list[BaseException] = []

    def receive() -> None:
        try:
            while len(records) < count:
                line = wire.recv()
                now = time.perf_counter()
                response = json.loads(line)
                request_id = response["id"]
                records.append(
                    Record(
                        request_id % len(queries),
                        due_at[request_id],
                        sent_at[request_id],
                        now,
                        response,
                    )
                )
        except (OSError, ConnectionError, ValueError) as error:
            failures.append(error)

    receiver = threading.Thread(target=receive, name="perfbench-recv")
    start = time.perf_counter() + 0.01
    for request_id in range(count):
        due_at[request_id] = start + float(offsets[request_id])
    receiver.start()
    lags = []
    try:
        for request_id in range(count):
            due = due_at[request_id]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            now = time.perf_counter()
            sent_at[request_id] = now
            lags.append((now - due) * 1e6)
            wire.send(
                wire_line(queries[request_id % len(queries)], request_id, trace)
            )
    finally:
        receiver.join(timeout=drain_timeout)
        if receiver.is_alive():
            # Unblock the reader; the unanswered requests count as failed.
            wire.sock.shutdown(socket.SHUT_RDWR)
            receiver.join(timeout=10.0)
    end = max((record.received for record in records), default=start)
    return records, lags, end - start, count - len(records)


def theta_loop(
    host: str,
    port: int,
    queries: Sequence[Query],
    seconds: float,
    connections: int,
    depth: int,
    trace: bool,
) -> tuple[list[Record], float]:
    """``connections`` closed loops, one thread each, tiles interleaved."""
    results: list[tuple[list[Record], float] | BaseException] = [
        RuntimeError("loop did not finish")
    ] * connections
    wires = [Wire(host, port) for _ in range(connections)]

    def worker(slot: int) -> None:
        order = list(range(slot, len(queries), connections))
        try:
            results[slot] = closed_loop(
                wires[slot], queries, order, seconds, depth, trace
            )
        except (OSError, ConnectionError, ValueError, KeyError) as error:
            results[slot] = error

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"perfbench-tile{slot}")
        for slot in range(connections)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
    finally:
        for wire in wires:
            wire.close()
    records: list[Record] = []
    elapsed = 0.0
    for result in results:
        if isinstance(result, BaseException):
            raise RuntimeError(f"theta loop failed: {result}") from result
        records.extend(result[0])
        elapsed = max(elapsed, result[1])
    return records, elapsed


# -- answer checks ---------------------------------------------------------


def answer_of(result: dict) -> dict:
    return {key: result[key] for key in ANSWER_FIELDS if key in result}


def reference_answers(
    queries: Sequence[Query],
    indices: set[int],
    session_of: Callable[[str], object],
) -> dict[int, dict]:
    """Direct :class:`InferenceSession` answers for the given queries.

    Queries sharing (circuit, op, format) are evaluated as one batch:
    engine lanes are independent, so each lane equals a batch of one.
    """
    from repro.specs import parse_format_spec

    groups: dict[tuple, list[int]] = {}
    for index in sorted(indices):
        query = queries[index]
        groups.setdefault((query.circuit, query.op, query.fmt), []).append(index)
    answers: dict[int, dict] = {}
    for (circuit, op, fmt_text), members in groups.items():
        session = session_of(circuit)
        fmt = parse_format_spec(fmt_text) if fmt_text else None
        if op == "theta_batch":
            for index in members:
                query = queries[index]
                theta = np.asarray(query.theta, dtype=np.float64)
                rows = [query.evidence] * len(query.theta)
                answer = {
                    "values": _floats(
                        session.evaluate_batch(rows, strict=True, theta=theta)
                    )
                }
                if fmt is not None:
                    answer["quantized"] = _floats(
                        session.evaluate_quantized_batch(
                            fmt, rows, strict=True, theta=theta
                        )
                    )
                answers[index] = answer
            continue
        batch = [queries[index].evidence for index in members]
        if op == "eval":
            exact = session.evaluate_batch(batch, strict=True)
            quantized = (
                session.evaluate_quantized_batch(fmt, batch, strict=True)
                if fmt is not None
                else None
            )
            for row, index in enumerate(members):
                answer = {"value": float(exact[row])}
                if quantized is not None:
                    answer["quantized"] = float(quantized[row])
                answers[index] = answer
        elif op == "marginals":
            variables = session.marginal_index.variables
            exact = session.marginals_batch(batch, strict=True)
            quantized = (
                session.quantized_marginals_batch(fmt, batch, strict=True)
                if fmt is not None
                else None
            )
            for row, index in enumerate(members):
                answer = {
                    "posteriors": {
                        v: _floats(exact[v][:, row]) for v in variables
                    }
                }
                if quantized is not None:
                    answer["quantized"] = {
                        v: _floats(quantized[v][:, row]) for v in variables
                    }
                answers[index] = answer
        else:
            raise ValueError(f"no reference for op {op!r}")
    return answers


def _floats(array) -> list[float]:
    return [float(value) for value in array]


def check_records(
    records: Sequence[Record],
    queries: Sequence[Query],
    session_of: Callable[[str], object],
    tally: Tally,
) -> list[str]:
    """Count failures and mismatches; returns the backends that answered.

    Every answered request is compared bit for bit with the direct
    engine call on the same inputs.
    """
    backends = set()
    answered = {record.query for record in records if record.response.get("ok")}
    expected = reference_answers(queries, answered, session_of)
    for record in records:
        response = record.response
        if not response.get("ok"):
            tally.fail(response.get("error", {}).get("code", "error"))
            continue
        result = response["result"]
        backends.add(result.get("backend", "unknown"))
        if result.get("fallback_reason"):
            backends.add(f"fallback: {result['fallback_reason']}")
        if answer_of(result) != expected[record.query]:
            tally.fail("mismatch")
    return sorted(backends)


# -- traced run --------------------------------------------------------------

SPAN_LAYERS = (
    "client.outside_us",
    "front.route.self_us",
    "shard.replica.self_us",
    "batch.wait_us",
    "batch.execute_us",
    "scatter_us",
)


def span_layers(records: Sequence[Record]) -> tuple[dict[str, list[float]], int]:
    """Per-request self times of each served layer, plus retry hops seen."""
    layers: dict[str, list[float]] = {name: [] for name in SPAN_LAYERS}
    retries = 0
    for record in records:
        result = record.response.get("result") or {}
        timing = result.get("timing")
        if not record.response.get("ok") or not timing:
            continue
        spans = timing["spans"]
        own = self_times(spans)
        route = next(span for span in spans if span["name"] == "front.route")
        layers["client.outside_us"].append(
            record.wall_us - (route["end_us"] - route["start_us"])
        )
        layers["front.route.self_us"].append(own.get("front.route", 0))
        layers["shard.replica.self_us"].append(own.get("shard.replica", 0))
        layers["batch.wait_us"].append(own.get("batch.wait", 0))
        layers["batch.execute_us"].append(own.get("batch.execute", 0))
        layers["scatter_us"].append(own.get("scatter", 0))
        retries += sum(1 for span in spans if span["name"] == "front.retry")
    return layers, retries
