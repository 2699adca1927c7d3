"""The asyncio serving layer over cached tapes.

:class:`ProbLPServer` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over TCP (stdlib ``asyncio`` only). Its
core is the :class:`~repro.serve.batching.MicroBatcher`: concurrent
``eval``/``marginals`` requests against the same (circuit, format,
workload) are answered by **one** vectorized tape replay, results
scattered back per request. A request for an idle key flushes on the
next loop tick; a small window opens only while a batch for the key
is executing. Heavyweight
one-off work (``optimize`` format searches, ``hw`` design reports) runs
on the same worker thread pool without batching.

Connection handling rides the shared
:class:`~repro.serve.transport.NdjsonTransport` (the same loop the
sharding/replication front uses), which also enforces the server's
backpressure: per-connection and global in-flight limits answered with
the typed ``overloaded`` error instead of unbounded buffering. Every
request and flush is recorded into the server's own
:class:`~repro.obs.metrics.MetricsRegistry` (``problp_serve_*``,
``problp_batch_*``, ``problp_executor_seconds``); :func:`serve_snapshot`
reads those series back for ``ping``/``circuits`` and
:func:`log_line` for the optional ``--metrics-interval`` line.

:class:`BackgroundServer` runs the whole thing on a dedicated event-loop
thread — the embedding used by tests, the benchmark harness and the
sharding front.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from .. import __version__
from ..arith.fixedpoint import FixedPointFormat
from ..obs.metrics import (
    METRICS_SCHEMA_VERSION,
    REGISTRY,
    MetricsRegistry,
    histogram_quantile,
)
from ..obs.tracing import SpanRing, Trace
from .batching import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_MAX_BATCH,
    BatchKey,
    MicroBatcher,
)
from .protocol import (
    STREAM_LIMIT,
    CircuitsRequest,
    EvalRequest,
    HwRequest,
    MarginalsRequest,
    MetricsRequest,
    OptimizeRequest,
    PingRequest,
    ProtocolError,
    ReloadRequest,
    Request,
    Response,
    ShutdownRequest,
    ThetaBatchRequest,
    ok_response,
    parse_request,
)
from .registry import CircuitRegistry
from .transport import Connection, NdjsonTransport


def _fmt_kind(fmt) -> str:
    if fmt is None:
        return "none"
    return "fixed" if isinstance(fmt, FixedPointFormat) else "float"

#: Default worker threads: enough to overlap a batch flush with an
#: optimize/hw search without oversubscribing numpy.
DEFAULT_WORKER_THREADS = 4

#: Default backpressure limits. Per-connection: a well-behaved pipelined
#: client stays far under this; global: a few max-size micro-batch
#: rounds of headroom before load is shed with ``overloaded``.
DEFAULT_MAX_INFLIGHT_PER_CONNECTION = 1024
DEFAULT_MAX_INFLIGHT = 4096


def serve_snapshot(registry: MetricsRegistry) -> dict:
    """``ping``'s ``metrics`` and ``batching`` blocks, read off the
    series in a server's registry: the one reader behind ``ping``,
    ``circuits`` and the ``--metrics-interval`` line. Rates, means and
    latency quantiles are derived here, never on the request path.
    """
    samples = {family["name"]: family["samples"]
               for family in registry.collect()}

    def total(name):
        return sum(sample["value"] for sample in samples.get(name, ()))

    def by_circuit(name):
        return {sample["labels"]["circuit"]: sample
                for sample in samples.get(name, ())}

    uptime = total("problp_serve_uptime_seconds")

    def rate(count):
        return round(count / uptime, 3) if uptime else 0.0

    flushes: dict[str, list] = {}
    for sample in samples.get("problp_batch_size", ()):
        flushed = flushes.setdefault(sample["labels"]["circuit"], [0, 0])
        flushed[0] += sample["count"]
        flushed[1] += int(sample["sum"])
    errors = by_circuit("problp_serve_errors_total")
    depth = by_circuit("problp_serve_queue_depth")
    latency = by_circuit("problp_serve_latency_seconds")
    circuits = {}
    for name, sample in sorted(
        by_circuit("problp_serve_requests_total").items()
    ):
        count, size = flushes.get(name, (0, 0))
        circuit = circuits[name] = {
            "requests": int(sample["value"]),
            "errors": int(errors.get(name, {}).get("value", 0)),
            "qps": rate(sample["value"]),
            "queue_depth": int(depth.get(name, {}).get("value", 0)),
            "batches": count,
            "mean_batch": size / count if count else 0.0,
        }
        hist = latency.get(name)
        if hist is not None and hist["count"]:
            for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
                seconds = histogram_quantile(q, hist["buckets"], hist["count"])
                circuit[key] = round(seconds * 1e3, 3)
    requests = sum(circuit["requests"] for circuit in circuits.values())
    batches = sum(count for count, _ in flushes.values())
    flushed = sum(size for _, size in flushes.values())
    largest = [s["value"] for s in samples.get("problp_batch_largest", ())]
    return {
        "metrics": {
            "uptime_s": round(uptime, 3),
            "overloaded": int(total("problp_serve_overloaded_total")),
            "requests": requests,
            "qps": rate(requests),
            "circuits": circuits,
        },
        "batching": {
            "requests": flushed,
            "batches": batches,
            "largest_batch": int(max(largest, default=0)),
            "mean_batch": flushed / batches if batches else 0.0,
        },
    }


def log_line(metrics: dict, previous: dict | None = None) -> str:
    """One ``--metrics-interval`` line from :func:`serve_snapshot`'s
    ``metrics`` block; rates cover the interval since ``previous``
    (since start when ``None``), from the request counter's delta."""
    before = previous or {"uptime_s": 0.0, "requests": 0, "circuits": {}}
    elapsed = metrics["uptime_s"] - before["uptime_s"]

    def qps(now, then):
        return round((now - then) / elapsed, 3) if elapsed > 0 else 0.0

    parts = [
        f"qps={qps(metrics['requests'], before['requests']):g}",
        f"requests={metrics['requests']}",
        f"overloaded={metrics['overloaded']}",
    ]
    for name, circuit in metrics["circuits"].items():
        if not circuit["requests"]:
            continue
        then = before["circuits"].get(name, {}).get("requests", 0)
        detail = (
            f"{name}: qps={qps(circuit['requests'], then):g} "
            f"depth={circuit['queue_depth']}"
        )
        if "p50_ms" in circuit:
            detail += (
                f" p50={circuit['p50_ms']:g}ms p99={circuit['p99_ms']:g}ms"
            )
        if circuit["batches"]:
            detail += f" batch={circuit['mean_batch']:.1f}"
        parts.append(detail)
    return " | ".join(parts)


class ProbLPServer:
    """Serve a :class:`CircuitRegistry` over asyncio TCP.

    Parameters
    ----------
    registry:
        The circuits to serve.
    host, port:
        Bind address; port 0 picks an ephemeral port (read ``.port``
        after :meth:`start`).
    batch_window, max_batch:
        Micro-batching knobs (seconds, requests). A request whose
        (circuit, workload, format) has no batch executing flushes on
        the next loop tick, together with whatever arrived in the same
        tick; ``batch_window`` is how long a bucket stays open while a
        batch for its key is executing (the window under load).
        ``max_batch`` flushes a bucket early at that many requests.
    allow_shutdown:
        Honor the ``shutdown`` op. Off by default; the sharding layer
        enables it on its (loopback-bound) workers for graceful drain.
    worker_threads:
        Thread-pool width for batch flushes and optimize/hw work.
    max_inflight_per_connection, max_inflight:
        Admission limits (0 disables): requests beyond either are
        refused immediately with the ``overloaded`` wire error rather
        than queued without bound.
    metrics_interval:
        When set, log one metrics line (qps / queue depth / p50 / p99
        per circuit) every that-many seconds while serving.
    metrics_log:
        Where the interval line goes (default: stderr).
    trace_sample_rate:
        Probability (0..1) that an *untraced* circuit request is traced
        anyway; sampled traces attach ``result.timing`` exactly like
        explicitly traced ones. Requests carrying a ``trace`` field are
        always traced regardless of the rate.
    slow_ms:
        When set, every circuit request is timed internally (no wire
        overhead) and ones slower than this threshold are written to the
        metrics log as slow-query lines; finished traces land in
        ``span_ring`` either way.
    """

    def __init__(
        self,
        registry: CircuitRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        allow_shutdown: bool = False,
        worker_threads: int = DEFAULT_WORKER_THREADS,
        max_inflight_per_connection: int = DEFAULT_MAX_INFLIGHT_PER_CONNECTION,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        metrics_interval: float | None = None,
        metrics_log: Callable[[str], None] | None = None,
        trace_sample_rate: float = 0.0,
        slow_ms: float | None = None,
        span_ring_size: int = 256,
    ) -> None:
        self.registry = registry
        self._host = host
        self._port = port
        self.allow_shutdown = allow_shutdown
        self._executor = ThreadPoolExecutor(
            max_workers=worker_threads, thread_name_prefix="problp-serve"
        )
        #: This server's series; plugged into the process
        #: :data:`~repro.obs.metrics.REGISTRY` from :meth:`start` to
        #: :meth:`stop`.
        self.metrics = MetricsRegistry()
        started = time.monotonic()
        self.metrics.gauge(
            "problp_serve_uptime_seconds", "Server uptime (monotonic clock)."
        ).set_function(lambda: time.monotonic() - started)
        overloaded = self.metrics.counter(
            "problp_serve_overloaded_total",
            "Requests shed with the overloaded error code.",
        )
        self._requests = self.metrics.counter(
            "problp_serve_requests_total", "Finished requests per circuit.",
            ("circuit",),
        )
        self._errors = self.metrics.counter(
            "problp_serve_errors_total",
            "Finished requests that answered with an error.", ("circuit",),
        )
        self._queue_depth = self.metrics.gauge(
            "problp_serve_queue_depth",
            "Requests admitted but not yet answered.", ("circuit",),
        )
        self._latency = self.metrics.histogram(
            "problp_serve_latency_seconds",
            "Request latency from admission to answer.", ("circuit",),
        )
        self._executor_seconds = self.metrics.histogram(
            "problp_executor_seconds",
            "Wall time of one coalesced batch execution on a worker thread.",
            ("workload", "backend", "fmt"),
        )
        self._circuit_series: dict[str, tuple] = {}
        self.batcher = MicroBatcher(
            self._execute_batch,
            window=batch_window,
            max_batch=max_batch,
            executor=self._executor,
            registry=self.metrics,
        )
        self.transport = NdjsonTransport(
            self._handle_request,
            max_inflight_per_connection=max_inflight_per_connection,
            max_inflight_total=max_inflight,
            on_overload=overloaded.inc,
        )
        self._metrics_interval = metrics_interval
        self._metrics_log = metrics_log or (
            lambda line: print(line, file=sys.stderr)
        )
        self._metrics_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        self._trace_sample_rate = trace_sample_rate
        self._slow_s = None if slow_ms is None else slow_ms / 1e3
        self.span_ring = SpanRing(span_ring_size)

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self.transport.handle_connection,
            self._host,
            self._port,
            limit=STREAM_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        REGISTRY.register_collector(self.metrics.collect)
        if self._metrics_interval:
            self._metrics_task = asyncio.ensure_future(
                self._metrics_loop(self._metrics_interval)
            )

    async def _metrics_loop(self, interval: float) -> None:
        previous = None
        while True:
            await asyncio.sleep(interval)
            metrics = serve_snapshot(self.metrics)["metrics"]
            self._metrics_log(
                f"problp serve [{self._host}:{self._port}] "
                + log_line(metrics, previous)
            )
            previous = metrics

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` (or the shutdown op)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Drain in-flight work, then close sockets and workers.

        Graceful: stop accepting first, let every coalesced batch and
        pending response finish, then hang up on idle clients (3.12's
        ``wait_closed`` waits for connection handlers, so lingering
        clients must be disconnected explicitly).
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            self._metrics_task = None
        await self.batcher.drain()
        await self.transport.drain()
        self.transport.close_connections()
        await self.transport.wait_closed()
        if server is not None:
            await server.wait_closed()
        self.batcher.close()
        self._executor.shutdown(wait=True, cancel_futures=True)
        REGISTRY.unregister_collector(self.metrics.collect)

    # -- request handling ----------------------------------------------
    async def _handle_request(
        self, connection: Connection, payload: Any, request_id
    ) -> Response:
        """One request line → one response (the transport's handler)."""
        request = parse_request(payload)
        circuit = getattr(request, "circuit", None)
        if circuit is None:
            return ok_response(request, await self._respond(request))
        trace = self._trace_for(request)
        # Per-circuit children, resolved once (loop thread only): four
        # ``labels()`` lookups per request would dominate the hot path.
        series = self._circuit_series.get(circuit)
        if series is None:
            series = self._circuit_series[circuit] = tuple(
                metric.labels(circuit)
                for metric in (self._requests, self._errors,
                               self._queue_depth, self._latency)
            )
        requests, errors, queue_depth, latency = series
        queue_depth.inc()
        start = time.monotonic()
        ok = False
        try:
            result = await self._respond(request, trace)
            ok = True
            if trace is not None:
                result = self._finish_trace(trace, request, result, ok=True)
            return ok_response(request, result)
        finally:
            if trace is not None and not ok:
                self._finish_trace(trace, request, None, ok=False)
            queue_depth.dec()
            requests.inc()
            if not ok:
                errors.inc()
            latency.observe(time.monotonic() - start)

    def _trace_for(self, request: Request) -> Trace | None:
        """The trace context for one circuit request, or None.

        Explicitly traced requests always trace (and emit timing);
        ``trace_sample_rate`` promotes a random slice of the rest;
        ``--slow-ms`` times everything internally without emitting.
        """
        wire = getattr(request, "trace", None)
        parent = None
        if wire is not None:
            trace = Trace(wire.get("id"), emit=True)
            parent = wire.get("parent")
        elif (
            self._trace_sample_rate > 0.0
            and random.random() < self._trace_sample_rate
        ):
            trace = Trace(emit=True)
        elif self._slow_s is not None:
            trace = Trace(emit=False)
        else:
            return None
        trace.span(
            "shard.replica",
            parent=parent,
            op=request.op,
            circuit=getattr(request, "circuit", None),
        )
        return trace

    def _finish_trace(
        self, trace: Trace, request: Request, result, *, ok: bool
    ):
        """Close the root span, feed the ring/slow log, attach timing."""
        root = trace.root.end()
        duration_ms = root.duration_us / 1e3
        self.span_ring.record({
            "trace_id": trace.trace_id,
            "op": request.op,
            "circuit": getattr(request, "circuit", None),
            "ok": ok,
            "duration_ms": round(duration_ms, 3),
            "spans": [span.to_dict() for span in trace.spans],
        })
        if self._slow_s is not None and duration_ms >= self._slow_s * 1e3:
            breakdown = " ".join(
                f"{span.name}={span.duration_us}us"
                for span in trace.spans
                if span.duration_us is not None
            )
            self._metrics_log(
                f"problp serve slow-query trace={trace.trace_id} "
                f"op={request.op} "
                f"circuit={getattr(request, 'circuit', None)} "
                f"dur_ms={duration_ms:.3f} {breakdown}"
            )
        if ok and trace.emit:
            result = dict(result)
            result["timing"] = trace.to_timing()
        return result

    async def _respond(
        self, request: Request, trace: Trace | None = None
    ) -> dict:
        if isinstance(request, PingRequest):
            snapshot = serve_snapshot(self.metrics)
            return {
                "server": "problp-serve",
                "version": __version__,
                "protocol": 1,
                "circuits": len(self.registry),
                "uptime_s": snapshot["metrics"]["uptime_s"],
                "inflight": self.transport.inflight,
                "batching": snapshot["batching"],
                "backends": self._backend_availability(),
                "metrics": snapshot["metrics"],
                "metrics_schema_version": METRICS_SCHEMA_VERSION,
                # Protocol capabilities clients probe before relying on
                # newer ops (θ tiles since PR 7, hot reload since PR 9,
                # metrics/tracing since PR 10).
                "capabilities": {"theta_batch": True, "reload": True,
                                 "metrics": True, "trace": True},
            }
        if isinstance(request, MetricsRequest):
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "families": REGISTRY.collect(),
            }
        if isinstance(request, CircuitsRequest):
            # describe() may lazily build marginal indexes — off-loop,
            # like every other potentially heavy request body.
            loop = asyncio.get_running_loop()
            circuits = await loop.run_in_executor(
                self._executor, self.registry.describe
            )
            live = serve_snapshot(self.metrics)["metrics"]["circuits"]
            for info in circuits:
                if info["name"] in live:
                    info["metrics"] = live[info["name"]]
            return {"circuits": circuits}
        if isinstance(request, ShutdownRequest):
            if not self.allow_shutdown:
                raise ProtocolError(
                    "shutdown is not enabled on this server"
                )
            self.request_shutdown()
            return {"stopping": True}
        if isinstance(request, ReloadRequest):
            return self.registry.apply_reload(
                add=request.add, remove=request.remove
            )
        if isinstance(request, EvalRequest):
            key = BatchKey(
                circuit=request.circuit, kind="eval", fmt=request.fmt
            )
            return await self.batcher.submit(key, request, trace)
        if isinstance(request, MarginalsRequest):
            key = BatchKey(
                circuit=request.circuit,
                kind="marginals",
                fmt=request.fmt,
                joint=request.joint,
            )
            return await self.batcher.submit(key, request, trace)
        if isinstance(request, ThetaBatchRequest):
            key = BatchKey(
                circuit=request.circuit, kind="theta", fmt=request.fmt
            )
            return await self.batcher.submit(key, request, trace)
        if isinstance(request, OptimizeRequest):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, self._run_optimize, request
            )
        if isinstance(request, HwRequest):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, self._run_hw, request
            )
        raise ProtocolError(f"unhandled request type {type(request).__name__}")

    @staticmethod
    def _backend_availability() -> dict:
        from ..engine import (
            native_available,
            native_unavailable_reason,
            requested_backend,
        )

        payload: dict = {
            "numpy": True,
            "native": native_available(),
            "requested": requested_backend(),
        }
        if payload["native"]:
            # Codegen v2 capabilities: int64 fixed *and* emulated-float
            # word kernels, plus runtime-parameter (θ) entry points —
            # clients probe these before routing quantized rasters.
            payload["native_formats"] = ["fixed", "float"]
            payload["native_theta"] = True
        reason = native_unavailable_reason()
        if reason is not None:
            payload["native_unavailable_reason"] = reason
        return payload

    # -- blocking executors (worker threads) ---------------------------
    def _execute_batch(
        self, key: BatchKey, requests: Sequence[Any]
    ) -> list[dict]:
        """One coalesced replay, timed into the executor histogram."""
        started = time.monotonic()
        results = self._execute_batch_inner(key, requests)
        backend = (
            results[0].get("backend", "unknown") if results else "unknown"
        )
        self._executor_seconds.labels(
            key.kind, backend, _fmt_kind(key.fmt)
        ).observe(time.monotonic() - started)
        return results

    def _execute_batch_inner(
        self, key: BatchKey, requests: Sequence[Any]
    ) -> list[dict]:
        """One coalesced tape replay; one result dict per request."""
        entry = self.registry.entry(key.circuit)
        session = entry.session
        batch = [request.evidence for request in requests]
        size = len(batch)
        if key.kind == "eval":
            # The side-effect-free dispatch predictor: concurrent batch
            # flushes on other formats may rewrite the session's last
            # recorded fallback reason between our sweep and the
            # scatter, so ask for this batch's routing explicitly.
            backend, fallback = session.dispatch_plan(fmt=key.fmt)
            exact = session.evaluate_batch(batch, strict=True)
            quantized = (
                session.evaluate_quantized_batch(key.fmt, batch, strict=True)
                if key.fmt is not None
                else None
            )
            results = []
            for row in range(size):
                result: dict = {
                    "value": float(exact[row]),
                    "batched": size,
                    "backend": backend,
                }
                if fallback:
                    result["fallback_reason"] = fallback
                if quantized is not None:
                    result["quantized"] = float(quantized[row])
                results.append(result)
            return results
        if key.kind == "marginals":
            # Validate the cheap part first: a typo'd variable name must
            # fail before the batched sweeps run, not after (the whole
            # coalesced result would be discarded on the way out).
            per_request_variables = [
                self._marginal_variables(session, request)
                for request in requests
            ]
            backend, fallback = session.dispatch_plan(fmt=key.fmt)
            exact = session.marginals_batch(
                batch, strict=True, joint=key.joint
            )
            quantized = (
                session.quantized_marginals_batch(
                    key.fmt, batch, strict=True, joint=key.joint
                )
                if key.fmt is not None
                else None
            )
            field = "joints" if key.joint else "posteriors"
            results = []
            for row, variables in enumerate(per_request_variables):
                result = {
                    field: {
                        variable: [
                            float(p) for p in exact[variable][:, row]
                        ]
                        for variable in variables
                    },
                    "batched": size,
                    "backend": backend,
                }
                if fallback:
                    result["fallback_reason"] = fallback
                if quantized is not None:
                    result["quantized"] = {
                        variable: [
                            float(p) for p in quantized[variable][:, row]
                        ]
                        for variable in variables
                    }
                results.append(result)
            return results
        if key.kind == "theta":
            return self._execute_theta_batch(session, key, requests)
        raise ProtocolError(f"unknown batch kind {key.kind!r}")

    @staticmethod
    def _execute_theta_batch(
        session, key: BatchKey, requests: Sequence[Any]
    ) -> list[dict]:
        """One coalesced θ sweep over every tile in the bucket.

        Tiles of one (circuit, format) bucket are stacked into a single
        ``(total_rows, n_params)`` matrix, each tile's shared evidence
        repeated per row, and the whole raster slice runs as **one**
        batched replay (plus one quantized sweep when a format is set);
        row slices are scattered back per request — so a client
        streaming one request per map tile costs tape sweeps per
        *bucket*, not per tile.
        """
        theta = np.vstack(
            [
                np.asarray(request.theta, dtype=np.float64)
                for request in requests
            ]
        )
        evidence_rows: list = []
        for request in requests:
            evidence_rows.extend([request.evidence] * len(request.theta))
        # θ sweeps ride the runtime-parameter kernel entry points; the
        # side-effect-free planner tells us which backend this bucket
        # actually lands on (and why not native, when it doesn't).
        backend, fallback = session.dispatch_plan(fmt=key.fmt)
        exact = session.evaluate_batch(evidence_rows, strict=True, theta=theta)
        quantized = (
            session.evaluate_quantized_batch(
                key.fmt, evidence_rows, strict=True, theta=theta
            )
            if key.fmt is not None
            else None
        )
        results = []
        start = 0
        for request in requests:
            stop = start + len(request.theta)
            result: dict = {
                "values": [float(v) for v in exact[start:stop]],
                "batched": len(requests),
                "rows": int(theta.shape[0]),
                "backend": backend,
            }
            if fallback:
                result["fallback_reason"] = fallback
            if quantized is not None:
                result["quantized"] = [
                    float(v) for v in quantized[start:stop]
                ]
            results.append(result)
            start = stop
        return results

    @staticmethod
    def _marginal_variables(session, request) -> Sequence[str]:
        known = session.marginal_index.variables
        if request.variables is None:
            return known
        known_set = set(known)
        unknown = [v for v in request.variables if v not in known_set]
        if unknown:
            raise ProtocolError(
                f"circuit has no indicators for variable(s) {unknown}"
            )
        return request.variables

    def _run_optimize(self, request: OptimizeRequest) -> dict:
        entry = self.registry.entry(request.circuit)
        framework = entry.framework(
            request.query,
            request.tolerance,
            max_bits=request.max_bits,
            variant=request.variant,
            rounding=request.rounding,
        )
        result = framework.optimize(workload=request.workload)
        return result.to_json_dict()

    def _run_hw(self, request: HwRequest) -> dict:
        entry = self.registry.entry(request.circuit)
        framework = entry.framework(
            request.query,
            request.tolerance,
            max_bits=request.max_bits,
            rounding=request.rounding,
        )
        result = None
        fmt = request.fmt
        if fmt is None:
            result = framework.analyze(request.workload)
            fmt = result.selected_format
        design = framework.generate_hardware(
            fmt=fmt, result=result, workload=request.workload
        )
        payload = design.report_dict()
        payload["selected_by_search"] = request.fmt is None
        if request.include_rtl:
            payload["verilog"] = design.verilog()
        return payload


class BackgroundServer:
    """A :class:`ProbLPServer` on its own event-loop thread.

    The embedding used wherever the caller is synchronous: tests, the
    serving benchmark, and the sharding front. ``start()`` blocks until
    the socket is bound (so ``.port`` is valid), ``stop()`` drains and
    joins. Usable as a context manager.

    ``factory`` generalizes the runner to any server-shaped object
    (``start`` / ``serve_until_shutdown`` / ``request_shutdown`` plus
    ``host`` / ``port``) — the sharding front's router rides the same
    loop thread this way.
    """

    def __init__(
        self,
        registry: CircuitRegistry | None = None,
        *,
        factory: Any = None,
        **kwargs: Any,
    ) -> None:
        if factory is None:
            if registry is None:
                raise ValueError("need a registry or a factory")
            factory = lambda: ProbLPServer(registry, **kwargs)  # noqa: E731
        elif kwargs or registry is not None:
            raise ValueError("factory and registry/kwargs are exclusive")
        self._factory = factory
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: Any = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="problp-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError(
                "serving loop failed to start"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("serving loop did not come up in time")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — reported to starter
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = self._factory()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_shutdown()

    @property
    def host(self) -> str:
        assert self.server is not None, "call start() first"
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None, "call start() first"
        return self.server.port

    def stop(self) -> None:
        """Request shutdown, drain, and join the loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=60)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
