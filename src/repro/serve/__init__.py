"""``repro.serve`` — the async, shard-aware serving layer.

Wraps the compiled-tape engine in a network service: a
:class:`CircuitRegistry` of lazily-compiled circuits (each entry owning
its tape, analysis and per-format quantized executors), a
newline-delimited JSON protocol covering ``eval`` / ``marginals`` /
``theta_batch`` (parameter-sweep tiles) / ``optimize`` / ``hw`` /
``reload`` (hot registry reload) workloads, an asyncio
:class:`ProbLPServer` whose micro-batching queue coalesces concurrent
queries into single vectorized tape replays, and a multi-process
:class:`ShardedServer` that partitions the registry across workers (the
per-circuit cache as the unit of distribution) and *replicates* each
shard — ``replicas=3`` runs three identical workers per partition, with
the front load-balancing per request and failing over when one dies.

Serving is load-shedding rather than unbounded-queueing: the shared
:class:`NdjsonTransport` enforces per-connection and global in-flight
limits and answers excess requests with the typed ``overloaded`` error,
which :class:`ClientPool` — a thread-safe fleet of persistent
connections — treats as a retry-after-backoff signal. Each server
records per-circuit requests, errors, queue depth, latency and batching
as :mod:`repro.obs` series: ``ping``/``circuits`` summarize them, the
``metrics`` op returns them as Prometheus families (merged across
replicas), request tracing (``"trace"`` field → ``result.timing`` span
tree) rides the wire, and ``problp serve --obs-port N`` serves
``GET /metrics`` / ``GET /healthz``.
Stdlib-only: asyncio + sockets + multiprocessing.

Quick start::

    from repro.serve import BackgroundServer, CircuitRegistry, ServeClient

    with BackgroundServer(CircuitRegistry.default()) as server:
        with ServeClient(server.host, server.port) as client:
            print(client.eval("alarm", {"HRBP": 1}, fmt="fixed:1:15"))

Or from the command line:
``problp serve --port 7501 --shards 2 --replicas 3``.
"""

from .batching import BatchKey, MicroBatcher
from .client import ServeClient
from .pool import ClientPool
from .protocol import (
    CircuitsRequest,
    ERROR_CODES,
    EvalRequest,
    HwRequest,
    MarginalsRequest,
    MetricsRequest,
    OptimizeRequest,
    PingRequest,
    ProtocolError,
    REQUEST_TYPES,
    ReloadRequest,
    Request,
    Response,
    ServeError,
    ServerOverloadedError,
    ShutdownRequest,
    ThetaBatchRequest,
    UnknownCircuitError,
    error_code_for,
    error_response,
    format_spec,
    ok_response,
    parse_format_spec,
    parse_request,
    parse_tolerance_spec,
    tolerance_spec,
)
from .registry import (
    CircuitEntry,
    CircuitRegistry,
    CircuitSource,
    routing_table,
)
from .server import BackgroundServer, ProbLPServer
from .sharding import ShardRouter, ShardedServer
from .transport import Connection, NdjsonTransport

__all__ = [
    "BackgroundServer",
    "BatchKey",
    "CircuitEntry",
    "CircuitRegistry",
    "CircuitSource",
    "CircuitsRequest",
    "ClientPool",
    "Connection",
    "ERROR_CODES",
    "EvalRequest",
    "HwRequest",
    "MarginalsRequest",
    "MetricsRequest",
    "MicroBatcher",
    "NdjsonTransport",
    "OptimizeRequest",
    "PingRequest",
    "ProbLPServer",
    "ProtocolError",
    "REQUEST_TYPES",
    "ReloadRequest",
    "Request",
    "Response",
    "ServeClient",
    "ServeError",
    "ServerOverloadedError",
    "ShardRouter",
    "ShardedServer",
    "ShutdownRequest",
    "ThetaBatchRequest",
    "UnknownCircuitError",
    "error_code_for",
    "error_response",
    "format_spec",
    "ok_response",
    "parse_format_spec",
    "parse_request",
    "parse_tolerance_spec",
    "routing_table",
    "tolerance_spec",
]
