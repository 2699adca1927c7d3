"""Multi-process serving: replicated circuit shards behind one front.

The per-circuit compiled cache (tape + analysis + per-format executors)
is the unit of distribution: :meth:`CircuitRegistry.partition` splits
the registry's :class:`CircuitSource` specs round-robin across shard
*groups*, and each group runs ``replicas`` identical worker processes —
every replica compiles and serves the group's circuits with a full
:class:`~repro.serve.server.ProbLPServer` (micro-batching included).
The asyncio front — the :class:`ShardRouter` — forwards each request
line to the *least-pending healthy replica* of the shard that owns its
circuit and relays the answer back. Requests never cross shards, so
every worker's caches stay hot and private; replication is what scales
**one** hot circuit past a single process.

Failure handling is fail-over, not fail-fast, when siblings exist: a
worker that dies mid-request strands its in-flight forwards, and the
router resends each stranded (idempotent) request to a healthy sibling
replica — clients see an answer, not an error. Only when a shard's
*last* replica dies do its circuits start failing with a clear
``disconnected`` error.

Shutdown is graceful end to end: the front stops accepting, drains its
in-flight forwards, then sends each worker the ``shutdown`` op (workers
are loopback-bound with ``allow_shutdown=True``), and each worker drains
its own micro-batches before exiting.

:class:`ShardedServer` is the synchronous manager the CLI and tests
use: ``start()`` spawns the workers and the front, ``stop()`` tears
everything down.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..obs.metrics import (
    METRICS_SCHEMA_VERSION,
    REGISTRY,
    MetricsRegistry,
    merge_families,
)
from ..obs.tracing import now_us
from .batching import DEFAULT_BATCH_WINDOW, DEFAULT_MAX_BATCH
from .protocol import (
    STREAM_LIMIT,
    ProtocolError,
    Response,
    UnknownCircuitError,
    error_response,
)
from .registry import CircuitRegistry, CircuitSource, routing_table
from .server import BackgroundServer, ProbLPServer
from .transport import Connection, NdjsonTransport, encode_line

#: How long the front waits for in-flight forwards while draining.
DRAIN_TIMEOUT = 10.0

#: How long the front waits on worker fan-outs (ping/circuits/reload).
FANOUT_TIMEOUT = 30.0


def _shard_worker_main(
    sources: Sequence[CircuitSource],
    host: str,
    server_kwargs: Mapping[str, Any],
    conn,
) -> None:
    """Entry point of one replica process: serve its shard's circuits
    until told to shut down, reporting the bound address through
    ``conn``."""
    import signal

    # Ctrl-C on the front reaches the whole process group; workers must
    # survive it so the front's graceful drain (shutdown op) can run.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    registry = CircuitRegistry.from_sources(sources)

    async def main() -> None:
        server = ProbLPServer(
            registry,
            host,
            0,
            allow_shutdown=True,
            **dict(server_kwargs),
        )
        await server.start()
        conn.send((server.host, server.port))
        conn.close()
        await server.serve_until_shutdown()

    asyncio.run(main())


class _ShardLink:
    """The front's persistent connection to one replica worker."""

    def __init__(self, shard: int, replica: int, reader, writer) -> None:
        self.shard = shard
        self.replica = replica
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.pump: asyncio.Task | None = None
        #: Set once the worker hangs up; new forwards pick a sibling.
        self.disconnected = False
        #: Forwarded-but-unanswered requests on this link — the
        #: least-pending routing signal.
        self.pending = 0
        #: Lines forwarded in the current loop tick, not yet written.
        self._outbox: list[bytes] = []

    async def send(self, payload: Mapping[str, Any]) -> None:
        """Forward one line; lines sent in one loop tick share a write.

        A pipelined burst is forwarded by one task per line, all in the
        same tick. Written line by line, it could reach the worker
        spread over several reads, and the worker's batcher flushes an
        idle key on its next tick; one write keeps the burst together,
        so it still coalesces into one batch there.
        """
        self._outbox.append(encode_line(dict(payload)))
        if len(self._outbox) == 1:
            asyncio.get_running_loop().call_soon(self._write_outbox)
        await asyncio.sleep(0)  # the outbox is written before we drain
        async with self.write_lock:
            await self.writer.drain()

    def _write_outbox(self) -> None:
        data = b"".join(self._outbox)
        self._outbox.clear()
        self.writer.write(data)

    async def close(self) -> None:
        if self.pump is not None:
            self.pump.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class _Forward:
    """One forwarded request awaiting its worker response."""

    link: _ShardLink
    #: ``("client", connection, original_id)`` or ``("future", future)``.
    sink: tuple
    #: The original wire payload (sans rewritten id) — kept so a dying
    #: replica's stranded requests can be resent to a sibling.
    payload: dict | None = None
    #: Links already tried, bounding the fail-over chain.
    attempts: set[int] = field(default_factory=set)
    #: Front-side spans (``front.route`` + any ``front.retry`` hops) for
    #: a traced request; prepended to the worker's ``timing`` on the way
    #: back to the client.
    spans: list[dict] | None = None


class ShardRouter:
    """Route request lines to replicated circuit shards.

    The router never compiles anything: it probes each line for the
    ``circuit`` routing field, rewrites the request id into a private
    namespace, picks the least-pending healthy replica of the owning
    shard, and scatters the response back to the right client when the
    worker answers. Ops without a circuit are answered at the front —
    ``ping`` by fanning out to every worker and merging fleet health,
    ``circuits`` by fanning out to one replica per shard, ``reload`` by
    updating the routing table and every replica of the affected shards.

    ``shard_addresses`` holds one address *group* (list of
    ``(host, port)``) per shard.
    """

    def __init__(
        self,
        shard_addresses: Sequence,
        table: Mapping[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 0,
        max_inflight_per_connection: int = 0,
    ) -> None:
        self._address_groups = [
            [tuple(address) for address in group]
            for group in shard_addresses
        ]
        self._table = dict(table)
        self._host = host
        self._port = port
        self._groups: list[list[_ShardLink]] = []
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._pending: dict[int, _Forward] = {}
        self._next_internal = 0
        #: The router's own few series (it runs no engine, no batcher);
        #: plugged into the process registry from :meth:`start` to
        #: :meth:`stop`.
        self.metrics = MetricsRegistry()
        started = time.monotonic()
        self._uptime = self.metrics.gauge(
            "problp_front_uptime_seconds",
            "Sharding-front uptime (monotonic clock).",
        )
        self._uptime.set_function(lambda: time.monotonic() - started)
        self._overloaded = self.metrics.counter(
            "problp_front_overloaded_total",
            "Requests the front shed with the overloaded error code.",
        )
        self.metrics.gauge(
            "problp_front_pending_forwards",
            "Forwarded requests awaiting a worker response.",
        ).set_function(lambda: len(self._pending))
        self.transport = NdjsonTransport(
            self._handle_request,
            max_inflight_per_connection=max_inflight_per_connection,
            max_inflight_total=max_inflight,
            # Forwards leave their line task before the worker answers;
            # count them against the global limit explicitly.
            extra_inflight=lambda: len(self._pending),
            on_overload=self._overloaded.inc,
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def links(self) -> list[_ShardLink]:
        return [link for group in self._groups for link in group]

    async def start(self) -> None:
        for shard, group in enumerate(self._address_groups):
            links = []
            for replica, (host, port) in enumerate(group):
                reader, writer = await asyncio.open_connection(
                    host, port, limit=STREAM_LIMIT
                )
                link = _ShardLink(shard, replica, reader, writer)
                link.pump = asyncio.ensure_future(self._pump(link))
                links.append(link)
            self._groups.append(links)
        self._server = await asyncio.start_server(
            self._handle_client,
            self._host,
            self._port,
            limit=STREAM_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        REGISTRY.register_collector(self.metrics.collect)

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Drain forwards, hang up on clients, shut the workers down."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        deadline = asyncio.get_running_loop().time() + DRAIN_TIMEOUT
        while self._pending:
            if asyncio.get_running_loop().time() > deadline:
                break
            await asyncio.sleep(0.01)
        for link in self.links:
            if not link.disconnected:
                try:
                    await asyncio.wait_for(
                        self._shutdown_shard(link), timeout=5
                    )
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    pass
            await link.close()
        self._groups.clear()
        self.transport.close_connections()
        await self.transport.wait_closed()
        if server is not None:
            await server.wait_closed()
        REGISTRY.unregister_collector(self.metrics.collect)

    async def _shutdown_shard(self, link: _ShardLink) -> None:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        internal = self._register(link, ("future", future))
        try:
            await link.send({"op": "shutdown", "id": internal})
        except (ConnectionError, OSError):
            self._unregister(internal)
            raise
        await future

    # -- forwarding ----------------------------------------------------
    def _register(
        self,
        link: _ShardLink,
        sink: tuple,
        payload: dict | None = None,
        attempts: set[int] | None = None,
    ) -> int:
        self._next_internal += 1
        forward = _Forward(link, sink, payload, attempts or set())
        forward.attempts.add(id(link))
        self._pending[self._next_internal] = forward
        link.pending += 1
        return self._next_internal

    def _unregister(self, internal: int) -> _Forward | None:
        forward = self._pending.pop(internal, None)
        if forward is not None:
            forward.link.pending -= 1
        return forward

    def _pick_link(self, shard: int, circuit: str) -> _ShardLink:
        """The least-pending healthy replica of one shard group."""
        healthy = [
            link for link in self._groups[shard] if not link.disconnected
        ]
        if not healthy:
            raise ConnectionError(
                f"all {len(self._groups[shard])} replica worker(s) of "
                f"shard {shard} for circuit {circuit!r} disconnected"
            )
        return min(healthy, key=lambda link: link.pending)

    async def _pump(self, link: _ShardLink) -> None:
        """Relay every response line of one worker to its requester."""
        import json

        try:
            while True:
                line = await link.reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                    internal = payload.get("id")
                except json.JSONDecodeError:
                    continue
                forward = self._unregister(internal)
                if forward is None:
                    continue
                await self._resolve(forward.sink, payload, forward.spans)
        finally:
            # The worker hung up (crash or shutdown): every request
            # still waiting on this link fails over to a sibling
            # replica, or fails fast when none is left.
            link.disconnected = True
            await self._fail_link_pending(link)

    async def _resolve(
        self, sink: tuple, payload: dict, spans: list[dict] | None = None
    ) -> None:
        if sink[0] == "future":
            future = sink[1]
            if not future.done():
                future.set_result(payload)
            return
        _, connection, original_id = sink
        payload["id"] = original_id
        if spans is not None:
            self._merge_front_spans(payload, spans)
        await connection.send(payload)

    @staticmethod
    def _merge_front_spans(payload: dict, spans: list[dict]) -> None:
        """Prepend the front's routing spans to the worker's timing.

        The route span closes now — response relay time is part of
        routing — so the final tree reads ``front.route`` ⊇
        ``shard.replica`` ⊇ batch spans (one shared monotonic clock
        across front and worker processes).
        """
        result = payload.get("result")
        if not payload.get("ok") or not isinstance(result, dict):
            return
        timing = result.get("timing")
        if not isinstance(timing, dict):
            return
        closed = []
        for span in spans:
            span = dict(span)
            if span.get("end_us") is None:
                span["end_us"] = now_us()
            closed.append(span)
        timing["spans"] = closed + list(timing.get("spans", ()))

    async def _fail_link_pending(self, link: _ShardLink) -> None:
        stranded = [
            internal
            for internal, forward in self._pending.items()
            if forward.link is link
        ]
        for internal in stranded:
            forward = self._unregister(internal)
            if forward is None:
                continue
            if forward.sink[0] == "future":
                future = forward.sink[1]
                if not future.done():
                    future.set_exception(
                        ConnectionError("shard worker disconnected")
                    )
                continue
            if await self._failover(link, forward):
                continue
            response = error_response(
                forward.sink[2],
                ConnectionError("shard worker disconnected"),
            )
            await self._resolve(forward.sink, response.to_wire())

    async def _failover(self, dead: _ShardLink, forward: _Forward) -> bool:
        """Resend one stranded request to a sibling replica.

        Every served op is a pure function of the request (``shutdown``
        and ``reload`` never take this path — they are sent per-link),
        so replaying it on a sibling is safe. ``attempts`` bounds the
        chain: each replica is tried at most once, so a cascade of
        dying replicas degrades to the fail-fast error, not a loop.
        """
        if forward.payload is None:
            return False
        siblings = [
            link
            for link in self._groups[dead.shard]
            if not link.disconnected and id(link) not in forward.attempts
        ]
        for sibling in sorted(siblings, key=lambda link: link.pending):
            internal = self._register(
                sibling, forward.sink, forward.payload, forward.attempts
            )
            retry = self._pending[internal]
            if forward.spans is not None:
                # The re-forward hop stays visible in the final tree as
                # a front.retry span naming both replicas.
                retry.spans = list(forward.spans) + [{
                    "name": "front.retry",
                    "parent": "front.route",
                    "start_us": now_us(),
                    "end_us": None,
                    "shard": dead.shard,
                    "from_replica": dead.replica,
                    "to_replica": sibling.replica,
                }]
            resent = dict(forward.payload)
            resent["id"] = internal
            try:
                await sibling.send(resent)
                if retry.spans is not None:
                    retry.spans[-1]["end_us"] = now_us()
                return True
            except (ConnectionError, OSError):
                self._unregister(internal)
        return False

    # -- client side ---------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        await self.transport.handle_connection(
            reader, writer, before_close=self._drain_client
        )

    async def _drain_client(self, connection: Connection) -> None:
        """Wait for this client's forwarded responses before hanging up.

        A pipelining client may half-close its write side (``nc`` does)
        while its answers are still crossing the shard links; closing
        the writer at EOF would silently drop them.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT
        while any(
            forward.sink[0] == "client" and forward.sink[1] is connection
            for forward in self._pending.values()
        ):
            if loop.time() > deadline:
                break
            await asyncio.sleep(0.005)

    async def _handle_request(
        self, connection: Connection, payload: Any, request_id
    ) -> Response | None:
        if not isinstance(payload, dict):
            raise ProtocolError("request must be a JSON object")
        op = payload.get("op")
        if op == "ping":
            return await self._merged_ping(request_id)
        if op == "metrics":
            return await self._merged_metrics(request_id)
        if op == "circuits":
            return await self._merged_circuits(request_id)
        if op == "reload":
            return await self._route_reload(payload, request_id)
        if op == "shutdown":
            raise ProtocolError(
                "shutdown is not enabled on the sharding front"
            )
        circuit = payload.get("circuit")
        if not circuit or not isinstance(circuit, str):
            raise ProtocolError("request needs a 'circuit' name")
        shard = self._table.get(circuit)
        if shard is None:
            raise UnknownCircuitError(circuit, sorted(self._table))
        link = self._pick_link(shard, circuit)
        # A traced request gets a front.route span and its trace field
        # rewritten so the worker's shard.replica span nests under it.
        trace = payload.get("trace")
        if trace is not None:
            trace = dict(trace) if isinstance(trace, dict) else {}
            trace["parent"] = "front.route"
            payload = {**payload, "trace": trace}
        internal = self._register(
            link, ("client", connection, request_id), dict(payload)
        )
        if trace is not None:
            self._pending[internal].spans = [{
                "name": "front.route",
                "start_us": now_us(),
                "end_us": None,
                "shard": shard,
                "replica": link.replica,
            }]
        forwarded = dict(payload)
        forwarded["id"] = internal
        try:
            await link.send(forwarded)
        except (ConnectionError, OSError):
            forward = self._unregister(internal)
            if forward is None:
                # The pump noticed the dead replica first and already
                # failed this request over; the send error is stale.
                return None
            # The replica died between pick and send: fail over now
            # instead of bouncing the error back to the client.
            if await self._failover(link, forward):
                return None
            raise
        return None  # the pump (or the fail-over path) answers this one

    # -- fan-out ops ---------------------------------------------------
    async def _fanout(
        self, links: Sequence[_ShardLink], payload: Mapping[str, Any]
    ) -> list[tuple[_ShardLink, dict | None]]:
        """Send one op to many workers; ``None`` marks an unreachable one."""
        futures: list[tuple[_ShardLink, int, asyncio.Future]] = []
        for link in links:
            future = asyncio.get_running_loop().create_future()
            internal = self._register(link, ("future", future))
            try:
                await link.send({**payload, "id": internal})
            except (ConnectionError, OSError):
                self._unregister(internal)
                continue
            futures.append((link, internal, future))
        results: dict[int, dict | None] = {id(link): None for link in links}
        for link, internal, future in futures:
            try:
                results[id(link)] = await asyncio.wait_for(
                    future, timeout=FANOUT_TIMEOUT
                )
            except (asyncio.TimeoutError, ConnectionError):
                # Unregister a timed-out fan-out so stop()'s drain loop
                # does not wait on a sink that can never resolve.
                self._unregister(internal)
        return [(link, results[id(link)]) for link in links]

    async def _merged_ping(self, request_id) -> Response:
        """Fleet health in one probe: every worker's ping, merged."""
        answers = await self._fanout(
            [link for link in self.links if not link.disconnected],
            {"op": "ping"},
        )
        workers = []
        merged_formats: set[str] | None = None
        all_native = bool(answers)
        for link, payload in answers:
            entry: dict = {"shard": link.shard, "replica": link.replica}
            if payload is None or not payload.get("ok"):
                entry["healthy"] = False
                all_native = False
            else:
                result = payload["result"]
                entry["healthy"] = True
                for key in ("uptime_s", "inflight", "circuits", "version"):
                    if key in result:
                        entry[key] = result[key]
                # Per-replica load shape: admitted-but-unanswered depth
                # summed over circuits, and the live coalesce factor.
                metrics = result.get("metrics") or {}
                entry["queue_depth"] = sum(
                    circuit.get("queue_depth", 0)
                    for circuit in (metrics.get("circuits") or {}).values()
                )
                batching = result.get("batching") or {}
                entry["mean_batch"] = round(
                    batching.get("mean_batch", 0.0), 3
                )
                backends = result.get("backends") or {}
                entry["backends"] = backends
                formats = set(backends.get("native_formats") or ())
                all_native = all_native and bool(backends.get("native"))
                merged_formats = (
                    formats
                    if merged_formats is None
                    else merged_formats & formats
                )
            workers.append(entry)
        dead = [
            {"shard": link.shard, "replica": link.replica, "healthy": False}
            for link in self.links
            if link.disconnected
        ]
        result = {
            "server": "problp-serve-front",
            "shards": len(self._groups),
            "replicas": [len(group) for group in self._groups],
            "workers": workers + dead,
            "circuits": len(self._table),
            "uptime_s": round(self._uptime.value, 3),
            "inflight": self.transport.inflight,
            "overloaded": int(self._overloaded.value),
            # Fleet-level backend surface: conservative (intersection
            # across healthy workers), so a client probing the front
            # sees only capabilities *every* replica can honor.
            "backends": {
                "numpy": True,
                "native": all_native,
                "native_formats": sorted(merged_formats or ()),
            },
            "metrics_schema_version": METRICS_SCHEMA_VERSION,
            "capabilities": {"theta_batch": True, "reload": True,
                             "metrics": True, "trace": True},
        }
        return Response(id=request_id, ok=True, result=result)

    async def _merged_metrics(self, request_id) -> Response:
        """Every replica's metric families, merged under shard/replica
        labels, plus the front's own series."""
        answers = await self._fanout(
            [link for link in self.links if not link.disconnected],
            {"op": "metrics"},
        )
        tagged = [(self.metrics.collect(), {"worker": "front"})]
        for link, payload in answers:
            if payload is None or not payload.get("ok"):
                continue
            families = (payload.get("result") or {}).get("families") or []
            tagged.append((
                families,
                {"shard": str(link.shard), "replica": str(link.replica)},
            ))
        return Response(
            id=request_id,
            ok=True,
            result={
                "schema_version": METRICS_SCHEMA_VERSION,
                "families": merge_families(tagged),
            },
        )

    async def _merged_circuits(self, request_id) -> Response:
        """One replica per shard describes its circuits; merged listing."""
        primaries = []
        for shard, group in enumerate(self._groups):
            healthy = [link for link in group if not link.disconnected]
            if healthy:
                # A dead shard group drops out of the merged listing.
                primaries.append(min(healthy, key=lambda lk: lk.pending))
        answers = await self._fanout(primaries, {"op": "circuits"})
        merged: list[dict] = []
        for _, payload in answers:
            if payload is not None and payload.get("ok"):
                merged.extend(payload["result"]["circuits"])
        return Response(id=request_id, ok=True, result={"circuits": merged})

    async def _route_reload(self, payload: dict, request_id) -> Response:
        """Hot-reload across the fleet: table + every affected replica.

        Removals go to the shard that owns each name; additions go to
        the shard currently serving the fewest circuits (deterministic
        tie-break on shard index). Each affected shard's mutation is
        sent to **all** of its replicas — replicas must stay identical
        for fail-over to stay sound. The routing table commits only
        after every replica acknowledged; a partially-failed reload
        returns the first worker error (reloads are idempotent per
        name, so retrying after a fix converges).
        """
        from .protocol import parse_request

        request = parse_request({**payload, "id": request_id})
        per_shard: dict[int, dict] = {}
        for name in request.remove:
            shard = self._table.get(name)
            if shard is None:
                raise UnknownCircuitError(name, sorted(self._table))
            per_shard.setdefault(shard, {"add": [], "remove": []})[
                "remove"
            ].append(name)
        counts = {shard: 0 for shard in range(len(self._groups))}
        for name, shard in self._table.items():
            counts[shard] += 1
        for shard, plan in per_shard.items():
            counts[shard] -= len(plan["remove"])
        removed = set(request.remove)
        for item in request.add:
            name = item["name"]
            if name in self._table and name not in removed:
                raise ProtocolError(
                    f"circuit {name!r} is already served; remove it in "
                    f"the same reload to replace it"
                )
            if name in removed:
                # A replace must land on the shard that owned the name —
                # its replicas process remove+add as one atomic step.
                shard = self._table[name]
            else:
                shard = min(counts, key=lambda s: (counts[s], s))
            per_shard.setdefault(shard, {"add": [], "remove": []})[
                "add"
            ].append(dict(item))
            counts[shard] += 1
        failures: list[str] = []
        for shard, plan in sorted(per_shard.items()):
            healthy = [
                link
                for link in self._groups[shard]
                if not link.disconnected
            ]
            if not healthy:
                failures.append(f"shard {shard}: all replicas disconnected")
                continue
            op: dict = {"op": "reload"}
            if plan["add"]:
                op["add"] = plan["add"]
            if plan["remove"]:
                op["remove"] = plan["remove"]
            for link, answer in await self._fanout(healthy, op):
                if answer is None:
                    failures.append(
                        f"shard {shard} replica {link.replica}: unreachable"
                    )
                elif not answer.get("ok"):
                    error = answer.get("error") or {}
                    failures.append(
                        f"shard {shard} replica {link.replica}: "
                        f"[{error.get('code')}] {error.get('message')}"
                    )
        if failures:
            return error_response(
                request_id,
                RuntimeError(
                    "reload failed on some workers (retry once fixed — "
                    "reloads are idempotent per name): "
                    + "; ".join(failures)
                ),
            )
        for shard, plan in per_shard.items():
            for name in plan["remove"]:
                self._table.pop(name, None)
            for item in plan["add"]:
                self._table[item["name"]] = shard
        return Response(
            id=request_id,
            ok=True,
            result={
                "added": [item["name"] for item in request.add],
                "removed": list(request.remove),
                "circuits": len(self._table),
            },
        )


class ShardedServer:
    """Spawn replicated circuit-shard workers plus a routing front.

    ``registry`` entries must be declarative (:class:`CircuitSource`):
    workers re-compile their own shard from the specs — the compiled
    artifacts themselves never cross process boundaries. ``replicas``
    spawns that many identical workers per shard; the front
    load-balances per request across them and fails over when one dies.
    """

    def __init__(
        self,
        registry: CircuitRegistry | Iterable[CircuitSource],
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replicas: int = 1,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        worker_threads: int = 4,
        metrics_interval: float | None = None,
        max_inflight: int = 0,
        max_inflight_per_connection: int = 0,
        trace_sample_rate: float = 0.0,
        slow_ms: float | None = None,
    ) -> None:
        if not isinstance(registry, CircuitRegistry):
            registry = CircuitRegistry.from_sources(registry)
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        self._registry = registry
        self._requested_shards = shards
        self.replicas = replicas
        self._host = host
        self._port = port
        self._worker_kwargs = {
            "batch_window": batch_window,
            "max_batch": max_batch,
            "worker_threads": worker_threads,
            "metrics_interval": metrics_interval,
            "trace_sample_rate": trace_sample_rate,
            "slow_ms": slow_ms,
        }
        self._front_limits = {
            "max_inflight": max_inflight,
            "max_inflight_per_connection": max_inflight_per_connection,
        }
        self._processes: list[multiprocessing.Process] = []
        self._front: BackgroundServer | None = None
        self.partitions: list[tuple[CircuitSource, ...]] = []
        #: One address group per shard: ``[[(host, port), ...], ...]``.
        self.shard_addresses: list[list[tuple[str, int]]] = []
        #: Worker processes in the same shape as ``shard_addresses`` —
        #: ``replica_processes[shard][replica]`` (test/chaos hook).
        self.replica_processes: list[list[multiprocessing.Process]] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardedServer":
        if self._front is not None:
            raise RuntimeError("sharded server already started")
        partitions = [
            group
            for group in self._registry.partition(self._requested_shards)
            if group  # skip empty shards when circuits < shards
        ]
        if not partitions:
            raise ValueError("registry holds no circuits to shard")
        self.partitions = partitions
        context = multiprocessing.get_context()
        pipes: list[list] = []
        for group in partitions:
            shard_pipes = []
            shard_processes = []
            for _replica in range(self.replicas):
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_worker_main,
                    args=(
                        group,
                        # Workers are reachable only by the front on
                        # this machine and honor the shutdown op —
                        # loopback unconditionally, whatever the front
                        # binds.
                        "127.0.0.1",
                        self._worker_kwargs,
                        child_conn,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                shard_processes.append(process)
                shard_pipes.append(parent_conn)
            pipes.append(shard_pipes)
            self.replica_processes.append(shard_processes)
        try:
            for shard_pipes in pipes:
                addresses = []
                for parent_conn in shard_pipes:
                    if not parent_conn.poll(timeout=120):
                        raise RuntimeError(
                            "shard worker did not come up in time"
                        )
                    addresses.append(tuple(parent_conn.recv()))
                    parent_conn.close()
                self.shard_addresses.append(addresses)
        except BaseException:
            self._terminate_workers()
            raise
        table = routing_table(partitions)
        addresses = [list(group) for group in self.shard_addresses]
        host, port = self._host, self._port
        limits = dict(self._front_limits)
        self._front = BackgroundServer(
            factory=lambda: ShardRouter(
                addresses, table, host, port, **limits
            )
        )
        try:
            self._front.start()
        except BaseException:
            self._front = None
            self._terminate_workers()
            raise
        return self

    @property
    def host(self) -> str:
        assert self._front is not None, "call start() first"
        return self._front.host

    @property
    def port(self) -> int:
        assert self._front is not None, "call start() first"
        return self._front.port

    def kill_replica(self, shard: int, replica: int) -> None:
        """Hard-kill one worker (SIGKILL) — the chaos/failover hook."""
        process = self.replica_processes[shard][replica]
        process.kill()
        process.join(timeout=10)

    def stop(self) -> None:
        """Drain the front, shut workers down, join the processes."""
        if self._front is not None:
            self._front.stop()
            self._front = None
        for process in self._processes:
            process.join(timeout=30)
        self._terminate_workers()

    def _terminate_workers(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
            if process.is_alive():
                # SIGTERM ignored (e.g. wedged in native code): escalate
                # so stop() never leaves orphan workers behind.
                process.kill()
                process.join(timeout=5)
        self._processes = []
        self.replica_processes = []

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
