"""End-to-end telemetry: metrics op, span trees, and the HTTP sidecar.

Pins the PR 10 contracts: the ``metrics`` op exposes engine *and* serve
series (merged across every replica behind a sharded front), a traced
request returns the full ``front.route → shard.replica → batch.* →
scatter`` span tree with monotone microsecond timestamps *and*
bit-identical values to the untraced answer, fail-over surfaces a
``front.retry`` span, and the ``--obs-port`` HTTP thread serves valid
Prometheus text.
"""

import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import (
    METRICS_SCHEMA_VERSION,
    ObsHttpServer,
    get_registry,
    render_prometheus,
)
from repro.serve import (
    BackgroundServer,
    CircuitRegistry,
    CircuitSource,
    ServeClient,
    ShardedServer,
)

SOURCES = [
    CircuitSource("sprinkler", "builtin"),
    CircuitSource("asia", "builtin"),
]


@pytest.fixture(scope="module")
def registry():
    return CircuitRegistry(SOURCES)


@pytest.fixture(scope="module")
def server(registry):
    with BackgroundServer(registry, batch_window=0.005) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as connected:
        yield connected


class TestMetricsOp:
    def test_metrics_op_exposes_engine_and_serve_series(self, client):
        client.eval("sprinkler", {})
        payload = client.metrics()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        names = {family["name"] for family in payload["families"]}
        # Engine instrumentation...
        assert "problp_memo_cache_total" in names
        assert "problp_backend_dispatch_total" in names
        assert "problp_backend_fallback_total" in names
        assert "problp_native_build_total" in names
        # ...batching and executor timing...
        assert "problp_batch_wait_seconds" in names
        assert "problp_batch_size" in names
        assert "problp_executor_seconds" in names
        # ...and the server's own per-circuit series.
        assert "problp_serve_requests_total" in names
        assert "problp_serve_overloaded_total" in names
        assert "problp_serve_latency_seconds" in names
        assert "problp_batch_largest" in names

    def test_served_traffic_moves_the_counters(self, client):
        def series(payload, name):
            (family,) = [
                f for f in payload["families"] if f["name"] == name
            ]
            return sum(s["value"] for s in family["samples"])

        before = series(client.metrics(), "problp_backend_dispatch_total")
        client.eval("sprinkler", {"Rain": 1})
        after = series(client.metrics(), "problp_backend_dispatch_total")
        assert after >= before + 1

    def test_families_are_wire_safe_and_render(self, client):
        payload = client.metrics()
        assert json.loads(json.dumps(payload)) == payload
        text = render_prometheus(payload["families"])
        assert "# TYPE problp_serve_requests_total counter" in text

    def test_ping_carries_metrics_schema_version(self, client):
        info = client.ping()
        assert info["metrics_schema_version"] == METRICS_SCHEMA_VERSION
        assert info["capabilities"]["metrics"] is True
        assert info["capabilities"]["trace"] is True


class TestSingleServerTracing:
    def test_traced_response_matches_untraced_bit_for_bit(self, client):
        plain = client.eval("sprinkler", {"Rain": 1}, fmt="fixed:1:15")
        traced = client.eval(
            "sprinkler", {"Rain": 1}, fmt="fixed:1:15", trace=True
        )
        timing = traced.pop("timing")
        assert plain == traced  # identical apart from the timing rider
        assert timing["trace_id"]
        names = [span["name"] for span in timing["spans"]]
        assert names[0] == "shard.replica"
        assert {"batch.wait", "batch.execute", "scatter"} <= set(names)

    def test_span_tree_is_nested_and_monotone(self, client):
        timing = client.eval("sprinkler", {}, trace=True)["timing"]
        spans = {span["name"]: span for span in timing["spans"]}
        root = spans["shard.replica"]
        for name in ("batch.wait", "batch.execute", "scatter"):
            span = spans[name]
            assert span["parent"] == "shard.replica"
            assert span["start_us"] <= span["end_us"]
            assert root["start_us"] <= span["start_us"]
            assert span["end_us"] <= root["end_us"]
        # Queue phases run in order: wait, then execute, then scatter.
        assert spans["batch.wait"]["end_us"] <= (
            spans["batch.execute"]["start_us"]
        )
        assert spans["batch.execute"]["end_us"] <= (
            spans["scatter"]["start_us"]
        )

    def test_explicit_trace_context_id_is_echoed(self, client):
        timing = client.eval(
            "sprinkler", {}, trace={"id": "cafe0123"}
        )["timing"]
        assert timing["trace_id"] == "cafe0123"

    def test_untraced_responses_carry_no_timing(self, client):
        assert "timing" not in client.eval("sprinkler", {})


class TestSlowQueryLog:
    def test_slow_queries_hit_the_ring_and_the_log(self, registry):
        lines = []
        with BackgroundServer(
            registry,
            batch_window=0.005,
            slow_ms=0.0,
            metrics_log=lines.append,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                result = client.eval("sprinkler", {})
                assert "timing" not in result  # slow-log is internal
            entries = server.server.span_ring.snapshot()
        assert entries, "every request should land in the span ring"
        assert any(e["op"] == "eval" for e in entries)
        slow = [line for line in lines if "slow-query" in line]
        assert slow, "threshold 0 ms must flag every request"
        assert "shard.replica=" in slow[0]


class TestShardedTracing:
    @pytest.fixture(scope="class")
    def sharded(self):
        with ShardedServer(
            SOURCES, shards=2, replicas=2, batch_window=0.005
        ) as server:
            yield server

    @pytest.fixture()
    def front(self, sharded):
        with ServeClient(sharded.host, sharded.port, timeout=60) as c:
            yield c

    def test_front_span_tree_wraps_the_replica_tree(self, front):
        plain = front.eval("sprinkler", {"Rain": 1})
        traced = front.eval("sprinkler", {"Rain": 1}, trace=True)
        timing = traced.pop("timing")
        assert plain == traced  # bit-identical values through the front
        spans = {span["name"]: span for span in timing["spans"]}
        route = spans["front.route"]
        replica = spans["shard.replica"]
        assert replica["parent"] == "front.route"
        assert "shard" in route and "replica" in route
        # CLOCK_MONOTONIC is system-wide: front and worker stamps are
        # directly comparable, so the tree must nest.
        assert route["start_us"] <= replica["start_us"]
        assert replica["end_us"] <= route["end_us"]
        for name in ("batch.wait", "batch.execute", "scatter"):
            assert spans[name]["parent"] == "shard.replica"

    def test_merged_metrics_tag_every_worker(self, front):
        front.eval("sprinkler", {})
        front.eval("asia", {})
        payload = front.metrics()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        tags = set()
        for family in payload["families"]:
            for sample in family["samples"]:
                labels = sample["labels"]
                if "worker" in labels:
                    tags.add(labels["worker"])
                elif "shard" in labels and "replica" in labels:
                    tags.add((labels["shard"], labels["replica"]))
        assert "front" in tags
        assert {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")} <= tags
        names = {family["name"] for family in payload["families"]}
        assert "problp_front_pending_forwards" in names
        assert "problp_memo_cache_total" in names

    def test_merged_ping_surfaces_queue_depth_and_coalescing(self, front):
        front.request_many(
            {"op": "eval", "circuit": "sprinkler", "evidence": {}}
            for _ in range(16)
        )
        info = front.ping()
        assert info["metrics_schema_version"] == METRICS_SCHEMA_VERSION
        for worker in info["workers"]:
            assert worker["queue_depth"] >= 0
            assert worker["mean_batch"] >= 0.0

    def test_failover_of_traced_requests_shows_the_retry_span(self):
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=3,
            batch_window=0.05,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=60) as c:
                assert c.eval("sprinkler", {})["value"] == 1.0
                results = []

                def hammer():
                    results.extend(
                        c.request_many(
                            {"op": "eval", "circuit": "sprinkler",
                             "evidence": {}, "trace": True}
                            for _ in range(120)
                        )
                    )

                # Kill replica (0, 1) only once the front has a forward
                # pending on its link, so the kill always strands one.
                (link,) = [
                    link for link in server._front.server.links
                    if (link.shard, link.replica) == (0, 1)
                ]
                thread = threading.Thread(target=hammer)
                thread.start()
                deadline = time.monotonic() + 30
                while not link.pending:
                    assert time.monotonic() < deadline, (
                        "no forward reached replica (0, 1)"
                    )
                    time.sleep(0.0005)
                server.kill_replica(0, 1)
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert [r for r in results if not r.ok] == []
            assert all(r.result["value"] == 1.0 for r in results)
            retried = [
                r
                for r in results
                if any(
                    span["name"] == "front.retry"
                    for span in r.result["timing"]["spans"]
                )
            ]
            assert retried, (
                "a killed replica mid-burst should strand at least one "
                "forward whose resend is visible as a front.retry span"
            )
            spans = {
                span["name"]: span
                for span in retried[0].result["timing"]["spans"]
            }
            assert spans["front.retry"]["parent"] == "front.route"
            assert spans["front.retry"]["from_replica"] == 1
        finally:
            server.stop()


class TestObsHttp:
    def test_metrics_and_healthz_endpoints(self):
        with ObsHttpServer(
            get_registry().render,
            render_health=lambda: {"ok": True, "role": "test"},
        ) as obs:
            base = f"http://127.0.0.1:{obs.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                assert r.status == 200
                assert r.headers["Content-Type"].startswith("text/plain")
                body = r.read().decode("utf-8")
            assert "# TYPE problp_memo_cache_total counter" in body
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                assert json.load(r) == {"ok": True, "role": "test"}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert excinfo.value.code == 404

    def test_unhealthy_returns_503(self):
        with ObsHttpServer(
            lambda: "", render_health=lambda: {"ok": False}
        ) as obs:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{obs.port}/healthz", timeout=10
                )
            assert excinfo.value.code == 503


class TestClockAudit:
    def test_serve_layer_never_reads_the_wall_clock(self):
        """Latency math must survive NTP steps: every serve-layer
        duration comes from ``time.monotonic``/``monotonic_ns``."""
        serve_dir = (
            Path(__file__).resolve().parents[2] / "src" / "repro" / "serve"
        )
        offenders = [
            path.name
            for path in sorted(serve_dir.glob("*.py"))
            if "time.time(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestFallbackNoteDedup:
    def test_note_fires_once_per_session_and_reason(self, sprinkler_binary):
        from repro.arith import FixedPointFormat
        from repro.engine import InferenceSession

        session = InferenceSession(sprinkler_binary, backend="auto")
        # A 41-bit-fraction format cannot fit int64 products, so even a
        # working native toolchain must fall back (wide_format); without
        # one the dispatch falls back anyway (toolchain). Either way the
        # session has a prose reason to note exactly once.
        wide = FixedPointFormat(1, 40)
        session.evaluate_quantized_batch(wide, [{}])
        first = session.fallback_note()
        assert first  # the first note carries the prose reason
        assert session.fallback_note() is None  # ...and only the first
        session.evaluate_quantized_batch(wide, [{}])
        assert session.fallback_note() is None  # same reason stays quiet
