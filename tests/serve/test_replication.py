"""Replicated-shard serving: load balancing, fail-over, fleet ops.

``ShardedServer(..., replicas=R)`` runs R identical workers per circuit
partition. These tests pin the v2 contracts: responses stay
bit-identical whichever replica answers, a killed replica's in-flight
requests fail over to a sibling (clients see zero failures), the merged
``ping`` reports per-worker health and backend capabilities, and hot
reload reaches every replica of the affected shard.
"""

import threading

import pytest

from repro.arith import FixedPointFormat
from repro.serve import (
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
def replicated():
    with ShardedServer(
        SOURCES, shards=1, replicas=2, batch_window=0.01
    ) as server:
        yield server


@pytest.fixture()
def client(replicated):
    with ServeClient(replicated.host, replicated.port) as connected:
        yield connected


class TestReplicatedShape:
    def test_replica_fleet_layout(self, replicated):
        assert len(replicated.shard_addresses) == 1
        assert len(replicated.shard_addresses[0]) == 2
        assert len(replicated.replica_processes[0]) == 2
        # Two distinct worker sockets back the one shard.
        assert len(set(replicated.shard_addresses[0])) == 2

    def test_merged_ping_reports_fleet_health(self, client):
        info = client.ping()
        assert info["server"] == "problp-serve-front"
        assert info["shards"] == 1
        assert info["replicas"] == [2]
        assert info["circuits"] == 2
        assert info["uptime_s"] >= 0.0
        assert isinstance(info["inflight"], int)
        workers = info["workers"]
        assert len(workers) == 2
        for worker in workers:
            assert worker["healthy"] is True
            assert worker["shard"] == 0
            assert worker["uptime_s"] >= 0.0
            assert isinstance(worker["inflight"], int)
            assert worker["circuits"] == 2
            # Per-worker backend surface rides along...
            assert worker["backends"]["numpy"] is True
        # ...and the fleet-level view is the conservative merge.
        assert info["backends"]["numpy"] is True
        assert isinstance(info["backends"]["native"], bool)
        assert isinstance(info["backends"]["native_formats"], list)
        assert info["capabilities"] == {"theta_batch": True,
                                        "reload": True,
                                        "metrics": True,
                                        "trace": True}

    def test_requests_spread_across_replicas(self, client):
        # With least-pending routing, a pipelined burst must touch both
        # replicas: afterwards each worker's ping shows traffic.
        responses = client.request_many(
            {"op": "eval", "circuit": "sprinkler", "evidence": {}}
            for _ in range(30)
        )
        assert all(response.ok for response in responses)
        counts = [
            worker.get("inflight", 0) for worker in client.ping()["workers"]
        ]
        assert len(counts) == 2  # both replicas alive and probed

    def test_bit_identical_whichever_replica_answers(self, client):
        fmt = FixedPointFormat(1, 15)
        responses = client.request_many(
            {"op": "eval", "circuit": "sprinkler", "evidence": {},
             "format": "fixed:1:15"}
            for _ in range(24)
        )
        assert all(response.ok for response in responses)
        session = CircuitRegistry(SOURCES).entry("sprinkler").session
        exact = float(session.evaluate_batch([{}], strict=True)[0])
        quantized = float(
            session.evaluate_quantized_batch(fmt, [{}], strict=True)[0]
        )
        values = {r.result["value"] for r in responses}
        quantized_values = {r.result["quantized"] for r in responses}
        assert values == {exact}
        assert quantized_values == {quantized}


class TestReplicaFailover:
    def test_killed_replica_loses_zero_requests(self):
        """SIGKILL one of three replicas mid-burst: every client request
        still gets a successful answer (stranded forwards are resent to
        a sibling)."""
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=3,
            batch_window=0.02,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=60) as c:
                assert c.eval("sprinkler", {})["value"] == 1.0
                results = []

                def hammer():
                    burst = c.request_many(
                        {"op": "eval", "circuit": "sprinkler",
                         "evidence": {}}
                        for _ in range(120)
                    )
                    results.extend(burst)

                thread = threading.Thread(target=hammer)
                thread.start()
                # Kill while the burst is (very likely) in flight; the
                # zero-failure assertion holds either way.
                server.kill_replica(0, 1)
                thread.join(timeout=60)
                assert not thread.is_alive()
            failed = [r for r in results if not r.ok]
            assert failed == []
            assert len(results) == 120
            assert all(r.result["value"] == 1.0 for r in results)
        finally:
            server.stop()

    def test_survivors_keep_serving_and_ping_marks_the_dead(self):
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=2,
            batch_window=0.0,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=30) as c:
                assert c.eval("sprinkler", {})["value"] == 1.0
                server.kill_replica(0, 0)
                # Requests keep flowing through the sibling.
                for _ in range(5):
                    assert c.eval("sprinkler", {})["value"] == 1.0
                workers = c.ping()["workers"]
                healthy_flags = sorted(w["healthy"] for w in workers)
                assert healthy_flags == [False, True]
        finally:
            server.stop()

    def test_last_replica_death_fails_fast(self):
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=2,
            batch_window=0.0,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=30) as c:
                assert c.eval("sprinkler", {})["value"] == 1.0
                server.kill_replica(0, 0)
                server.kill_replica(0, 1)
                response = c.request(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                )
                assert not response.ok
                assert "disconnected" in response.error_message or (
                    response.error_code == "internal"
                )
        finally:
            server.stop()


class TestFrontReload:
    def test_reload_reaches_every_replica(self):
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=2,
            batch_window=0.0,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=30) as c:
                result = c.reload(
                    add=[{"name": "asia", "kind": "builtin"}]
                )
                assert result["added"] == ["asia"]
                assert result["circuits"] == 2
                # Both replicas must now serve it: enough requests that
                # least-pending routing cannot keep them all on one.
                responses = c.request_many(
                    {"op": "eval", "circuit": "asia", "evidence": {}}
                    for _ in range(20)
                )
                assert all(r.ok for r in responses)
                names = {entry["name"] for entry in c.circuits()}
                assert names == {"sprinkler", "asia"}
                # And fail-over still works on the reloaded circuit.
                server.kill_replica(0, 0)
                assert c.eval("asia", {})["value"] == 1.0
                # Removal updates the front's routing table.
                c.reload(remove=["asia"])
                response = c.request(
                    {"op": "eval", "circuit": "asia", "evidence": {}}
                )
                assert response.error_code == "unknown_circuit"
        finally:
            server.stop()

    def test_front_validates_reload_against_its_table(self, client):
        response = client.request(
            {"op": "reload", "remove": ["missing"]}
        )
        assert response.error_code == "unknown_circuit"
        response = client.request(
            {"op": "reload",
             "add": [{"name": "sprinkler", "kind": "builtin"}]}
        )
        assert response.error_code == "bad_request"
        assert client.ping()["circuits"] == 2


class TestFrontBackpressure:
    def test_front_sheds_load_with_the_typed_code(self):
        # The front admits or sheds each line of the pipelined burst as
        # it parses it, before any admitted request is forwarded, so the
        # burst overlaps in flight; the batch window plays no part (an
        # idle key flushes on the next loop tick).
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")],
            shards=1,
            replicas=1,
            batch_window=0.3,
            max_inflight=2,
        )
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=30) as c:
                responses = c.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(6)
                )
            served = [r for r in responses if r.ok]
            shed = [r for r in responses if not r.ok]
            assert len(served) >= 2
            assert shed, "expected the front to shed beyond max_inflight"
            assert {r.error_code for r in shed} == {"overloaded"}
        finally:
            server.stop()
