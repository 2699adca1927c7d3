"""Tests for the multi-process sharded serving mode."""

import pytest

from repro.serve import (
    CircuitRegistry,
    CircuitSource,
    ServeClient,
    ShardedServer,
)

SOURCES = [
    CircuitSource("sprinkler", "builtin"),
    CircuitSource("asia", "builtin"),
    CircuitSource("figure1", "builtin"),
]


@pytest.fixture(scope="module")
def sharded():
    with ShardedServer(SOURCES, shards=2, batch_window=0.015) as server:
        yield server


@pytest.fixture()
def client(sharded):
    with ServeClient(sharded.host, sharded.port) as connected:
        yield connected


class TestShardedServing:
    def test_partition_spans_workers(self, sharded):
        assert len(sharded.shard_addresses) == 2
        names = {
            source.name
            for group in sharded.partitions
            for source in group
        }
        assert names == {"sprinkler", "asia", "figure1"}

    def test_front_ping_and_merged_circuits(self, client):
        info = client.ping()
        assert info["server"] == "problp-serve-front"
        assert info["shards"] == 2
        names = {entry["name"] for entry in client.circuits()}
        assert names == {"sprinkler", "asia", "figure1"}

    def test_cross_shard_traffic_bit_identical(self, client):
        # Circuits live on different workers; answers must match a
        # locally compiled session bit for bit.
        requests = []
        for name in ("sprinkler", "asia", "figure1"):
            requests += [
                {"op": "eval", "circuit": name, "evidence": {},
                 "format": "fixed:1:15"}
                for _ in range(3)
            ]
        responses = client.request_many(requests)
        assert all(response.ok for response in responses)
        local = CircuitRegistry(SOURCES)
        from repro.arith import FixedPointFormat

        for index, name in enumerate(("sprinkler", "asia", "figure1")):
            session = local.entry(name).session
            exact = float(session.evaluate_batch([{}], strict=True)[0])
            quantized = float(
                session.evaluate_quantized_batch(
                    FixedPointFormat(1, 15), [{}], strict=True
                )[0]
            )
            for response in responses[3 * index : 3 * index + 3]:
                assert response.result["value"] == exact
                assert response.result["quantized"] == quantized

    def test_micro_batching_happens_inside_workers(self, client):
        requests = [
            {"op": "marginals", "circuit": "sprinkler",
             "evidence": {"Rain": 1}}
            for _ in range(6)
        ]
        responses = client.request_many(requests)
        assert all(response.ok for response in responses)
        assert max(r.result["batched"] for r in responses) > 1

    def test_unknown_circuit_rejected_at_the_front(self, client):
        response = client.request({"op": "eval", "circuit": "nope"})
        assert not response.ok
        assert response.error_code == "unknown_circuit"
        assert "sprinkler" in response.error_message

    def test_missing_circuit_field_rejected(self, client):
        response = client.request({"op": "eval"})
        assert not response.ok
        assert response.error_code == "bad_request"

    def test_front_shutdown_op_disabled(self, client):
        response = client.request({"op": "shutdown"})
        assert not response.ok
        assert response.error_code == "bad_request"

    def test_large_response_lines_cross_the_link(self, client):
        # An hw report with the full RTL text is one very long response
        # line; it must not trip the link reader's stream limit (which
        # would poison the shard for every later request).
        payload = client.hw("sprinkler", format="fixed:1:12",
                            include_rtl=True)
        assert "endmodule" in payload["verilog"]
        assert client.eval("sprinkler", {})["value"] == 1.0

    def test_half_closed_client_still_receives_answers(self, sharded):
        # nc-style usage: pipeline requests, shut the write side, read.
        # The front must drain the forwarded responses before hanging up.
        import json
        import socket

        s = socket.create_connection(
            (sharded.host, sharded.port), timeout=30
        )
        s.sendall(
            b'{"op": "eval", "id": 1, "circuit": "sprinkler", '
            b'"evidence": {}}\n'
            b'{"op": "marginals", "id": 2, "circuit": "sprinkler", '
            b'"evidence": {"Rain": 1}}\n'
        )
        s.shutdown(socket.SHUT_WR)
        with s.makefile("rb") as stream:
            responses = {
                payload["id"]: payload
                for payload in map(json.loads, filter(bytes.strip, stream))
            }
        s.close()
        assert responses[1]["ok"] and responses[1]["result"]["value"] == 1.0
        assert responses[2]["ok"]

    def test_typed_errors_cross_the_process_boundary(self, client):
        response = client.request(
            {
                "op": "marginals",
                "circuit": "sprinkler",
                "evidence": {"Sprinkler": 0, "Rain": 0, "WetGrass": 1},
            }
        )
        assert not response.ok
        assert response.error_code == "zero_evidence"


class TestShardFailure:
    def test_dead_worker_fails_fast_instead_of_stranding_clients(self):
        # Two shards: kill one worker, its circuits must answer with an
        # error (not a hang); the surviving shard keeps serving.
        server = ShardedServer(SOURCES[:2], shards=2, batch_window=0.0)
        server.start()
        try:
            with ServeClient(server.host, server.port, timeout=30) as client:
                assert client.eval("sprinkler", {})["value"] == 1.0
                assert client.eval("asia", {})["value"] == 1.0
                # asia lives on shard 1 (round-robin partition).
                victim = server._processes[1]
                victim.terminate()
                victim.join(timeout=10)
                response = client.request(
                    {"op": "eval", "circuit": "asia", "evidence": {}}
                )
                assert not response.ok
                assert "disconnected" in response.error_message or (
                    response.error_code == "internal"
                )
                # The other shard is unaffected.
                assert client.eval("sprinkler", {})["value"] == 1.0
        finally:
            server.stop()


class TestShardedLifecycle:
    def test_start_stop_joins_workers(self):
        server = ShardedServer(
            [CircuitSource("sprinkler", "builtin")], shards=1
        )
        server.start()
        try:
            with ServeClient(server.host, server.port) as client:
                assert client.eval("sprinkler", {})["value"] == 1.0
        finally:
            server.stop()
        assert server._processes == []

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedServer(SOURCES, shards=0)


class TestShardLinkWrites:
    """The front forwards a burst to a worker as one write."""

    class RecordingWriter:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(data)

        async def drain(self):
            pass

    def test_lines_sent_in_one_tick_share_one_write(self):
        import asyncio
        import json

        from repro.serve.sharding import _ShardLink

        writer = self.RecordingWriter()

        async def scenario():
            link = _ShardLink(0, 0, None, writer)
            await asyncio.gather(*(link.send({"id": i}) for i in range(3)))
            await link.send({"id": 3})

        asyncio.run(scenario())
        assert [
            [json.loads(line)["id"] for line in data.splitlines()]
            for data in writer.writes
        ] == [[0, 1, 2], [3]]
