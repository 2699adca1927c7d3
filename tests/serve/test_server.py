"""End-to-end tests for the asyncio serving layer.

The heart of the suite: served answers must be **bit-identical** to
direct :class:`InferenceSession` calls — for exact float64 and for
quantized formats — whether requests ride alone or coalesce into
micro-batches.
"""

import asyncio
import json

import pytest

from repro.arith import FixedPointFormat, FloatFormat
from repro.serve import (
    BackgroundServer,
    CircuitRegistry,
    CircuitSource,
    ProbLPServer,
    ServeClient,
    ServeError,
)
from tests.conftest import all_evidence_combinations

FIXED = FixedPointFormat(1, 15)
FLOAT = FloatFormat(8, 14)

#: Evidence with probability zero under the sprinkler CPTs
#: (P(WetGrass=1 | Sprinkler=0, Rain=0) = 0).
ZERO_EVIDENCE = {"Sprinkler": 0, "Rain": 0, "WetGrass": 1}

#: Evidence on a state no int64 holds.
BEYOND_INT64 = {"Rain": 2**70}


@pytest.fixture(scope="module")
def registry():
    return CircuitRegistry(
        [
            CircuitSource("sprinkler", "builtin"),
            CircuitSource("asia", "builtin"),
        ]
    )


@pytest.fixture(scope="module")
def server(registry):
    with BackgroundServer(registry, batch_window=0.015) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as connected:
        yield connected


@pytest.fixture(scope="module")
def sprinkler_batch(sprinkler):
    return all_evidence_combinations(sprinkler)[:8]


#: Positive-probability evidence (posterior marginals are defined).
MARGINAL_BATCH = [
    {},
    {"Rain": 1},
    {"Sprinkler": 1, "Rain": 0},
    {"WetGrass": 1},
]


class TestBasicOps:
    def test_ping(self, client):
        info = client.ping()
        assert info["server"] == "problp-serve"
        assert info["circuits"] == 2
        assert "batching" in info

    def test_ping_reports_backend_availability(self, client):
        backends = client.ping()["backends"]
        assert backends["numpy"] is True
        assert isinstance(backends["native"], bool)
        assert backends["requested"] in ("auto", "native", "numpy")
        if not backends["native"]:
            assert backends["native_unavailable_reason"]

    def test_responses_name_the_active_backend(self, client, registry):
        session = registry.entry("sprinkler").session
        result = client.request(
            {"op": "eval", "circuit": "sprinkler", "evidence": {}}
        ).raise_for_error().result
        assert result["backend"] == session.backend
        result = client.request(
            {"op": "marginals", "circuit": "sprinkler", "evidence": {}}
        ).raise_for_error().result
        assert result["backend"] == session.backend

    def test_circuits(self, client):
        names = {entry["name"] for entry in client.circuits()}
        assert names == {"sprinkler", "asia"}

    def test_shutdown_rejected_when_not_enabled(self, client):
        with pytest.raises(ServeError) as info:
            client.shutdown()
        assert info.value.code == "bad_request"


class TestBitIdentical:
    def test_eval_exact_and_quantized(
        self, client, registry, sprinkler_batch
    ):
        session = registry.entry("sprinkler").session
        # A state beyond int64 matches no indicator: probability 0.0.
        batch = [*sprinkler_batch, BEYOND_INT64]
        assert session.evaluate(BEYOND_INT64) == 0.0
        for fmt in (None, FIXED, FLOAT):
            requests = [
                {
                    "op": "eval",
                    "circuit": "sprinkler",
                    "evidence": evidence,
                    **({"format": f"{spec}"} if (spec := _spec(fmt)) else {}),
                }
                for evidence in batch
            ]
            responses = client.request_many(requests)
            exact = session.evaluate_batch(batch, strict=True)
            quantized = (
                session.evaluate_quantized_batch(fmt, batch, strict=True)
                if fmt is not None
                else None
            )
            for row, response in enumerate(responses):
                assert response.ok, response.error_message
                assert response.result["value"] == float(exact[row])
                if fmt is not None:
                    assert response.result["quantized"] == float(
                        quantized[row]
                    )

    def test_marginals_exact_and_quantized(
        self, client, registry, sprinkler_batch
    ):
        session = registry.entry("sprinkler").session
        batch = MARGINAL_BATCH
        # The backward sweep accumulates adjoints, so give the fixed
        # format integer headroom.
        for fmt in (None, FixedPointFormat(4, 16)):
            requests = [
                {
                    "op": "marginals",
                    "circuit": "sprinkler",
                    "evidence": evidence,
                    **({"format": f"{spec}"} if (spec := _spec(fmt)) else {}),
                }
                for evidence in batch
            ]
            responses = client.request_many(requests)
            exact = session.marginals_batch(batch, strict=True)
            quantized = (
                session.quantized_marginals_batch(fmt, batch, strict=True)
                if fmt is not None
                else None
            )
            for row, response in enumerate(responses):
                assert response.ok, response.error_message
                posteriors = response.result["posteriors"]
                assert set(posteriors) == set(exact)
                for variable in exact:
                    assert posteriors[variable] == [
                        float(p) for p in exact[variable][:, row]
                    ]
                    if fmt is not None:
                        assert response.result["quantized"][variable] == [
                            float(p) for p in quantized[variable][:, row]
                        ]

    def test_joint_marginals_and_variable_selection(self, client, registry):
        session = registry.entry("sprinkler").session
        result = client.marginals(
            "sprinkler", {"Rain": 1}, joint=True, variables=["Cloudy"]
        )
        assert set(result["joints"]) == {"Cloudy"}
        direct = session.marginals_batch([{"Rain": 1}], joint=True)
        assert result["joints"]["Cloudy"] == [
            float(p) for p in direct["Cloudy"][:, 0]
        ]


class TestClientIds:
    def test_auto_ids_never_collide_with_explicit_ids(self, client):
        # Explicit ids 1 and 2 occupy the auto-assignment range; the
        # unnumbered requests must still match their own responses.
        responses = client.request_many(
            [
                {"op": "eval", "circuit": "sprinkler",
                 "evidence": {"Rain": 1}, "id": 2},
                {"op": "marginals", "circuit": "sprinkler",
                 "evidence": {"Rain": 1}, "id": 1},
                {"op": "eval", "circuit": "sprinkler", "evidence": {}},
                {"op": "eval", "circuit": "sprinkler",
                 "evidence": {"Rain": 0}},
            ]
        )
        assert all(response.ok for response in responses)
        assert "value" in responses[0].result
        assert "posteriors" in responses[1].result
        assert responses[2].result["value"] == 1.0
        ids = [response.id for response in responses]
        assert len(set(ids)) == 4


class TestMicroBatching:
    def test_pipelined_burst_coalesces(self, client, sprinkler_batch):
        requests = [
            {"op": "eval", "circuit": "sprinkler", "evidence": evidence}
            for evidence in sprinkler_batch
        ]
        responses = client.request_many(requests)
        sizes = {response.result["batched"] for response in responses}
        # The whole pipelined burst shares tape replays; at least one
        # multi-request batch must have formed.
        assert max(sizes) > 1
        info = client.ping()
        assert info["batching"]["largest_batch"] > 1

    def test_sequential_requests_stay_single(self, client):
        for _ in range(3):
            result = client.eval("sprinkler", {"Rain": 1})
            assert result["batched"] == 1

    def test_distinct_formats_do_not_share_batches(self, client):
        requests = [
            {"op": "eval", "circuit": "sprinkler", "evidence": {},
             "format": "fixed:1:15"},
            {"op": "eval", "circuit": "sprinkler", "evidence": {},
             "format": "fixed:1:15", "rounding": "truncate"},
            {"op": "eval", "circuit": "sprinkler", "evidence": {}},
        ]
        responses = client.request_many(requests)
        assert all(r.ok for r in responses)
        assert [r.result["batched"] for r in responses] == [1, 1, 1]


class TestErrorAttribution:
    def test_bad_instance_does_not_poison_the_batch(
        self, client, registry
    ):
        good = [{"Rain": 1}, {"Sprinkler": 1}, {}]
        requests = [
            {"op": "marginals", "circuit": "sprinkler", "evidence": evidence}
            for evidence in good
        ] + [
            {
                "op": "marginals",
                "circuit": "sprinkler",
                "evidence": ZERO_EVIDENCE,
            }
        ]
        responses = client.request_many(requests)
        session = registry.entry("sprinkler").session
        exact = session.marginals_batch(good, strict=True)
        for row, response in enumerate(responses[:3]):
            assert response.ok, response.error_message
            for variable in exact:
                assert response.result["posteriors"][variable] == [
                    float(p) for p in exact[variable][:, row]
                ]
        failed = responses[3]
        assert not failed.ok
        assert failed.error_code == "zero_evidence"

    def test_unknown_variable_is_bad_request(self, client):
        response = client.request(
            {"op": "eval", "circuit": "sprinkler", "evidence": {"Xyz": 1}}
        )
        assert not response.ok
        assert response.error_code == "bad_request"

    def test_unknown_circuit(self, client):
        response = client.request({"op": "eval", "circuit": "nope"})
        assert not response.ok
        assert response.error_code == "unknown_circuit"
        assert "sprinkler" in response.error_message

    def test_unknown_marginal_variables_rejected(self, client):
        response = client.request(
            {
                "op": "marginals",
                "circuit": "sprinkler",
                "variables": ["NotAVariable"],
            }
        )
        assert not response.ok
        assert response.error_code == "bad_request"

    def test_invalid_json_line_gets_an_error_response(self, client):
        client._sock.sendall(b"this is not json\n")
        response = client._read_response()
        assert not response.ok
        assert response.error_code == "bad_request"


class TestOptimizeAndHw:
    def test_optimize_matches_direct_framework(self, client, registry):
        from repro.core.queries import ErrorTolerance, QueryType

        payload = client.optimize("sprinkler", tolerance="abs:0.01")
        framework = registry.entry("sprinkler").framework(
            QueryType.MARGINAL, ErrorTolerance.absolute(0.01)
        )
        assert payload == framework.optimize().to_json_dict()

    def test_optimize_infeasible_maps_to_error_code(self, client):
        with pytest.raises(ServeError) as info:
            client.optimize("sprinkler", tolerance="abs:1e-30", max_bits=8)
        assert info.value.code == "infeasible_format"

    def test_hw_report_with_rtl(self, client):
        payload = client.hw(
            "sprinkler", format="fixed:1:12", include_rtl=True
        )
        assert payload["format"]["kind"] == "fixed"
        assert payload["selected_by_search"] is False
        assert "module" in payload
        assert "endmodule" in payload["verilog"]

    def test_hw_search_selects_a_format(self, client):
        payload = client.hw("sprinkler", tolerance="abs:0.01")
        assert payload["selected_by_search"] is True
        assert payload.get("verilog") is None


class TestAsyncioSmoke:
    """The protocol smoke test on a bare asyncio loop: start a server,
    issue mixed eval/marginals traffic, assert bit-identical answers."""

    def test_mixed_traffic_round_trip(self, registry, sprinkler_batch):
        session = registry.entry("sprinkler").session
        expected_values = session.evaluate_batch(
            sprinkler_batch, strict=True
        )
        expected_quantized = session.evaluate_quantized_batch(
            FIXED, sprinkler_batch, strict=True
        )
        expected_marginals = session.marginals_batch(
            MARGINAL_BATCH, strict=True
        )

        async def scenario():
            server = ProbLPServer(registry, batch_window=0.01)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                requests = []
                for index, evidence in enumerate(sprinkler_batch):
                    requests.append(
                        {
                            "op": "eval",
                            "id": f"e{index}",
                            "circuit": "sprinkler",
                            "evidence": evidence,
                            "format": "fixed:1:15",
                        }
                    )
                for index, evidence in enumerate(MARGINAL_BATCH):
                    requests.append(
                        {
                            "op": "marginals",
                            "id": f"m{index}",
                            "circuit": "sprinkler",
                            "evidence": evidence,
                        }
                    )
                writer.write(
                    "".join(
                        json.dumps(request) + "\n" for request in requests
                    ).encode()
                )
                await writer.drain()
                responses = {}
                for _ in requests:
                    line = await reader.readline()
                    payload = json.loads(line)
                    responses[payload["id"]] = payload
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await server.stop()

        responses = asyncio.run(scenario())
        for index in range(len(sprinkler_batch)):
            payload = responses[f"e{index}"]
            assert payload["ok"], payload
            assert payload["result"]["value"] == float(
                expected_values[index]
            )
            assert payload["result"]["quantized"] == float(
                expected_quantized[index]
            )
        for index in range(4):
            payload = responses[f"m{index}"]
            assert payload["ok"], payload
            for variable, column in expected_marginals.items():
                assert payload["result"]["posteriors"][variable] == [
                    float(p) for p in column[:, index]
                ]


def _spec(fmt):
    if fmt is None:
        return None
    from repro.serve import format_spec

    return format_spec(fmt)
