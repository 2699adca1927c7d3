"""Served θ-sweeps: one ``theta_batch`` request per raster tile (PR 7).

The served landscape — streamed tile by tile through the micro-batcher —
must be bit-identical to direct :class:`InferenceSession` θ calls, for
the exact float64 sweep and the per-row-quantized fixed sweep alike.
"""

import numpy as np
import pytest

from repro.arith import FixedPointFormat
from repro.engine import session_for
from repro.experiments.landscape import (
    landscape_parameter_map,
    landscape_theta,
    landscape_tiles,
)
from repro.serve import (
    BackgroundServer,
    CircuitRegistry,
    CircuitSource,
    ServeClient,
    ServeError,
    ThetaBatchRequest,
    parse_request,
)
from repro.serve.protocol import request_equal_fields

FIXED = FixedPointFormat(2, 14)
EVIDENCE = {"Presence": 1}


@pytest.fixture(scope="module")
def pmap():
    return landscape_parameter_map()


@pytest.fixture(scope="module")
def registry():
    return CircuitRegistry(
        [
            CircuitSource("landscape", "builtin"),
            CircuitSource("sprinkler", "builtin"),
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


class TestProtocol:
    def test_wire_round_trip(self):
        request = ThetaBatchRequest(
            id=7,
            circuit="landscape",
            evidence={"Presence": 1},
            theta=((0.25, 0.75), (0.5, 0.5)),
            fmt=FIXED,
        )
        parsed = parse_request(request.to_wire())
        assert request_equal_fields(parsed) == request_equal_fields(request)

    def test_theta_field_required(self):
        with pytest.raises(ValueError, match="theta"):
            parse_request({"op": "theta_batch", "circuit": "landscape"})

    @pytest.mark.parametrize(
        "theta",
        [
            [],
            [[]],
            [[0.5], [0.25, 0.75]],
            [[0.5, True]],
            [[0.5, "0.5"]],
            "not-a-matrix",
        ],
    )
    def test_malformed_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            parse_request(
                {"op": "theta_batch", "circuit": "landscape", "theta": theta}
            )

    def test_json_floats_round_trip_exactly(self):
        import json

        row = [0.1, 1.0 / 3.0, 2.0 ** -40, 0.7000000000000001]
        request = parse_request(
            json.loads(
                json.dumps(
                    {"op": "theta_batch", "circuit": "c", "theta": [row]}
                )
            )
        )
        assert list(request.theta[0]) == row


class TestServedThetaBatch:
    def test_ping_advertises_capability(self, client):
        assert client.ping()["capabilities"]["theta_batch"] is True

    def test_bit_identical_to_direct_session(self, client, pmap):
        theta = landscape_theta(6, 6, pmap)
        session = session_for(pmap.circuit)
        result = client.theta_batch("landscape", theta, EVIDENCE, fmt=FIXED)
        want_exact = session.evaluate_theta_batch(theta, EVIDENCE)
        want_quant = session.evaluate_quantized_batch(
            FIXED, [EVIDENCE], theta=theta
        )
        assert result["values"] == [float(v) for v in want_exact]
        assert result["quantized"] == [float(v) for v in want_quant]
        # θ buckets report whichever backend the session's dispatch
        # planner actually routes them to — native when the runtime-
        # parameter kernels are available, numpy otherwise.
        expected_backend, _ = session.dispatch_plan(fmt=FIXED)
        assert result["backend"] == expected_backend
        assert "fallback_reason" not in result or result["backend"] == "numpy"

    def test_streamed_tiles_bit_identical(self, client, pmap):
        # The acceptance shape: one request per map tile, pipelined;
        # stitched responses must equal the single whole-raster sweep.
        theta = landscape_theta(8, 8, pmap)
        session = session_for(pmap.circuit)
        requests = [
            {
                "op": "theta_batch",
                "circuit": "landscape",
                "evidence": EVIDENCE,
                "theta": [list(row) for row in tile],
            }
            for _, tile in landscape_tiles(theta, tile_rows=16)
        ]
        responses = client.request_many(requests)
        stitched = [
            value
            for response in responses
            for value in response.raise_for_error().result["values"]
        ]
        want = session.evaluate_theta_batch(theta, EVIDENCE)
        assert stitched == [float(v) for v in want]

    def test_concurrent_tiles_coalesce(self, client, pmap):
        theta = landscape_theta(8, 4, pmap)
        requests = [
            {
                "op": "theta_batch",
                "circuit": "landscape",
                "evidence": EVIDENCE,
                "theta": [list(row) for row in tile],
            }
            for _, tile in landscape_tiles(theta, tile_rows=4)
        ]
        responses = client.request_many(requests)
        assert all(r.ok for r in responses)
        # The pipelined burst shares tape replays: at least one bucket
        # must have stacked several tiles into one sweep.
        assert max(r.result["batched"] for r in responses) > 1
        assert max(r.result["rows"] for r in responses) > 4

    def test_per_tile_evidence_varies_within_a_bucket(self, client, pmap):
        # Tiles with different shared evidence still coalesce (same
        # BatchKey); each row must be answered under its tile's query.
        theta = landscape_theta(2, 3, pmap)
        session = session_for(pmap.circuit)
        evidences = [{}, {"Presence": 1}, {"Vegetation": 0}]
        requests = [
            {
                "op": "theta_batch",
                "circuit": "landscape",
                "evidence": evidence,
                "theta": [list(row) for row in theta[2 * i : 2 * i + 2]],
            }
            for i, evidence in enumerate(evidences)
        ]
        responses = client.request_many(requests)
        for i, (evidence, response) in enumerate(zip(evidences, responses)):
            want = session.evaluate_theta_batch(
                theta[2 * i : 2 * i + 2], evidence
            )
            assert response.ok
            assert response.result["values"] == [float(v) for v in want]

    def test_wrong_width_is_theta_shape_error(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.theta_batch("landscape", [[0.5, 0.5, 0.5]])
        assert excinfo.value.code == "theta_shape"

    def test_bad_tile_does_not_poison_the_bucket(self, client, pmap):
        theta = landscape_theta(2, 2, pmap)
        good = {
            "op": "theta_batch",
            "circuit": "landscape",
            "evidence": EVIDENCE,
            "theta": [list(row) for row in theta],
        }
        bad = {
            "op": "theta_batch",
            "circuit": "landscape",
            "evidence": EVIDENCE,
            "theta": [[0.5, 0.5, 0.5]],
        }
        responses = client.request_many([good, bad, good])
        session = session_for(pmap.circuit)
        want = [float(v) for v in session.evaluate_theta_batch(theta, EVIDENCE)]
        assert responses[0].ok and responses[0].result["values"] == want
        assert responses[2].ok and responses[2].result["values"] == want
        assert not responses[1].ok
        assert responses[1].error_code == "theta_shape"

    def test_unknown_evidence_variable_rejected(self, client, pmap):
        theta = landscape_theta(1, 2, pmap)
        with pytest.raises(ServeError) as excinfo:
            client.theta_batch("landscape", theta, {"Nope": 1})
        assert excinfo.value.code == "bad_request"

    def test_numpy_theta_accepted_by_client(self, client, pmap):
        theta = np.asarray(landscape_theta(2, 2, pmap))
        result = client.theta_batch("landscape", theta, EVIDENCE)
        assert len(result["values"]) == 4
