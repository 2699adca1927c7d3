"""Seeded generators: deterministic, valid traffic only."""

import json
import math
from pathlib import Path

import numpy as np

from problp_bench import fleet, inputs

PLAN = json.loads(
    (Path(inputs.__file__).resolve().parent.parent / "plan.json").read_text()
)
LONE = PLAN["workloads"]["lone_eval"]
MIX = PLAN["workloads"]["open_mix"]
TILES = dict(PLAN["workloads"]["theta_tiles"], tiles=8)
DESIGN = PLAN["workloads"]["design_flow"]


def _small(params, pool=64):
    return dict(params, pool=pool)


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = inputs.lone_eval_queries(5, _small(LONE))
    again = inputs.lone_eval_queries(5, _small(LONE))
    other = inputs.lone_eval_queries(6, _small(LONE))
    assert [q.body for q in first] == [q.body for q in again]
    assert [q.body for q in first] != [q.body for q in other]
    tiles = inputs.theta_tile_queries(5, TILES)
    assert [q.body for q in tiles] == [
        q.body for q in inputs.theta_tile_queries(5, TILES)
    ]
    assert inputs.design_batches(5, DESIGN) == inputs.design_batches(5, DESIGN)


def test_workload_streams_are_independent():
    # Drawing one workload's inputs never shifts another's.
    before = inputs.open_mix_queries(9, _small(MIX))
    inputs.lone_eval_queries(9, _small(LONE))
    after = inputs.open_mix_queries(9, _small(MIX))
    assert [q.body for q in before] == [q.body for q in after]


def test_lone_eval_is_sparse_and_alternates_formats():
    queries = inputs.lone_eval_queries(3, _small(LONE))
    assert all(1 <= len(q.evidence) <= 3 for q in queries)
    assert [q.fmt for q in queries[:4]] == [None, "fixed:1:15"] * 2
    assert {q.op for q in queries} == {"eval"}


def test_open_mix_sends_marginals_only_in_float_formats():
    queries = inputs.open_mix_queries(4, _small(MIX, pool=256))
    marginal_formats = {q.fmt for q in queries if q.op == "marginals"}
    assert marginal_formats <= {None, "float:10:15"}
    assert {q.op for q in queries} == {"eval", "marginals"}
    sizes = {len(q.evidence) for q in queries}
    assert max(sizes) > 3 and min(sizes) <= 3  # dense and sparse


def test_evidence_has_positive_probability():
    from repro.ac.transform import binarize
    from repro.bn.networks import get_network
    from repro.compile import compile_network
    from repro.engine import InferenceSession

    circuit = binarize(compile_network(get_network("alarm")).circuit).circuit
    session = InferenceSession(circuit, backend="numpy")
    queries = inputs.open_mix_queries(2, _small(MIX))
    values = session.evaluate_batch([q.evidence for q in queries], strict=True)
    assert (values > 0).all()


def test_theta_tiles_shape_and_fixed_share():
    queries = inputs.theta_tile_queries(1, TILES)
    assert len(queries) == 8
    assert all(q.rows == TILES["tile_rows"] for q in queries)
    assert sum(q.fmt == "fixed:1:15" for q in queries) == 2


def test_wire_line_splices_id_and_trace():
    from repro.serve.protocol import parse_request

    query = inputs.make_query("eval", "alarm", {"HRBP": 1}, "fixed:1:15")
    plain = json.loads(inputs.wire_line(query, 7))
    traced = json.loads(inputs.wire_line(query, 7, trace=True))
    assert plain == {"id": 7, "op": "eval", "circuit": "alarm",
                     "evidence": {"HRBP": 1}, "format": "fixed:1:15"}
    assert traced["trace"] == {"id": "0000000000000007"}
    assert parse_request(traced).trace == {"id": "0000000000000007"}


def test_poisson_schedule_is_seeded_and_near_its_rate():
    offsets = inputs.poisson_schedule(1, 300, 20.0)
    assert np.array_equal(offsets, inputs.poisson_schedule(1, 300, 20.0))
    assert offsets[0] >= 0 and offsets[-1] < 20.0
    assert np.all(np.diff(offsets) > 0)
    assert math.isclose(len(offsets), 6000, rel_tol=0.05)


def test_counter_view_brackets_a_run():
    def families(hits, flushes):
        return [
            {"name": "problp_memo_cache_total", "samples": [
                {"labels": {"cache": "tape", "outcome": "hit"}, "value": hits},
                {"labels": {"cache": "tape", "outcome": "miss"}, "value": 1},
            ]},
            {"name": "problp_batch_size", "samples": [
                {"labels": {"kind": "eval"}, "sum": 3.0 * flushes,
                 "count": flushes, "buckets": []},
            ]},
        ]

    before = fleet.counters(families(1, 2))
    after = fleet.counters(families(4, 5))
    delta = fleet.diff(after, before)
    assert delta["memo.tape.hit"] == 3
    assert delta["batch.flushes.eval"] == 3
    assert delta["batch.requests.eval"] == 9
    assert fleet.memo_hit_ratio(after) == 0.8
