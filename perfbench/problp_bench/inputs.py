"""Seeded input generators: the same seed always yields the same inputs.

Evidence comes from forward-sampling the network and keeping a few
observed variables (or every leaf, for dense evidence), so no query has
probability zero. Each workload draws from its own stream,
``default_rng([seed, tag])``, so adding a workload never shifts another
workload's inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_TAGS = {"lone_eval": 1, "open_mix": 2, "theta_tiles": 3, "design_flow": 4}


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload]])


@dataclass(frozen=True)
class Query:
    """One served request body, minus its ``id`` (and ``trace``)."""

    op: str
    circuit: str
    evidence: dict
    fmt: str | None = None
    theta: list | None = None
    body: bytes = field(default=b"", compare=False)

    @property
    def rows(self) -> int:
        return len(self.theta) if self.theta is not None else 1


def make_query(op, circuit, evidence, fmt=None, theta=None) -> Query:
    """A query with its wire body pre-encoded (everything after ``{``)."""
    payload = {"op": op, "circuit": circuit, "evidence": evidence}
    if op == "marginals":
        payload["joint"] = False
    if fmt is not None:
        payload["format"] = fmt
    if theta is not None:
        payload["theta"] = theta
    body = json.dumps(payload).encode("utf-8")[1:]
    return Query(op, circuit, evidence, fmt, theta, body)


def wire_line(query: Query, request_id: int, trace: bool = False) -> bytes:
    """The request line for ``query`` under ``request_id``."""
    head = b'{"id": %d, ' % request_id
    if trace:
        head += b'"trace": {"id": "%016x"}, ' % request_id
    return head + query.body + b"\n"


def sample_assignments(network, count: int, rng) -> list[dict]:
    from repro.bn.sampling import forward_sample

    return forward_sample(network, count, rng=rng)


def sparse_evidence(assignment, variables, rng, low: int, high: int) -> dict:
    """Keep ``k`` in ``[low, high]`` randomly chosen sampled variables."""
    k = int(rng.integers(low, high + 1))
    chosen = sorted(rng.choice(len(variables), size=k, replace=False))
    return {variables[i]: int(assignment[variables[i]]) for i in chosen}


def leaf_evidence(assignment, leaves) -> dict:
    return {leaf: int(assignment[leaf]) for leaf in leaves}


def lone_eval_queries(seed: int, params: dict) -> list[Query]:
    from repro.bn.networks import get_network

    rng = rng_for(seed, "lone_eval")
    network = get_network(params["circuit"])
    variables = list(network.topological_order)
    pool = sample_assignments(network, params["pool"], rng)
    formats = params["formats"]
    return [
        make_query(
            "eval",
            params["circuit"],
            sparse_evidence(
                assignment, variables, rng,
                params["observed_min"], params["observed_max"],
            ),
            formats[index % len(formats)],
        )
        for index, assignment in enumerate(pool)
    ]


def open_mix_queries(seed: int, params: dict) -> list[Query]:
    from repro.bn.networks import get_network

    rng = rng_for(seed, "open_mix")
    network = get_network(params["circuit"])
    variables = list(network.topological_order)
    leaves = list(network.leaves())
    pool = sample_assignments(network, params["pool"], rng)
    mix = params["mix"]
    weights = np.asarray([entry["weight"] for entry in mix], dtype=float)
    picks = rng.choice(len(mix), size=len(pool), p=weights / weights.sum())
    dense = rng.random(len(pool)) < params["dense_share"]
    queries = []
    for assignment, pick, is_dense in zip(pool, picks, dense):
        if is_dense:
            evidence = leaf_evidence(assignment, leaves)
        else:
            evidence = sparse_evidence(
                assignment, variables, rng,
                params["observed_min"], params["observed_max"],
            )
        entry = mix[int(pick)]
        queries.append(
            make_query(entry["op"], params["circuit"], evidence, entry["format"])
        )
    return queries


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    rng = np.random.default_rng([int(seed), _TAGS["open_mix"], 1])
    expected = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < seconds]


def theta_tile_queries(seed: int, params: dict) -> list[Query]:
    """Landscape tiles: seeded raster rows, evidence and formats."""
    from repro.experiments.landscape import (
        landscape_parameter_map,
        landscape_theta,
    )

    rng = rng_for(seed, "theta_tiles")
    pmap = landscape_parameter_map()
    height, width = params["raster"]
    theta = landscape_theta(height, width, pmap)
    network = pmap.network
    variables = list(network.topological_order)
    pool = sample_assignments(network, params["tiles"], rng)
    # Every connection cycles through every ``connections``-th tile, so
    # the fixed-point tiles are spread evenly over each connection's
    # sequence: the mix a connection sees does not depend on the seed.
    period = round(1.0 / params["fixed_share"])
    queries = []
    for index, assignment in enumerate(pool):
        rows = rng.choice(theta.shape[0], size=params["tile_rows"], replace=False)
        tile = [[float(value) for value in theta[row]] for row in rows]
        evidence = sparse_evidence(
            assignment, variables, rng,
            params["observed_min"], params["observed_max"],
        )
        slot = index // params["connections"]
        fmt = params["fixed_format"] if slot % period == period - 1 else None
        queries.append(
            make_query("theta_batch", params["circuit"], evidence, fmt, tile)
        )
    return queries


def design_batches(seed: int, params: dict) -> dict[str, list[dict]]:
    """Per network: a leaf-evidence validation (and verification) batch."""
    from repro.bn.networks import get_network

    rng = rng_for(seed, "design_flow")
    batches = {}
    for name in sorted({spec[0] for spec in params["specs"]}):
        network = get_network(name)
        leaves = list(network.leaves())
        pool = sample_assignments(network, params["validation_rows"], rng)
        batches[name] = [leaf_evidence(sample, leaves) for sample in pool]
    return batches
