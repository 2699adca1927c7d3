"""In-process replay of engine layers on a workload's own inputs.

Each layer's public entry point is called from outside on the evidence
(and θ rows) the workload sends, chunked to the batch size the workload
actually runs at, and timed per call. The replay adds no spans inside
the program.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Sequence

import numpy as np

from .stats import median

#: Replay layers every workload reports, in table order.
REPLAY_LAYERS = (
    "encoder.encode_us",
    "encoder.encode_one_us",
    "kernel.f64_forward_us",
    "kernel.f64_backward_us",
    "kernel.fixed_forward_us",
    "kernel.float_backward_us",
    "theta.encode_us",
    "marginals.posteriors_us",
    "session.eval_us",
    "session.quantized_us",
    "session.marginals_us",
    "session.quantized_marginals_us",
    "session.theta_us",
)


def time_call(
    fn: Callable,
    arguments: Sequence[tuple],
    budget_s: float = 0.1,
    min_calls: int = 5,
    max_calls: int = 2000,
) -> float:
    """Median wall time (µs) of ``fn(*args)``, cycling over ``arguments``."""
    samples = []
    started = time.perf_counter()
    calls = 0
    while calls < max_calls and (
        calls < min_calls or time.perf_counter() - started < budget_s
    ):
        args = arguments[calls % len(arguments)]
        begin = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - begin)
        calls += 1
    return median(samples) * 1e6


def chunk(rows: Sequence, size: int, limit: int = 16) -> list[list]:
    """Up to ``limit`` consecutive batches of ``size`` rows (cycled)."""
    size = max(1, int(size))
    batches = []
    for start in range(0, size * limit, size):
        batch = [rows[(start + k) % len(rows)] for k in range(size)]
        batches.append(batch)
        if start + size >= len(rows):
            break
    return batches


def replay_layers(
    session,
    batches: Sequence[list],
    thetas: Sequence[np.ndarray],
    fixed,
    flt,
    theta_kernels: bool,
) -> dict[str, float]:
    """Median µs per call of every replay layer.

    ``batches`` are evidence batches at the workload's batch size and
    ``thetas`` the matching ``(rows, n_params)`` θ matrices. With
    ``theta_kernels`` the kernels run on per-lane parameters, as the
    served θ path does; otherwise on the tape's own table.
    """
    from repro.engine.native import native_kernels_for
    from repro.engine.theta import normalize_theta, theta_param_matrix

    kernels = native_kernels_for(session.tape, session.encoder)
    encoder = session.encoder
    index = session.marginal_index
    actives = [encoder.encode(batch, strict=True) for batch in batches]
    matrices = [normalize_theta(session.tape, theta) for theta in thetas]
    params = [theta_param_matrix(matrix) for matrix in matrices]
    fixed_words = [kernels.encode_theta(fixed, m) for m in matrices]
    float_words = [kernels.encode_theta(flt, m) for m in matrices]
    partials = [
        kernels.forward_backward_slots(active)[1][: session.tape.num_nodes]
        for active in actives
    ]
    rows = [(evidence,) for batch in batches for evidence in batch]

    def lanes(values):
        return values if theta_kernels else [None] * len(values)

    out = {
        "encoder.encode_us": time_call(
            lambda b: encoder.encode(b, strict=True), [(b,) for b in batches]
        ),
        "encoder.encode_one_us": time_call(
            lambda e: encoder.encode_one(e, strict=True), rows
        ),
        "kernel.f64_forward_us": time_call(
            lambda a, p: kernels.forward_slots(a, param_matrix=p),
            list(zip(actives, lanes(params))),
        ),
        "kernel.f64_backward_us": time_call(
            lambda a, p: kernels.forward_backward_slots(a, param_matrix=p),
            list(zip(actives, lanes(params))),
        ),
        "kernel.fixed_forward_us": time_call(
            lambda a, w: kernels.fixed_forward_words(fixed, a, param_words=w),
            list(zip(actives, lanes(fixed_words))),
        ),
        "kernel.float_backward_us": time_call(
            lambda a, w: kernels.float_backward_words(flt, a, param_words=w),
            list(zip(actives, lanes(float_words))),
        ),
        "theta.encode_us": time_call(
            lambda m: kernels.encode_theta(fixed, m), [(m,) for m in matrices]
        ),
        "marginals.posteriors_us": time_call(
            index.posteriors, [(p,) for p in partials]
        ),
        "session.eval_us": time_call(
            lambda b: session.evaluate_batch(b, strict=True), [(b,) for b in batches]
        ),
        "session.quantized_us": time_call(
            lambda b: session.evaluate_quantized_batch(fixed, b, strict=True),
            [(b,) for b in batches],
        ),
        "session.marginals_us": time_call(
            lambda b: session.marginals_batch(b, strict=True), [(b,) for b in batches]
        ),
        "session.quantized_marginals_us": time_call(
            lambda b: session.quantized_marginals_batch(flt, b, strict=True),
            [(b,) for b in batches],
        ),
        "session.theta_us": time_call(
            lambda b, t: session.evaluate_batch(b, strict=True, theta=t),
            list(zip(batches, thetas)),
        ),
    }
    return out


def served_session_us(session, batches: Sequence[list], op: str, fmt) -> float:
    """Median µs of the session calls one served batch of ``op`` makes."""
    if op == "eval":
        def call(batch):
            session.evaluate_batch(batch, strict=True)
            if fmt is not None:
                session.evaluate_quantized_batch(fmt, batch, strict=True)
    elif op == "marginals":
        def call(batch):
            session.marginals_batch(batch, strict=True)
            if fmt is not None:
                session.quantized_marginals_batch(fmt, batch, strict=True)
    else:
        raise ValueError(f"no served session path for {op!r}")
    return time_call(call, [(b,) for b in batches])


def served_theta_session_us(session, tiles: Sequence, fmt) -> float:
    """Median µs of the session calls one served θ bucket makes."""
    def call(rows, theta):
        session.evaluate_batch(rows, strict=True, theta=theta)
        if fmt is not None:
            session.evaluate_quantized_batch(fmt, rows, strict=True, theta=theta)
    return time_call(call, list(tiles))


def protocol_layers(lines: Sequence[bytes], responses: Sequence[dict]) -> dict:
    """Median µs of server-side request decode and response encode."""
    from repro.serve.protocol import parse_request
    from repro.serve.transport import encode_line

    def decode(line):
        parse_request(json.loads(line))

    return {
        "protocol.decode_us": time_call(decode, [(line,) for line in lines]),
        "protocol.encode_us": time_call(encode_line, [(r,) for r in responses]),
    }
