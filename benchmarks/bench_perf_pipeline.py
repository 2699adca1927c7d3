"""Performance benchmarks of the library's hot paths.

Not a paper artifact — these track the throughput of the pieces every
experiment leans on: compilation, exact and quantized evaluation, bound
propagation, the full framework analysis, and hardware simulation.
"""

import pytest

from repro.ac.evaluate import evaluate_batch, evaluate_quantized, evaluate_real
from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FloatBackend,
    FloatFormat,
)
from repro.compile import compile_network
from repro.core import ErrorTolerance, ProbLP, QueryType
from repro.core.bounds import propagate_fixed_bounds, propagate_float_counts
from repro.experiments.validation import alarm_marginal_evidences
from repro.hw import PipelineSimulator, generate_hardware


@pytest.fixture(scope="module")
def alarm_evidence(alarm):
    return alarm_marginal_evidences(alarm, 1, seed=3)[0]


def test_perf_compile_alarm(benchmark, alarm):
    compiled = benchmark(compile_network, alarm)
    assert compiled.circuit.has_root


def test_perf_evaluate_real(benchmark, alarm_binary, alarm_evidence):
    value = benchmark(evaluate_real, alarm_binary, alarm_evidence)
    assert 0.0 <= value <= 1.0


def test_perf_evaluate_batch_100(benchmark, alarm, alarm_binary):
    evidences = alarm_marginal_evidences(alarm, 100, seed=4)
    values = benchmark(evaluate_batch, alarm_binary, evidences)
    assert values.shape == (100,)


def test_perf_evaluate_fixed_point(benchmark, alarm_binary, alarm_evidence):
    backend = FixedPointBackend(FixedPointFormat(1, 15))
    value = benchmark(
        evaluate_quantized, alarm_binary, backend, alarm_evidence
    )
    assert 0.0 <= value <= 1.0


def test_perf_evaluate_float(benchmark, alarm_binary, alarm_evidence):
    backend = FloatBackend(FloatFormat(9, 14))
    value = benchmark(
        evaluate_quantized, alarm_binary, backend, alarm_evidence
    )
    assert 0.0 <= value <= 1.0


def test_perf_fixed_bound_propagation(benchmark, alarm_binary, alarm_analysis):
    bounds = benchmark(
        propagate_fixed_bounds, alarm_binary, 15, alarm_analysis.extremes
    )
    assert bounds.root_bound > 0


def test_perf_float_count_propagation(benchmark, alarm_binary):
    counts = benchmark(propagate_float_counts, alarm_binary)
    assert counts.root_count > 0


def test_perf_full_analysis(benchmark, alarm_binary):
    def analyze():
        framework = ProbLP(
            alarm_binary, QueryType.MARGINAL, ErrorTolerance.absolute(0.01)
        )
        return framework.analyze()

    result = benchmark.pedantic(analyze, rounds=3, iterations=1)
    assert result.selected.feasible


def test_perf_hardware_simulation_throughput(
    benchmark, alarm, alarm_binary
):
    design = generate_hardware(alarm_binary, FixedPointFormat(1, 15))
    evidences = alarm_marginal_evidences(alarm, 10, seed=5)

    def stream():
        simulator = PipelineSimulator(design)
        return simulator.run_stream(evidences)

    outputs = benchmark.pedantic(stream, rounds=1, iterations=1)
    assert len(outputs) == 10


def test_perf_quantized_tape_evaluator(
    benchmark, alarm_binary, alarm_evidence
):
    from repro.engine import QuantizedTapeEvaluator, tape_for

    evaluator = QuantizedTapeEvaluator(tape_for(alarm_binary))
    backend = FixedPointBackend(FixedPointFormat(1, 15))
    value = benchmark(evaluator.evaluate, backend, alarm_evidence)
    assert 0.0 <= value <= 1.0


def test_perf_vectorized_fixed_batch_100(benchmark, alarm, alarm_binary):
    from repro.engine import InferenceSession

    # The numpy int64 executor, not the native kernels.
    session = InferenceSession(alarm_binary, backend="numpy")
    fmt = FixedPointFormat(1, 15)
    evidences = alarm_marginal_evidences(alarm, 100, seed=6)
    values = benchmark(session.evaluate_quantized_batch, fmt, evidences)
    assert values.shape == (100,)


# ---------------------------------------------------------------------
# Compiled-tape engine (see bench_engine_tape.py for legacy-vs-tape
# speedup measurements; these track absolute engine throughput).
# ---------------------------------------------------------------------
def test_perf_tape_compile_alarm(benchmark, alarm_binary):
    from repro.engine import compile_tape

    tape = benchmark(compile_tape, alarm_binary)
    assert tape.num_operations > 0


def test_perf_tape_scalar_real(benchmark, alarm_binary, alarm_evidence):
    from repro.engine import InferenceSession

    session = InferenceSession(alarm_binary)
    value = benchmark(session.evaluate, alarm_evidence)
    assert 0.0 <= value <= 1.0


def test_perf_tape_batch_100(benchmark, alarm, alarm_binary):
    from repro.engine import InferenceSession
    from repro.experiments.validation import alarm_marginal_evidences

    session = InferenceSession(alarm_binary)
    evidences = alarm_marginal_evidences(alarm, 100, seed=8)
    values = benchmark(session.evaluate_batch, evidences)
    assert values.shape == (100,)


def test_perf_tape_float_batch_100(benchmark, alarm, alarm_binary):
    from repro.arith import FloatFormat
    from repro.engine import InferenceSession
    from repro.experiments.validation import alarm_marginal_evidences

    session = InferenceSession(alarm_binary)
    evidences = alarm_marginal_evidences(alarm, 100, seed=9)
    values = benchmark(
        session.evaluate_quantized_batch, FloatFormat(9, 14), evidences
    )
    assert values.shape == (100,)


def test_perf_evidence_encoder_batch_1000(benchmark, alarm, alarm_binary):
    from repro.engine import EvidenceEncoder, tape_for
    from repro.experiments.validation import alarm_marginal_evidences

    encoder = EvidenceEncoder.for_tape(tape_for(alarm_binary))
    evidences = alarm_marginal_evidences(alarm, 1000, seed=10)
    matrix = benchmark(encoder.encode, evidences)
    assert matrix.shape == (encoder.num_indicators, 1000)
