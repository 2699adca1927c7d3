"""Legacy-vs-tape micro-benchmark for the execution engine.

Compares, on the binarized Alarm circuit:

* scalar float64: seed per-node loop vs tape replay;
* batched float64: seed per-node numpy sweep vs tape executor;
* batched quantized fixed point: the seed's only options were the
  per-node big-int loop (``evaluate_quantized`` per instance) — the
  "legacy per-node Python loop" baseline — vs the vectorized int64 tape
  executor;
* batched quantized float: scalar big-int loop vs the engine's new
  vectorized float emulation (the seed had no fast float path at all);
* **backward sweep** (all-marginals): the frozen per-query node-walking
  derivative pass vs the batched tape backward executors, in exact
  float64 and in emulated fixed point;
* **analysis sweeps** (PR 3): the frozen sequential op-stream walkers
  for extremes / factor counts / adjoint counts / fixed-bound
  propagation vs the level-scheduled vectorized replays of
  ``repro.engine.analysis`` — including the §3.3 search's fixed-bound
  sweep across the whole 2..64-bit candidate range in one batched
  replay;
* **θ sweeps** (PR 7): parameter-batched tape replay — one vectorized
  ``(n_theta, n_params)`` sweep vs a loop of single-row dispatches, in
  exact float64 and in per-row-quantized fixed point, plus the raster
  landscape workload (one θ row per map cell);
* **hardware stream simulation** (PR 4): the per-cycle oracle
  ``PipelineSimulator`` (one Python object per operator per cycle) vs
  the vectorized ``StreamSimulator`` replaying the datapath program as
  batched ``(level, opcode)`` sweeps — on the forward evaluation design
  and on the backward-program marginal accelerator.

Run with ``-s`` to see the speedup tables::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_tape.py -q -s

The quantized-batch and backward-sweep speedups are asserted ≥ 5× (they
are typically well beyond 10×); pure-overhead comparisons print but do
not gate. Results are persisted as text and JSON under
``benchmarks/results/`` — CI uploads the JSON as a build artifact.
"""

from __future__ import annotations

import time

import pytest

from repro.ac.evaluate import evaluate_quantized
from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FloatBackend,
    FloatFormat,
)
from repro.engine import (
    QuantizedTapeEvaluator,
    WordBatchExecutor,
    execute_batch,
    execute_real,
    session_for,
    tape_for,
)
from repro.engine.reference import (
    reference_adjoint_float_counts,
    reference_evaluate_batch,
    reference_evaluate_real,
    reference_fixed_deltas,
    reference_forward_float_counts,
    reference_max_log2_values,
    reference_min_log2_positive_values,
    reference_partial_derivatives,
)
from repro.experiments.validation import alarm_marginal_evidences

from conftest import BENCH_INSTANCES, write_json_result, write_result


def _time(function, *args, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def bench_setup(alarm, alarm_binary):
    tape = tape_for(alarm_binary)
    evidences = alarm_marginal_evidences(
        alarm, max(BENCH_INSTANCES, 40), seed=77
    )
    # Vectorized executors amortize per-op numpy overhead over the
    # batch; measure quantized sweeps at a serving-sized batch.
    quant_evidences = alarm_marginal_evidences(
        alarm, max(BENCH_INSTANCES, 200), seed=78
    )
    return tape, alarm_binary, evidences, quant_evidences


def test_engine_tape_speedups(bench_setup):
    tape, circuit, evidences, quant_evidences = bench_setup
    fixed_fmt = FixedPointFormat(1, 15)
    float_fmt = FloatFormat(9, 14)
    rows = []

    # Scalar float64 (per evaluation).
    legacy_time, legacy_value = _time(
        reference_evaluate_real, circuit, evidences[0]
    )
    tape_time, tape_value = _time(execute_real, tape, evidences[0])
    assert tape_value == legacy_value
    rows.append(("scalar float64", legacy_time, tape_time, 1))

    # Batched float64.
    legacy_time, legacy_batch = _time(
        reference_evaluate_batch, circuit, evidences
    )
    tape_time, tape_batch = _time(execute_batch, tape, evidences)
    assert abs(tape_batch - legacy_batch).max() < 1e-12
    rows.append(("batched float64", legacy_time, tape_time, len(evidences)))

    # Batched quantized fixed point: legacy = scalar big-int loop.
    backend = FixedPointBackend(fixed_fmt)

    def legacy_fixed_batch():
        return [
            evaluate_quantized(circuit, backend, evidence)
            for evidence in quant_evidences
        ]

    legacy_time, legacy_quant = _time(legacy_fixed_batch, repeats=1)
    executor = WordBatchExecutor(tape, fixed_fmt)
    tape_time, tape_quant = _time(executor.evaluate_batch, quant_evidences)
    assert list(tape_quant) == legacy_quant  # bit-identical
    fixed_speedup = legacy_time / tape_time
    rows.append(
        ("batched fixed(1,15)", legacy_time, tape_time, len(quant_evidences))
    )

    # Batched quantized float: legacy = scalar big-int loop.
    float_backend = FloatBackend(float_fmt)

    def legacy_float_batch():
        return [
            evaluate_quantized(circuit, float_backend, evidence)
            for evidence in quant_evidences
        ]

    legacy_time, legacy_quant = _time(legacy_float_batch, repeats=1)
    float_executor = WordBatchExecutor(tape, float_fmt)
    tape_time, tape_quant = _time(
        float_executor.evaluate_batch, quant_evidences
    )
    assert list(tape_quant) == legacy_quant  # bit-identical
    float_speedup = legacy_time / tape_time
    rows.append(
        ("batched float(9,14)", legacy_time, tape_time, len(quant_evidences))
    )

    report = _render_rows(
        f"engine tape benchmark — alarm binary, {len(evidences)} instances",
        rows,
    )
    print("\n" + report)
    write_result("engine_tape.txt", report + "\n")
    write_json_result("engine_tape.json", _rows_payload(rows))

    # Acceptance gate: vectorized quantized sweeps must beat the legacy
    # per-node Python loop by at least 5x.
    assert fixed_speedup >= 5.0, report
    assert float_speedup >= 5.0, report


def _render_rows(title, rows):
    lines = [
        title,
        f"{'sweep':>26} {'legacy':>12} {'tape':>12} {'speedup':>9}",
    ]
    for name, legacy_time, tape_time, _ in rows:
        lines.append(
            f"{name:>26} {legacy_time * 1e3:>10.2f}ms {tape_time * 1e3:>10.2f}ms "
            f"{legacy_time / tape_time:>8.1f}x"
        )
    return "\n".join(lines)


def _rows_payload(rows):
    return [
        {
            "sweep": name,
            "instances": instances,
            "legacy_ms": legacy_time * 1e3,
            "tape_ms": tape_time * 1e3,
            "speedup": legacy_time / tape_time,
        }
        for name, legacy_time, tape_time, instances in rows
    ]


def test_backward_sweep_speedups(bench_setup):
    """Batched all-marginals vs the per-query legacy derivative loop."""
    tape, circuit, evidences, quant_evidences = bench_setup
    session = session_for(circuit)
    rows = []

    # Exact float64 all-marginals: legacy = one node-walking
    # forward+backward pass per query (the frozen oracle), tape = two
    # batched replays for the whole evidence set.
    def legacy_marginals():
        return [
            reference_partial_derivatives(circuit, evidence)
            for evidence in quant_evidences
        ]

    legacy_time, legacy_results = _time(legacy_marginals, repeats=1)
    tape_time, (values, partials) = _time(
        session.partials_batch, quant_evidences
    )
    for column, (ref_values, ref_partials) in enumerate(legacy_results):
        assert (values[:, column] == ref_values).all()
        assert (partials[:, column] == ref_partials).all()  # bit-identical
    backward_speedup = legacy_time / tape_time
    rows.append(
        (
            "batched all-marginals f64",
            legacy_time,
            tape_time,
            len(quant_evidences),
        )
    )

    # Quantized all-marginals (fixed point): legacy = scalar big-int
    # backward loop per query, tape = vectorized int64 backward executor.
    fixed_fmt = FixedPointFormat(3, 15)
    backend = FixedPointBackend(fixed_fmt)
    evaluator = QuantizedTapeEvaluator(tape)

    def legacy_quant_marginals():
        return [
            evaluator.partials(backend, evidence, strict=False)
            for evidence in quant_evidences
        ]

    legacy_time, legacy_quant = _time(legacy_quant_marginals, repeats=1)
    executor = WordBatchExecutor(tape, fixed_fmt)
    tape_time, (_, adjoint_words) = _time(
        executor.partials_batch_words, quant_evidences
    )
    for column, (_, adjoints) in enumerate(legacy_quant):
        expected = [value.mantissa for value in adjoints]
        assert adjoint_words[:, column].tolist() == expected  # bit-identical
    quant_backward_speedup = legacy_time / tape_time
    rows.append(
        (
            "batched all-marginals fixed(3,15)",
            legacy_time,
            tape_time,
            len(quant_evidences),
        )
    )

    report = _render_rows(
        f"backward sweep benchmark — alarm binary, "
        f"{len(quant_evidences)} instances",
        rows,
    )
    print("\n" + report)
    write_result("engine_tape_backward.txt", report + "\n")
    write_json_result("engine_tape_backward.json", _rows_payload(rows))

    # Acceptance gate: batched all-marginals must beat the per-query
    # legacy loop by at least 5x, exact and quantized alike.
    assert backward_speedup >= 5.0, report
    assert quant_backward_speedup >= 5.0, report


def test_native_backend_speedups(bench_setup):
    """Native fused C kernels vs the numpy executors (PR 6 + PR 8).

    The native backend targets **batch-size-1 serving latency**: a single
    eval or all-marginals query pays dozens of numpy op dispatches on the
    numpy executors but one C call on the native backend. Gated ≥ 3× on
    batch-1 eval and marginals (typically ≳ 10×).

    PR 8's lane-blocked kernels flip the batched story too: the f64
    sweeps tile the batch into stride-1 LANE_BLOCK runs the compiler
    vectorizes, so batched eval/marginals now *beat* numpy (gated
    ≥ 1.5×, was parity-gated 0.7×). The emulated-float word kernels and
    the runtime-parameter (θ) entry points get their own gated rows:
    native float emulation ≥ 1.5× over the vectorized numpy executor
    (typically ≳ 10×), and one native θ-batch replay ≥ 5× over a loop
    of per-row native dispatches.
    """
    import numpy as np

    from repro.engine import InferenceSession, native_available

    if not native_available():
        pytest.skip("native toolchain unavailable (cffi or C compiler)")

    _tape, circuit, evidences, quant_evidences = bench_setup
    numpy_session = InferenceSession(circuit, backend="numpy")
    native_session = InferenceSession(circuit, backend="native")
    assert native_session.backend == "native", (
        native_session.backend_fallback_reason
    )
    fixed_fmt = FixedPointFormat(1, 15)
    float_fmt = FloatFormat(9, 14)
    queries = evidences[:40]
    rows = []

    def _per_query(function, *args):
        def sweep():
            for evidence in queries:
                function(evidence, *args)

        best, _ = _time(sweep)
        return best / len(queries)

    # Warm every compiled artifact on both sides before timing.
    for session in (numpy_session, native_session):
        session.evaluate(queries[0])
        session.marginals(queries[0])
        session.evaluate_quantized(fixed_fmt, queries[0])
        session.evaluate_quantized(float_fmt, queries[0])
    for evidence in queries:  # bit-identical before fast
        assert native_session.evaluate(evidence) == numpy_session.evaluate(
            evidence
        )
        got = native_session.marginals(evidence)
        expected = numpy_session.marginals(evidence)
        for variable in expected:
            assert (got[variable] == expected[variable]).all()
        assert native_session.evaluate_quantized(
            fixed_fmt, evidence
        ) == numpy_session.evaluate_quantized(fixed_fmt, evidence)

    numpy_eval = _per_query(numpy_session.evaluate)
    native_eval = _per_query(native_session.evaluate)
    eval_speedup = numpy_eval / native_eval
    rows.append(("batch-1 eval f64", numpy_eval, native_eval, 1))

    numpy_marg = _per_query(numpy_session.marginals)
    native_marg = _per_query(native_session.marginals)
    marginals_speedup = numpy_marg / native_marg
    rows.append(("batch-1 all-marginals f64", numpy_marg, native_marg, 1))

    def _quantized(evidence, fmt):
        return native_session.evaluate_quantized(fmt, evidence)

    def _quantized_numpy(evidence, fmt):
        return numpy_session.evaluate_quantized(fmt, evidence)

    numpy_quant = _per_query(_quantized_numpy, fixed_fmt)
    native_quant = _per_query(_quantized, fixed_fmt)
    rows.append(("batch-1 eval fixed(1,15)", numpy_quant, native_quant, 1))

    # Batched throughput: both backends sweep the same vectorized-sized
    # batch; the lane-blocked kernels must now clearly beat numpy.
    batch = quant_evidences
    numpy_batch, expected = _time(numpy_session.evaluate_batch, batch)
    native_batch, got = _time(native_session.evaluate_batch, batch)
    assert (got == expected).all()
    batch_ratio = numpy_batch / native_batch
    rows.append(
        (f"batched f64 ({len(batch)})", numpy_batch, native_batch, len(batch))
    )

    numpy_mbatch, expected_m = _time(numpy_session.marginals_batch, batch)
    native_mbatch, got_m = _time(native_session.marginals_batch, batch)
    for variable in expected_m:
        assert (got_m[variable] == expected_m[variable]).all()
    marg_batch_ratio = numpy_mbatch / native_mbatch
    rows.append(
        (
            f"batched marginals ({len(batch)})",
            numpy_mbatch,
            native_mbatch,
            len(batch),
        )
    )

    # Native float emulation (PR 8): the (mantissa, exponent) word
    # kernels vs the vectorized numpy executor, same big batch.
    numpy_flt, expected = _time(
        numpy_session.evaluate_quantized_batch, float_fmt, batch
    )
    native_flt, got = _time(
        native_session.evaluate_quantized_batch, float_fmt, batch
    )
    assert (got == expected).all()  # bit-identical
    float_batch_ratio = numpy_flt / native_flt
    rows.append(
        (
            f"batched float(9,14) ({len(batch)})",
            numpy_flt,
            native_flt,
            len(batch),
        )
    )

    # Runtime-parameter kernels (PR 8): one native θ-batch replay vs a
    # loop of per-row native dispatches (the pre-PR-8 best case once
    # every row pays its own kernel call).
    n_theta = max(BENCH_INSTANCES, 200)
    rng = np.random.default_rng(7)
    base = np.asarray(native_session.tape.param_values, dtype=np.float64)
    theta = base[None, :] * rng.uniform(0.5, 1.0, (n_theta, base.size))
    evidence = evidences[0]
    native_session.evaluate_theta_batch(theta[:1], evidence)  # warm

    def per_row_theta():
        return [
            native_session.evaluate_theta_batch(theta[i : i + 1], evidence)[0]
            for i in range(n_theta)
        ]

    per_row_time, per_row_values = _time(per_row_theta, repeats=1)
    theta_time, swept = _time(
        native_session.evaluate_theta_batch, theta, evidence
    )
    assert list(swept) == per_row_values  # bit-identical
    theta_speedup = per_row_time / theta_time
    rows.append(
        (f"native theta sweep ({n_theta})", per_row_time, theta_time, n_theta)
    )

    report = _render_rows(
        f"native backend benchmark — alarm binary, numpy executors vs "
        f"fused C kernels, {len(queries)} single queries",
        rows,
    ).replace("legacy", " numpy").replace("tape", "native")
    print("\n" + report)
    write_result("engine_tape_native.txt", report + "\n")
    write_json_result(
        "engine_tape_native_v2.json",
        [
            {
                "sweep": name,
                "instances": instances,
                "numpy_ms": numpy_time * 1e3,
                "native_ms": native_time * 1e3,
                "speedup": numpy_time / native_time,
            }
            for name, numpy_time, native_time, instances in rows
        ],
    )

    # Acceptance gates: batch-1 latency ≥ 3× on eval and marginals
    # (aspire ~10×); lane-blocked batched sweeps ≥ 1.5× over numpy on
    # eval, marginals and float emulation (float is typically ≳ 10× —
    # int64 word ops beat numpy's masked multi-array arithmetic by far);
    # one θ-batch replay ≥ 5× over per-row native dispatch.
    assert eval_speedup >= 3.0, report
    assert marginals_speedup >= 3.0, report
    assert batch_ratio >= 1.5, report
    assert marg_batch_ratio >= 1.5, report
    assert float_batch_ratio >= 1.5, report
    assert theta_speedup >= 5.0, report


def test_theta_sweep_speedups(bench_setup):
    """Parameter-batched replay vs sequential per-θ dispatch (PR 7).

    A θ-sweep asks the same query under many parameterizations — the
    landscape raster, a sensitivity curve, a what-if table. Without the
    batch axis each parameterization pays a full tape dispatch; with it
    the whole sweep is one struct-of-arrays replay. The legacy side here
    is the engine's own single-row θ path looped per row (already
    tape-based — the gate measures the batching, not interpreter
    overhead of the seed), bit-identical by construction on both the
    exact float64 and the per-row-quantized fixed paths.
    """
    import numpy as np

    from repro.engine import InferenceSession
    from repro.experiments.landscape import (
        landscape_parameter_map,
        landscape_theta,
    )

    _tape, circuit, evidences, _quant = bench_setup
    session = InferenceSession(circuit, backend="numpy")
    evidence = evidences[0]
    fixed_fmt = FixedPointFormat(1, 15)
    n_theta = max(BENCH_INSTANCES, 200)
    rng = np.random.default_rng(7)
    base = np.asarray(session.tape.param_values, dtype=np.float64)
    theta = base[None, :] * rng.uniform(0.5, 1.0, (n_theta, base.size))
    rows = []

    # Warm both paths (encoders, executors) before timing.
    session.evaluate_theta_batch(theta[:1], evidence)
    session.evaluate_quantized_batch(fixed_fmt, [evidence], theta=theta[:1])

    def sequential_theta():
        return [
            session.evaluate_theta_batch(theta[i : i + 1], evidence)[0]
            for i in range(n_theta)
        ]

    legacy_time, legacy_values = _time(sequential_theta, repeats=1)
    tape_time, swept = _time(session.evaluate_theta_batch, theta, evidence)
    assert list(swept) == legacy_values  # bit-identical
    exact_speedup = legacy_time / tape_time
    rows.append(("theta sweep f64", legacy_time, tape_time, n_theta))

    def sequential_quantized():
        return [
            session.evaluate_quantized_batch(
                fixed_fmt, [evidence], theta=theta[i : i + 1]
            )[0]
            for i in range(n_theta)
        ]

    legacy_time, legacy_values = _time(sequential_quantized, repeats=1)
    tape_time, swept = _time(
        session.evaluate_quantized_batch, fixed_fmt, [evidence], False, theta
    )
    assert list(swept) == legacy_values  # bit-identical
    quant_speedup = legacy_time / tape_time
    rows.append(("theta sweep fixed(1,15)", legacy_time, tape_time, n_theta))

    # The raster landscape workload: one θ row per map cell on the
    # (small) landscape circuit — the per-call overhead the batch axis
    # removes dominates even harder than on alarm.
    pmap = landscape_parameter_map()
    raster_session = InferenceSession(pmap.circuit, backend="numpy")
    raster_theta = landscape_theta(16, 16, pmap)
    raster_evidence = {"Presence": 1}
    raster_session.evaluate_theta_batch(raster_theta[:1], raster_evidence)

    def sequential_raster():
        return [
            raster_session.evaluate_theta_batch(
                raster_theta[i : i + 1], raster_evidence
            )[0]
            for i in range(raster_theta.shape[0])
        ]

    legacy_time, legacy_values = _time(sequential_raster, repeats=1)
    tape_time, swept = _time(
        raster_session.evaluate_theta_batch, raster_theta, raster_evidence
    )
    assert list(swept) == legacy_values  # bit-identical
    rows.append(
        (
            "landscape raster 16x16",
            legacy_time,
            tape_time,
            raster_theta.shape[0],
        )
    )

    report = _render_rows(
        f"theta sweep benchmark — alarm binary, {n_theta} parameterizations, "
        f"sequential per-row dispatch vs one batched replay",
        rows,
    )
    print("\n" + report)
    write_result("engine_tape_theta.txt", report + "\n")
    write_json_result("engine_tape_theta.json", _rows_payload(rows))

    # Acceptance gate (ISSUE 7): the vectorized θ sweep must beat
    # sequential per-θ dispatch by at least 5x, exact and quantized.
    assert exact_speedup >= 5.0, report
    assert quant_speedup >= 5.0, report


def test_analysis_speedups(bench_setup):
    """Vectorized tape analysis vs the frozen sequential walkers (PR 3).

    Compares, on the same warm compiled artifacts both sides replay
    (the tape's cached op tuples for the walkers, the cached level
    schedules for the vectorized sweeps):

    * the four precision-independent analyses — max/min log2 extremes,
      forward (1±ε) factor counts, adjoint factor counts;
    * the §3.3 fixed-format search's bound propagation across the whole
      F = 2..64 candidate range (63 sequential walks vs one batched
      vectorized replay);
    * the combined "format-search analysis" (all of the above), which
      is what ``CircuitAnalysis`` + ``search_fixed_format`` now cost
      per circuit.
    """
    import numpy as np

    from repro.engine.analysis import TapeAnalysis

    tape, circuit, _evidences, _quant = bench_setup
    analysis = TapeAnalysis(tape)
    analysis.adjoint_counts  # warm the schedules (cached per tape)
    tape.op_tuples, tape.backward.op_tuples  # warm the walker inputs
    max_values = np.asarray(
        [
            0.0 if value == float("-inf") else 2.0 ** max(value, -500.0)
            for value in analysis.max_log2.tolist()
        ]
    )
    max_values_list = max_values.tolist()
    # The §3.3 search range: F = 2..64, nearest rounding (0.5 ulp).
    rounding_errors = 0.5 * np.power(2.0, -np.arange(2, 65, dtype=float))
    rows = []

    def legacy_sweeps():
        reference_max_log2_values(circuit)
        reference_min_log2_positive_values(circuit)
        reference_forward_float_counts(circuit)
        reference_adjoint_float_counts(circuit)

    def tape_sweeps():
        analysis._sweep_max()
        analysis._sweep_min()
        analysis._sweep_forward_counts()
        analysis._adjoint_schedule.replay()

    legacy_time, _ = _time(legacy_sweeps)
    tape_time, _ = _time(tape_sweeps)
    rows.append(("analysis sweeps (4x)", legacy_time, tape_time, 1))

    def legacy_fixed_sweep():
        return [
            reference_fixed_deltas(circuit, float(err), max_values_list)
            for err in rounding_errors
        ]

    def tape_fixed_sweep():
        return analysis.fixed_deltas(rounding_errors, max_values)

    legacy_time, legacy_deltas = _time(legacy_fixed_sweep)
    tape_time, tape_deltas = _time(tape_fixed_sweep)
    for column, reference in enumerate(legacy_deltas):
        assert tape_deltas[:, column].tolist() == reference  # bit-identical
    fixed_sweep_speedup = legacy_time / tape_time
    rows.append(
        ("fixed bounds F=2..64", legacy_time, tape_time, len(rounding_errors))
    )

    def legacy_search_analysis():
        legacy_sweeps()
        legacy_fixed_sweep()

    def tape_search_analysis():
        tape_sweeps()
        tape_fixed_sweep()

    legacy_time, _ = _time(legacy_search_analysis)
    tape_time, _ = _time(tape_search_analysis)
    search_speedup = legacy_time / tape_time
    rows.append(("format-search analysis", legacy_time, tape_time, 1))

    report = _render_rows(
        "analysis benchmark — alarm binary, frozen walkers vs "
        "vectorized tape replays",
        rows,
    )
    print("\n" + report)
    write_result("engine_tape_analysis.txt", report + "\n")
    write_json_result("engine_tape_analysis.json", _rows_payload(rows))

    # Acceptance gate: the vectorized analysis must beat the frozen
    # sequential walkers by at least 5x on the format-search workload
    # (the fixed-bound sweep alone is typically >10x).
    assert fixed_sweep_speedup >= 5.0, report
    assert search_speedup >= 5.0, report


def test_stream_simulator_speedups(bench_setup):
    """Vectorized stream simulation vs the per-cycle oracle (PR 4).

    Streams the same evidence vectors through the Alarm forward design
    and the backward-program marginal accelerator with both simulators;
    outputs must agree exactly (the differential suites in
    ``tests/hw/test_stream.py`` pin them bit-identical across formats),
    and the stream simulator must be ≥ 5× faster (typically ≫ 20×:
    the oracle costs one Python dispatch per operator per *cycle*).
    """
    from repro.hw import PipelineSimulator, StreamSimulator, generate_hardware

    _tape, circuit, evidences, _quant = bench_setup
    # Per-cycle simulation costs O(cycles × operators) Python dispatches:
    # keep the stream short enough for a minutes-free benchmark while the
    # vectorized side still amortizes numpy overhead.
    stream = evidences[:25]
    rows = []

    forward = generate_hardware(circuit, FixedPointFormat(1, 15))
    legacy_time, legacy_out = _time(
        PipelineSimulator(forward).run_stream, list(stream), repeats=1
    )
    simulator = StreamSimulator(forward)
    tape_time, stream_out = _time(simulator.run_stream, stream)
    assert stream_out == legacy_out  # identical aligned outputs
    forward_speedup = legacy_time / tape_time
    rows.append(
        ("stream fwd fixed(1,15)", legacy_time, tape_time, len(stream))
    )

    marginal = generate_hardware(
        circuit, FloatFormat(10, 14), workload="marginals"
    )
    legacy_time, legacy_out = _time(
        PipelineSimulator(marginal).run_stream_outputs,
        list(stream),
        repeats=1,
    )
    simulator = StreamSimulator(marginal)
    tape_time, stream_out = _time(simulator.run_stream_outputs, stream)
    assert stream_out.keys() == legacy_out.keys()
    for key in legacy_out:
        assert stream_out[key] == legacy_out[key]  # identical outputs
    backward_speedup = legacy_time / tape_time
    rows.append(
        ("stream marg float(10,14)", legacy_time, tape_time, len(stream))
    )

    report = _render_rows(
        f"hardware stream simulation — alarm binary, {len(stream)} vectors, "
        f"per-cycle oracle vs vectorized stream",
        rows,
    )
    print("\n" + report)
    write_result("engine_tape_stream.txt", report + "\n")
    write_json_result("engine_tape_stream.json", _rows_payload(rows))

    # Acceptance gate: long-stream hardware verification must beat the
    # per-cycle oracle by at least 5x on both sweep directions.
    assert forward_speedup >= 5.0, report
    assert backward_speedup >= 5.0, report
