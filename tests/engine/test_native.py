"""Differential tests for the native compiled-tape backend.

The contract under test (PR 6, extended in PR 8): the fused C kernels
are **bit-identical** to the numpy executors — float64 forward and
backward sweeps on any circuit; int64 fixed-point *and* emulated-float
(mantissa, exponent) forward and backward sweeps on binary circuits,
every rounding mode, overflow/underflow semantics and messages
included; and the runtime-parameter entry points replaying θ batches,
each row bit-identical to a θ-free golden evaluation of the circuit
re-parameterized with that row. The numpy executors stay
the oracle (and they in turn are pinned against the scalar big-int
backends elsewhere); here the three meet on random circuits.

Kernel-compilation tests skip when the native toolchain (cffi + a C
compiler) is unavailable; the forced-fallback tests run regardless —
graceful degradation is exactly the behavior they pin.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.ac.circuit import ArithmeticCircuit
from repro.ac.transform import binarize
from repro.arith import FixedPointFormat, FloatFormat, RoundingMode
from repro.arith.fixedpoint import FixedPointBackend, FixedPointOverflowError
from repro.arith.floatingpoint import (
    FloatBackend,
    FloatOverflowError,
    FloatUnderflowError,
)
from repro.engine import (
    InferenceSession,
    ZeroEvidenceError,
    backend_for_format,
    execute_batch,
    execute_partials,
    execute_partials_batch,
    execute_real,
    execute_values,
    native_available,
    native_kernels_for,
    tape_for,
)
from repro.bn.networks import random_network
from repro.compile import compile_network
from repro.engine.native import NativeBuildError, NativeTapeKernels, build
from repro.engine.tape import compile_tape
from repro.engine.theta import normalize_theta, theta_param_matrix
from tests.conftest import (
    golden_theta_forward,
    golden_theta_partials,
    golden_theta_roots,
    mantissas,
)

from .conftest import random_circuit, random_evidence_batch

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="native toolchain unavailable (cffi or C compiler missing)",
)

ROUNDINGS = (
    RoundingMode.TRUNCATE,
    RoundingMode.NEAREST_UP,
    RoundingMode.NEAREST_EVEN,
)

#: Narrow, typical, and F=0 edge formats — all within the int64 window.
FIXED_FORMATS = (
    FixedPointFormat(1, 8),
    FixedPointFormat(4, 20),
    FixedPointFormat(5, 0),
)

#: Narrow, typical, and wide-but-claimable float formats — all satisfy
#: ``fits_int64_products`` (2·(M+1) ≤ 62, E ≤ 32).
FLOAT_FORMATS = (
    FloatFormat(5, 4),
    FloatFormat(8, 14),
    FloatFormat(11, 23),
)


def _batches(rng, circuit, batch=7):
    evidence_batch = random_evidence_batch(rng, circuit, batch)
    evidence_batch.append({})  # the all-unobserved lane
    return evidence_batch


@needs_native
class TestFloat64Differential:
    """Native float64 sweeps vs the numpy executors, on any circuit."""

    def test_forward_bit_identical_on_random_circuits(self, engine_rng):
        for index in range(4):
            circuit = random_circuit(
                engine_rng, num_variables=3 + index, with_max=index % 2 == 1
            )
            tape = tape_for(circuit)
            native = native_kernels_for(tape)
            batch = _batches(engine_rng, circuit)
            expected = execute_batch(tape, batch)
            got = native.evaluate_batch(batch)
            assert (got == expected).all()
            # Node-value matrices too, not just the root row.
            expected_nodes = execute_batch(tape, batch, node_values=True)
            got_nodes = native.evaluate_batch(batch, node_values=True)
            assert (got_nodes == expected_nodes).all()

    def test_backward_bit_identical_on_random_circuits(self, engine_rng):
        for index in range(4):
            circuit = random_circuit(engine_rng, num_variables=3 + index)
            tape = tape_for(circuit)
            native = native_kernels_for(tape)
            batch = _batches(engine_rng, circuit)
            exp_values, exp_partials = execute_partials_batch(tape, batch)
            got_values, got_partials = native.partials_batch(batch)
            assert (got_values == exp_values).all()
            assert (got_partials == exp_partials).all()

    def test_scalar_calls_match_the_scalar_executors(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        native = native_kernels_for(tape)
        for evidence in (None, {}, {"Rain": 1}, {"Rain": 0, "Sprinkler": 1}):
            assert native.evaluate(evidence) == execute_real(tape, evidence)
            assert native.evaluate_values(evidence) == execute_values(
                tape, evidence
            )
            exp_values, exp_partials = execute_partials(tape, evidence)
            got_values, got_partials = native.partials(evidence)
            assert got_values == exp_values
            assert got_partials == exp_partials

    def test_strict_evidence_errors_match(self, sprinkler_binary):
        native = native_kernels_for(tape_for(sprinkler_binary))
        with pytest.raises(ValueError, match="no indicators"):
            native.evaluate({"NotAVariable": 0})
        # Lenient batch mode ignores the unknown variable, like numpy.
        got = native.evaluate_batch([{"NotAVariable": 0}])
        expected = execute_batch(tape_for(sprinkler_binary), [{}])
        assert (got == expected).all()


@needs_native
class TestFixedPointDifferential:
    """Int64 fixed-point sweeps: native vs numpy vs big-int reference."""

    def test_forward_words_bit_identical(
        self, engine_rng, random_binary_circuits
    ):
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            native = native_kernels_for(tape)
            session = InferenceSession(circuit, backend="numpy")
            batch = _batches(engine_rng, circuit, batch=5)
            active = native.encoder.encode(batch)
            for base in FIXED_FORMATS:
                for rounding in ROUNDINGS:
                    fmt = FixedPointFormat(
                        base.integer_bits, base.fraction_bits, rounding
                    )
                    executor = session._vector_executor(fmt)
                    try:
                        expected = executor._forward_planes(batch, False)[0]
                    except FixedPointOverflowError:
                        continue  # overflow parity has its own test
                    got = native.fixed_forward_words(fmt, active)
                    assert got.dtype == np.int64
                    # Every slot, scratch included — the sweeps replay
                    # the identical op stream.
                    assert (got == expected).all(), (
                        f"{fmt.describe()} on {circuit.name}"
                    )

    def test_backward_words_bit_identical(
        self, engine_rng, random_binary_circuits
    ):
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            if tape.has_max:
                continue  # derivative sweeps reject MPE circuits
            native = native_kernels_for(tape)
            session = InferenceSession(circuit, backend="numpy")
            batch = _batches(engine_rng, circuit, batch=5)
            active = native.encoder.encode(batch)
            for base in FIXED_FORMATS:
                for rounding in ROUNDINGS:
                    fmt = FixedPointFormat(
                        base.integer_bits, base.fraction_bits, rounding
                    )
                    executor = session._vector_executor(fmt)
                    try:
                        exp_slots, exp_adj = executor.partials_batch_words(
                            batch
                        )
                    except FixedPointOverflowError:
                        continue
                    got_slots, got_adj = native.fixed_backward_words(
                        fmt, active
                    )
                    n = tape.num_nodes
                    assert (got_slots[:n] == exp_slots[:n]).all()
                    assert (got_adj[:n] == exp_adj[:n]).all()

    def test_scalar_quantized_matches_bigint_reference(
        self, engine_rng, random_binary_circuits
    ):
        # Third opinion: the scalar big-int backend (no int64 tricks at
        # all) agrees with the native scalar quantized value exactly.
        from repro.engine import QuantizedTapeEvaluator

        circuit = random_binary_circuits[0]
        tape = tape_for(circuit)
        native = native_kernels_for(tape)
        evaluator = QuantizedTapeEvaluator(tape)
        batch = _batches(engine_rng, circuit, batch=3)
        for fmt in FIXED_FORMATS:
            backend = backend_for_format(fmt)
            for evidence in batch:
                expected = evaluator.evaluate(backend, evidence, strict=False)
                got = native.evaluate_quantized(fmt, evidence, strict=False)
                assert got == expected, fmt.describe()

    def test_overflow_exception_and_message_parity(self):
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit()
        params = [circuit.add_parameter(0.9) for _ in range(3)]
        # 0.9 + 0.9 + 0.9 = 2.7 overflows fixed(1, F): max ≈ 2.0.
        first = circuit.add_sum(params[:2])
        circuit.set_root(circuit.add_sum([first, params[2]]))
        fmt = FixedPointFormat(1, 10)
        tape = tape_for(circuit)
        native = native_kernels_for(tape)
        session = InferenceSession(circuit, backend="numpy")
        with pytest.raises(FixedPointOverflowError) as native_error:
            native.evaluate_quantized(fmt, {})
        with pytest.raises(FixedPointOverflowError) as numpy_error:
            session._vector_executor(fmt).evaluate_batch([{}])
        assert str(native_error.value) == str(numpy_error.value)
        assert "overflow at slot" in str(native_error.value)
        assert fmt.describe() in str(native_error.value)

    def test_wide_formats_not_claimed(self, sprinkler_binary):
        native = native_kernels_for(tape_for(sprinkler_binary))
        assert native.supports_format(FixedPointFormat(4, 20))
        assert not native.supports_format(FixedPointFormat(8, 40))  # wide
        # PR 8: int64-safe float emulation is claimed; wide floats stay
        # on the scalar big-int backend.
        assert native.supports_format(FloatFormat(8, 14))
        assert not native.supports_format(FloatFormat(8, 31))  # 2·(M+1) > 62
        assert not native.supports_format(FloatFormat(33, 10))  # E > 32


@needs_native
class TestFloatEmulationDifferential:
    """Emulated-float sweeps: native (m, e) words vs the numpy executor.

    Exceptions are part of the contract: whenever the numpy executor
    overflows or underflows on a random circuit, the native kernel must
    raise the same exception type with the identical message — the
    lanes that survive must match word-for-word.
    """

    def test_forward_words_bit_identical(
        self, engine_rng, random_binary_circuits
    ):
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            native = native_kernels_for(tape)
            session = InferenceSession(circuit, backend="numpy")
            batch = _batches(engine_rng, circuit, batch=5)
            active = native.encoder.encode(batch)
            for base in FLOAT_FORMATS:
                for rounding in ROUNDINGS:
                    fmt = FloatFormat(
                        base.exponent_bits, base.mantissa_bits, rounding
                    )
                    executor = session._vector_executor(fmt)
                    try:
                        exp_m, exp_e = executor._forward_planes(
                            batch, False
                        )
                    except (
                        FloatOverflowError,
                        FloatUnderflowError,
                    ) as numpy_error:
                        with pytest.raises(
                            type(numpy_error)
                        ) as native_error:
                            native.float_forward_words(fmt, active)
                        assert str(native_error.value) == str(numpy_error)
                        continue
                    got_m, got_e = native.float_forward_words(fmt, active)
                    assert got_m.dtype == np.int64
                    label = f"{fmt.describe()} on {circuit.name}"
                    assert (got_m == exp_m).all(), label
                    assert (got_e == exp_e).all(), label

    def test_backward_words_bit_identical(
        self, engine_rng, random_binary_circuits
    ):
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            if tape.has_max:
                continue  # derivative sweeps reject MPE circuits
            native = native_kernels_for(tape)
            session = InferenceSession(circuit, backend="numpy")
            batch = _batches(engine_rng, circuit, batch=5)
            active = native.encoder.encode(batch)
            for base in FLOAT_FORMATS:
                for rounding in ROUNDINGS:
                    fmt = FloatFormat(
                        base.exponent_bits, base.mantissa_bits, rounding
                    )
                    executor = session._vector_executor(fmt)
                    try:
                        exp_values, exp_adjoints = (
                            executor.partials_batch_words(batch)
                        )
                    except (
                        FloatOverflowError,
                        FloatUnderflowError,
                    ) as numpy_error:
                        with pytest.raises(
                            type(numpy_error)
                        ) as native_error:
                            native.float_backward_words(fmt, active)
                        assert str(native_error.value) == str(numpy_error)
                        continue
                    got_values, got_adjoints = native.float_backward_words(
                        fmt, active
                    )
                    n = tape.num_nodes
                    label = f"{fmt.describe()} on {circuit.name}"
                    for got, expected in (
                        (got_values, exp_values),
                        (got_adjoints, exp_adjoints),
                    ):
                        assert (got[0][:n] == expected[0][:n]).all(), label
                        assert (got[1][:n] == expected[1][:n]).all(), label

    def test_scalar_quantized_matches_bigint_reference(
        self, engine_rng, random_binary_circuits
    ):
        # Third opinion: the scalar big-int FloatBackend agrees with the
        # native scalar quantized value exactly.
        from repro.engine import QuantizedTapeEvaluator

        circuit = random_binary_circuits[0]
        tape = tape_for(circuit)
        native = native_kernels_for(tape)
        evaluator = QuantizedTapeEvaluator(tape)
        batch = _batches(engine_rng, circuit, batch=3)
        for fmt in FLOAT_FORMATS:
            backend = backend_for_format(fmt)
            for evidence in batch:
                try:
                    expected = evaluator.evaluate(
                        backend, evidence, strict=False
                    )
                except (FloatOverflowError, FloatUnderflowError):
                    continue  # exception parity is covered above
                got = native.evaluate_quantized(fmt, evidence, strict=False)
                assert got == expected, fmt.describe()

    def test_overflow_exception_and_message_parity(self):
        from repro.ac.circuit import ArithmeticCircuit

        # float(E=3, M=6) holds values below 32; 15 + 15 = 30 fits,
        # 30 + 15 = 45 pushes the exponent past max_exponent = 4.
        circuit = ArithmeticCircuit()
        params = [circuit.add_parameter(15.0) for _ in range(3)]
        first = circuit.add_sum(params[:2])
        circuit.set_root(circuit.add_sum([first, params[2]]))
        fmt = FloatFormat(3, 6)
        native = native_kernels_for(tape_for(circuit))
        session = InferenceSession(circuit, backend="numpy")
        with pytest.raises(FloatOverflowError) as native_error:
            native.evaluate_quantized(fmt, {})
        with pytest.raises(FloatOverflowError) as numpy_error:
            session._vector_executor(fmt).evaluate_batch([{}])
        assert str(native_error.value) == str(numpy_error.value)
        assert "overflow" in str(native_error.value)
        assert fmt.describe() in str(native_error.value)

    def test_underflow_exception_and_message_parity(self):
        from repro.ac.circuit import ArithmeticCircuit

        # 0.25 sits exactly on min_exponent = -2 of float(E=3, M=6);
        # 0.25 · 0.25 lands two binades below it.
        circuit = ArithmeticCircuit()
        left = circuit.add_parameter(0.25)
        right = circuit.add_parameter(0.25)
        circuit.set_root(circuit.add_product([left, right]))
        fmt = FloatFormat(3, 6)
        native = native_kernels_for(tape_for(circuit))
        session = InferenceSession(circuit, backend="numpy")
        with pytest.raises(FloatUnderflowError) as native_error:
            native.evaluate_quantized(fmt, {})
        with pytest.raises(FloatUnderflowError) as numpy_error:
            session._vector_executor(fmt).evaluate_batch([{}])
        assert str(native_error.value) == str(numpy_error.value)
        assert "underflow" in str(native_error.value)
        assert fmt.describe() in str(native_error.value)


def _no_parameters_circuit() -> ArithmeticCircuit:
    circuit = ArithmeticCircuit("no_parameters")
    a0, a1 = circuit.add_indicator("A", 0), circuit.add_indicator("A", 1)
    b0, b1 = circuit.add_indicator("B", 0), circuit.add_indicator("B", 1)
    circuit.set_root(
        circuit.add_sum(
            [circuit.add_product([a0, b0]), circuit.add_product([a1, b1])]
        )
    )
    return circuit


def _no_indicators_circuit() -> ArithmeticCircuit:
    circuit = ArithmeticCircuit("no_indicators")
    product = circuit.add_product(
        [circuit.add_parameter(0.3), circuit.add_parameter(0.6)]
    )
    circuit.set_root(circuit.add_sum([product, circuit.add_parameter(0.25)]))
    return circuit


def _no_ops_circuit() -> ArithmeticCircuit:
    circuit = ArithmeticCircuit("no_ops")
    circuit.add_indicator("A", 0)
    circuit.set_root(circuit.add_parameter(0.4))  # the root is a leaf
    return circuit


@needs_native
@pytest.mark.parametrize(
    "build_circuit",
    [_no_parameters_circuit, _no_indicators_circuit, _no_ops_circuit],
    ids=["no_parameters", "no_indicators", "no_ops"],
)
class TestEdgeTapes:
    """Empty tape tables reach the kernels as zero-length buffers."""

    BATCH = [{}, {"A": 0}, {"A": 1}, {"A": 1, "B": 0}]

    def test_f64_forward_and_backward(self, build_circuit):
        tape = compile_tape(build_circuit())
        native = native_kernels_for(tape)
        got = native.evaluate_batch(self.BATCH, node_values=True)
        assert (got == execute_batch(tape, self.BATCH, node_values=True)).all()
        got_values, got_partials = native.partials_batch(self.BATCH)
        exp_values, exp_partials = execute_partials_batch(tape, self.BATCH)
        assert (got_values == exp_values).all()
        assert (got_partials == exp_partials).all()

    def test_fixed_words(self, build_circuit):
        circuit = build_circuit()
        tape = compile_tape(circuit)
        native = native_kernels_for(tape)
        active = native.encoder.encode(self.BATCH)
        executor = InferenceSession(circuit, backend="numpy")._vector_executor(
            FixedPointFormat(2, 8)
        )
        fmt = executor.fmt
        expected = executor._forward_planes(self.BATCH, False)[0]
        assert (native.fixed_forward_words(fmt, active) == expected).all()
        exp_slots, exp_adj = executor.partials_batch_words(self.BATCH)
        got_slots, got_adj = native.fixed_backward_words(fmt, active)
        n = tape.num_nodes
        assert (got_slots[:n] == exp_slots[:n]).all()
        assert (got_adj[:n] == exp_adj[:n]).all()

    def test_float_words(self, build_circuit):
        circuit = build_circuit()
        tape = compile_tape(circuit)
        native = native_kernels_for(tape)
        active = native.encoder.encode(self.BATCH)
        executor = InferenceSession(circuit, backend="numpy")._vector_executor(
            FloatFormat(8, 14)
        )
        fmt = executor.fmt
        exp_m, exp_e = executor._forward_planes(self.BATCH, False)
        got_m, got_e = native.float_forward_words(fmt, active)
        assert (got_m == exp_m).all() and (got_e == exp_e).all()
        expected = executor.partials_batch_words(self.BATCH)
        got = native.float_backward_words(fmt, active)
        n = tape.num_nodes
        for got_pair, exp_pair in zip(got, expected):
            assert (got_pair[0][:n] == exp_pair[0][:n]).all()
            assert (got_pair[1][:n] == exp_pair[1][:n]).all()


@needs_native
class TestRuntimeParameterKernels:
    """θ batches through the runtime-parameter kernel entry points: each
    row bit-identical to a θ-free golden evaluation of the circuit
    re-parameterized with that row."""

    def _theta(self, tape, rows, seed=21):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.05, 0.95, size=(rows, len(tape.param_values)))

    def test_f64_theta_matches_golden(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        native = native_kernels_for(tape)
        theta = self._theta(tape, 9)
        matrix = theta_param_matrix(normalize_theta(tape, theta))
        batch = [{}] * 9
        got = native.evaluate_batch(batch, param_matrix=matrix)
        want = golden_theta_forward(sprinkler_binary, theta, {})
        assert (got == want).all()
        values, partials = native.partials_batch(batch, param_matrix=matrix)
        ref_values, ref_partials = golden_theta_partials(sprinkler_binary, theta, {})
        assert (values == ref_values).all()
        assert (partials == ref_partials).all()

    def test_fixed_theta_words_match_golden(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        native = native_kernels_for(tape)
        theta = self._theta(tape, 7, seed=22)
        root = tape.require_root()
        active = native.encoder.encode([{}] * 7)
        for rounding in ROUNDINGS:
            fmt = FixedPointFormat(8, 12, rounding)
            words = native.encode_theta(fmt, normalize_theta(tape, theta))
            got = native.fixed_forward_words(fmt, active, param_words=words)
            want = mantissas(
                golden_theta_roots(sprinkler_binary, FixedPointBackend(fmt), theta, {})
            )
            assert (got[root] == want).all(), fmt.describe()

    def test_float_theta_words_match_golden(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        native = native_kernels_for(tape)
        theta = self._theta(tape, 7, seed=23)
        root = tape.require_root()
        active = native.encoder.encode([{}] * 7)
        for rounding in ROUNDINGS:
            fmt = FloatFormat(8, 14, rounding)
            words = native.encode_theta(fmt, normalize_theta(tape, theta))
            got_m, got_e = native.float_forward_words(
                fmt, active, param_words=words
            )
            roots = golden_theta_roots(sprinkler_binary, FloatBackend(fmt), theta, {})
            want_m = mantissas(roots)
            want_e = np.asarray([word.exponent for word in roots])
            assert (got_m[root] == want_m).all(), fmt.describe()
            assert (got_e[root] == want_e).all(), fmt.describe()

    def test_quantized_theta_matches_numpy_executors(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        native = native_kernels_for(tape)
        session = InferenceSession(sprinkler_binary, backend="numpy")
        theta = self._theta(tape, 6, seed=24)
        matrix = normalize_theta(tape, theta)
        batch = [{}] * 6
        for fmt in (FixedPointFormat(8, 12), FloatFormat(8, 14)):
            executor = session._vector_executor(fmt)
            expected = executor.evaluate_batch(
                batch, param_words=executor.encode_theta(matrix)
            )
            got = native.evaluate_quantized_batch(
                fmt, batch, param_words=native.encode_theta(fmt, matrix)
            )
            assert (got == expected).all(), fmt.describe()


@needs_native
class TestSessionBackendDispatch:
    def test_auto_and_native_sessions_match_numpy_bitwise(
        self, engine_rng, random_binary_circuits
    ):
        fmt = FixedPointFormat(4, 20)
        sum_product = [
            circuit
            for circuit in random_binary_circuits
            if not tape_for(circuit).has_max
        ]
        for circuit in sum_product[:3]:
            oracle = InferenceSession(circuit, backend="numpy")
            batch = _batches(engine_rng, circuit, batch=4)
            for policy in ("auto", "native"):
                session = InferenceSession(circuit, backend=policy)
                assert session.backend == "native"
                assert session.backend_requested == policy
                assert session.backend_fallback_reason is None
                assert (
                    session.evaluate_batch(batch)
                    == oracle.evaluate_batch(batch)
                ).all()
                assert (
                    session.evaluate_quantized_batch(fmt, batch)
                    == oracle.evaluate_quantized_batch(fmt, batch)
                ).all()
                # Joints avoid normalization; random evidence may have
                # probability zero, which posteriors reject (below).
                got = session.marginals_batch(batch, joint=True)
                expected = oracle.marginals_batch(batch, joint=True)
                for variable in expected:
                    assert (got[variable] == expected[variable]).all()
                got_q = session.quantized_marginals_batch(
                    fmt, batch, joint=True
                )
                expected_q = oracle.quantized_marginals_batch(
                    fmt, batch, joint=True
                )
                for variable in expected_q:
                    assert (got_q[variable] == expected_q[variable]).all()
                # Posteriors: identical results or identical rejections.
                try:
                    expected_post = oracle.marginals_batch(batch)
                except ZeroEvidenceError as oracle_error:
                    with pytest.raises(ZeroEvidenceError) as native_error:
                        session.marginals_batch(batch)
                    assert str(native_error.value) == str(oracle_error)
                else:
                    got_post = session.marginals_batch(batch)
                    for variable in expected_post:
                        assert (
                            got_post[variable] == expected_post[variable]
                        ).all()

    def test_scalar_session_calls_match_numpy_bitwise(self, sprinkler_binary):
        native_session = InferenceSession(sprinkler_binary, backend="native")
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        fmt = FixedPointFormat(4, 20)
        for evidence in (None, {}, {"Rain": 1}):
            assert native_session.evaluate(evidence) == oracle.evaluate(
                evidence
            )
            assert native_session.evaluate_values(
                evidence
            ) == oracle.evaluate_values(evidence)
            assert native_session.partials(evidence) == oracle.partials(
                evidence
            )
            assert native_session.evaluate_quantized(
                fmt, evidence
            ) == oracle.evaluate_quantized(fmt, evidence)
            got = native_session.marginals(evidence)
            expected = oracle.marginals(evidence)
            for variable in expected:
                assert (got[variable] == expected[variable]).all()

    def test_float_formats_served_natively(self, sprinkler_binary):
        # PR 8: the native backend claims int64-safe float (mantissa,
        # exponent) emulation — the session serves it without ever
        # building the numpy executor, bit-identically.
        session = InferenceSession(sprinkler_binary, backend="native")
        fmt = FloatFormat(8, 14)
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        got = session.evaluate_quantized_batch(fmt, [{}, {"Rain": 1}])
        expected = oracle.evaluate_quantized_batch(fmt, [{}, {"Rain": 1}])
        assert (got == expected).all()
        assert session.backend_fallback_reason is None
        assert fmt not in session._executors  # numpy executor unused

    def test_wide_float_falls_back_with_reason(self, sprinkler_binary):
        session = InferenceSession(sprinkler_binary, backend="native")
        wide = FloatFormat(8, 31)  # 2·(M+1) > 62: big-int territory
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        got = session.evaluate_quantized_batch(wide, [{}, {"Rain": 1}])
        want = oracle.evaluate_quantized_batch(wide, [{}, {"Rain": 1}])
        assert (got == want).all()
        reason = session.backend_fallback_reason
        assert reason is not None and "int64" in reason
        # A following in-range call clears the recorded reason.
        session.evaluate_quantized_batch(FloatFormat(8, 14), [{}])
        assert session.backend_fallback_reason is None

    def test_theta_batches_served_natively(self, sprinkler_binary):
        session = InferenceSession(sprinkler_binary, backend="native")
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        rng = np.random.default_rng(31)
        width = len(session.tape.param_values)
        theta = rng.uniform(0.05, 0.95, size=(5, width))
        got = session.evaluate_theta_batch(theta, {"Rain": 1})
        want = oracle.evaluate_theta_batch(theta, {"Rain": 1})
        assert (got == want).all()
        assert session.backend_fallback_reason is None
        for fmt in (FixedPointFormat(8, 12), FloatFormat(8, 14)):
            got_q = session.evaluate_quantized_batch(
                fmt, [{}] * 5, theta=theta
            )
            want_q = oracle.evaluate_quantized_batch(
                fmt, [{}] * 5, theta=theta
            )
            assert (got_q == want_q).all(), fmt.describe()
            assert session.backend_fallback_reason is None
        marginals = session.marginals_batch([{}] * 5, theta=theta)
        expected = oracle.marginals_batch([{}] * 5, theta=theta)
        for variable in expected:
            assert (marginals[variable] == expected[variable]).all()

    def test_kernels_cached_per_tape(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        assert native_kernels_for(tape) is native_kernels_for(tape)
        # Sessions share the same per-tape kernels through the memo.
        session = InferenceSession(sprinkler_binary, backend="native")
        assert session._native is native_kernels_for(tape)


@needs_native
class TestSharedKernelModule:
    """One kernel module serves every tape; views never pin their tape."""

    def test_one_module_serves_every_circuit(
        self, monkeypatch, tmp_path, sprinkler_binary, asia_binary, alarm_binary
    ):
        monkeypatch.setenv("PROBLP_NATIVE_CACHE", str(tmp_path))
        # Forget this process's module, so it is built into the fresh cache.
        monkeypatch.setattr(build, "_module_outcome", None)
        compiled = build._BUILD_TOTAL.labels("compiled")
        before = compiled.value
        network = compile_network(random_network(6, seed=5)).circuit
        kernels = []
        for circuit in (
            sprinkler_binary, asia_binary, alarm_binary, binarize(network).circuit
        ):
            tape = compile_tape(circuit)
            native = NativeTapeKernels(tape)
            batch = [{}, {}]
            assert (native.evaluate_batch(batch) == execute_batch(tape, batch)).all()
            kernels.append(native)
        assert all(native._lib is kernels[0]._lib for native in kernels)
        assert compiled.value - before <= 1
        assert len(list(tmp_path.glob("*.so"))) == 1

    def test_kernels_memo_does_not_pin_its_tape(self, sprinkler_binary):
        t = compile_tape(sprinkler_binary)
        native_kernels_for(t)
        r = weakref.ref(t)
        del t
        gc.collect()
        assert r() is None

    def test_view_raises_the_tape_errors(self):
        def message(call) -> str:
            with pytest.raises(ValueError) as error:
                call()
            return str(error.value)

        rootless = ArithmeticCircuit("rootless")
        rootless.add_parameter(0.5)
        tape = tape_for(rootless)
        native = native_kernels_for(tape)
        assert message(lambda: native.evaluate({})) == message(tape.require_root)

        mpe = ArithmeticCircuit("mpe")
        mpe.set_root(
            mpe.add_max([mpe.add_parameter(0.2), mpe.add_parameter(0.7)])
        )
        tape = tape_for(mpe)
        native = native_kernels_for(tape)
        assert message(lambda: native.partials_batch([{}])) == message(
            tape.require_differentiable
        )

        nary = ArithmeticCircuit("nary")
        nary.set_root(nary.add_sum([nary.add_parameter(v) for v in (0.1, 0.2, 0.3)]))
        native = native_kernels_for(tape_for(nary))
        active = native.encoder.encode([{}])
        assert "requires a binary circuit" in message(
            lambda: native.fixed_forward_words(FixedPointFormat(4, 20), active)
        )


class TestFallback:
    """Graceful degradation — these run with or without a toolchain."""

    def test_numpy_backend_never_touches_native(self, sprinkler_binary):
        session = InferenceSession(sprinkler_binary, backend="numpy")
        assert session.backend == "numpy"
        assert session.backend_fallback_reason is None
        assert session.evaluate({}) == 1.0

    def test_env_variable_selects_backend(self, sprinkler_binary, monkeypatch):
        monkeypatch.setenv("PROBLP_BACKEND", "numpy")
        session = InferenceSession(sprinkler_binary)
        assert session.backend_requested == "numpy"
        assert session.backend == "numpy"
        # An explicit argument beats the environment.
        explicit = InferenceSession(sprinkler_binary, backend="auto")
        assert explicit.backend_requested == "auto"

    def test_unknown_backend_rejected(self, sprinkler_binary):
        with pytest.raises(ValueError, match="unknown backend"):
            InferenceSession(sprinkler_binary, backend="cuda")

    def test_broken_toolchain_falls_back_with_reason(
        self, sprinkler_binary, monkeypatch
    ):
        import repro.engine.native as native_pkg

        def broken(tape, encoder=None):
            raise NativeBuildError("no C compiler in this test")

        monkeypatch.setattr(native_pkg, "native_kernels_for", broken)
        session = InferenceSession(sprinkler_binary, backend="native")
        oracle = InferenceSession(sprinkler_binary, backend="numpy")
        assert session.backend == "numpy"
        assert "no C compiler in this test" in session.backend_fallback_reason
        # ...and every call still serves correct results on numpy.
        batch = [{}, {"Rain": 1}]
        assert (
            session.evaluate_batch(batch) == oracle.evaluate_batch(batch)
        ).all()
        fmt = FixedPointFormat(4, 20)
        assert (
            session.evaluate_quantized_batch(fmt, batch)
            == oracle.evaluate_quantized_batch(fmt, batch)
        ).all()
        got = session.marginals_batch(batch)
        expected = oracle.marginals_batch(batch)
        for variable in expected:
            assert (got[variable] == expected[variable]).all()
