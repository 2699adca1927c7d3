"""InferenceSession: caching, dispatch, and framework integration."""

import numpy as np
import pytest

from repro.ac.evaluate import evaluate_quantized, evaluate_real
from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FixedPointOverflowError,
    FloatFormat,
)
from repro.core import ErrorTolerance, ProbLP, QueryType
from repro.engine import (
    FixedPointBatchExecutor,
    InferenceSession,
    session_for,
    tape_for,
)
from tests.conftest import all_evidence_combinations


class TestSessionDispatch:
    def test_exact_matches_legacy(self, sprinkler, sprinkler_binary):
        session = InferenceSession(sprinkler_binary)
        evidences = all_evidence_combinations(sprinkler)
        batch = session.evaluate_batch(evidences)
        for evidence, value in zip(evidences, batch):
            assert session.evaluate(evidence) == value
            assert value == evaluate_real(sprinkler_binary, evidence)

    @pytest.mark.parametrize(
        "fmt",
        [
            FixedPointFormat(1, 12),
            FixedPointFormat(2, 0),
            FloatFormat(8, 14),
            FixedPointFormat(1, 40),  # beyond int64: scalar fallback
            FloatFormat(8, 45),  # beyond int64: scalar fallback
        ],
    )
    def test_quantized_batch_matches_scalar_backend(
        self, sprinkler, sprinkler_binary, fmt
    ):
        session = InferenceSession(sprinkler_binary)
        evidences = all_evidence_combinations(sprinkler)
        values = session.evaluate_quantized_batch(fmt, evidences)
        backend = session._backend(fmt)
        for evidence, value in zip(evidences, values):
            assert value == evaluate_quantized(
                sprinkler_binary, backend, evidence
            )

    def test_supports_vectorized(self, sprinkler_binary):
        session = InferenceSession(sprinkler_binary)
        assert session.supports_vectorized(FixedPointFormat(1, 30))
        assert not session.supports_vectorized(FixedPointFormat(1, 31))
        assert session.supports_vectorized(FloatFormat(8, 30))
        assert not session.supports_vectorized(FloatFormat(8, 31))
        assert not session.supports_vectorized(FloatFormat(40, 10))

    def test_scalar_quantized_accepts_backend_or_format(
        self, sprinkler_binary
    ):
        session = InferenceSession(sprinkler_binary)
        fmt = FixedPointFormat(1, 10)
        assert session.evaluate_quantized(fmt, {}) == (
            session.evaluate_quantized(FixedPointBackend(fmt), {})
        )

    def test_executor_caches_are_per_format(self, sprinkler_binary):
        # numpy backend: the per-format executor cache is a numpy-path
        # artifact (the native path compiles one module for all formats).
        session = InferenceSession(sprinkler_binary, backend="numpy")
        fmt = FixedPointFormat(1, 12)
        session.evaluate_quantized_batch(fmt, [{}])
        first = session._fixed_batch[fmt]
        session.evaluate_quantized_batch(FixedPointFormat(1, 12), [{}])
        assert session._fixed_batch[FixedPointFormat(1, 12)] is first


class TestQuantizedGuards:
    def test_quantized_requires_binary_circuit(self):
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit()
        parts = [circuit.add_parameter(0.1 * k) for k in range(1, 4)]
        circuit.set_root(circuit.add_sum(parts))
        session = InferenceSession(circuit)
        # Exact float64 serving works on any circuit...
        assert session.evaluate({}) == pytest.approx(0.6)
        # ...but quantized paths must reject n-ary decompositions, like
        # the legacy evaluators did.
        with pytest.raises(ValueError, match="binary"):
            session.evaluate_quantized(FixedPointFormat(1, 8), {})
        with pytest.raises(ValueError, match="binary"):
            session.evaluate_quantized_batch(FixedPointFormat(1, 8), [{}])
        with pytest.raises(ValueError, match="binary"):
            session.evaluate_quantized_batch(FloatFormat(8, 10), [{}])

    def test_batch_leniency_consistent_across_formats(self, sprinkler_binary):
        """Unknown evidence variables are ignored identically on the
        vectorized path and the wide-format scalar fallback."""
        session = InferenceSession(sprinkler_binary)
        evidence = [{"NotAVariable": 1}]
        narrow = session.evaluate_quantized_batch(
            FixedPointFormat(1, 15), evidence
        )
        wide = session.evaluate_quantized_batch(
            FixedPointFormat(1, 40), evidence
        )
        assert narrow[0] == pytest.approx(wide[0], abs=2**-14)
        with pytest.raises(ValueError, match="no indicators"):
            session.evaluate_quantized_batch(
                FixedPointFormat(1, 15), evidence, strict=True
            )
        with pytest.raises(ValueError, match="no indicators"):
            session.evaluate_quantized_batch(
                FixedPointFormat(1, 40), evidence, strict=True
            )


class TestSessionCache:
    def test_session_for_reuses_and_shares_tape(self, sprinkler_binary):
        session = session_for(sprinkler_binary)
        assert session_for(sprinkler_binary) is session
        assert session.tape is tape_for(sprinkler_binary)

    def test_session_refreshes_when_circuit_grows(self):
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit()
        a = circuit.add_parameter(0.5)
        b = circuit.add_indicator("A", 0)
        circuit.set_root(circuit.add_product([a, b]))
        before = session_for(circuit)
        circuit.set_root(
            circuit.add_sum([circuit.root, circuit.add_parameter(0.25)])
        )
        after = session_for(circuit)
        assert after is not before
        assert after.evaluate({"A": 0}) == pytest.approx(0.75)


class TestFrameworkIntegration:
    def test_problp_session_is_cached(self, sprinkler_ac):
        framework = ProbLP(
            sprinkler_ac, QueryType.MARGINAL, ErrorTolerance.absolute(0.01)
        )
        assert framework.session is framework.session
        assert framework.session.circuit is framework.binary_circuit

    def test_problp_quantized_batch_matches_scalar(
        self, sprinkler, sprinkler_ac
    ):
        framework = ProbLP(
            sprinkler_ac, QueryType.MARGINAL, ErrorTolerance.absolute(0.01)
        )
        result = framework.analyze()
        fmt = result.selected_format
        evidences = all_evidence_combinations(sprinkler)
        batch = framework.evaluate_quantized_batch(fmt, evidences)
        for evidence, value in zip(evidences, batch):
            assert value == framework.evaluate_quantized(fmt, evidence)
        exact = framework.evaluate_batch(evidences)
        assert np.abs(exact - batch).max() <= result.selected.query_bound


class TestVectorizedFixedPoint:
    """The int64 fixed-point arm behind evaluate_quantized_batch."""

    def test_f0_format_bit_exact(self, sprinkler, sprinkler_binary):
        """F=0 raised ValueError (1 << -1) in the pre-engine int64
        evaluator's product rounding."""
        fmt = FixedPointFormat(4, 0)
        session = InferenceSession(sprinkler_binary, backend="numpy")
        backend = FixedPointBackend(fmt)
        evidences = all_evidence_combinations(sprinkler)
        values = session.evaluate_quantized_batch(fmt, evidences)
        for evidence, value in zip(evidences, values):
            assert value == evaluate_quantized(
                sprinkler_binary, backend, evidence
            )

    def test_alarm_batch_and_scalar_bit_exact(self, alarm, alarm_binary):
        from repro.bn.sampling import forward_sample

        fmt = FixedPointFormat(1, 15)
        session = InferenceSession(alarm_binary, backend="numpy")
        backend = FixedPointBackend(fmt)
        leaves = alarm.leaves()
        evidences = [
            {leaf: s[leaf] for leaf in leaves}
            for s in forward_sample(alarm, 10, rng=31)
        ]
        batch = session.evaluate_quantized_batch(fmt, evidences)
        for evidence, value in zip(evidences, batch):
            reference = evaluate_quantized(alarm_binary, backend, evidence)
            assert value == reference
            assert session.evaluate_quantized(backend, evidence) == reference

    def test_wide_format_rejected(self, sprinkler_binary):
        with pytest.raises(ValueError, match="int64"):
            FixedPointBatchExecutor(
                tape_for(sprinkler_binary), FixedPointFormat(1, 40)
            )

    def test_overflow_detected(self):
        from repro.ac.circuit import ArithmeticCircuit
        from repro.ac.transform import binarize

        circuit = ArithmeticCircuit(dedup=False)
        leaves = [circuit.add_indicator("X", i) for i in range(4)]
        circuit.set_root(circuit.add_sum(leaves))
        binary = binarize(circuit).circuit
        session = InferenceSession(binary, backend="numpy")
        with pytest.raises(FixedPointOverflowError):
            session.evaluate_quantized_batch(FixedPointFormat(1, 8), [{}])

    def test_empty_batch(self, sprinkler_binary):
        session = InferenceSession(sprinkler_binary, backend="numpy")
        values = session.evaluate_quantized_batch(FixedPointFormat(1, 12), [])
        assert values.shape == (0,)
