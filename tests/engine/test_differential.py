"""Differential tests: tape executors vs the frozen seed implementations.

The acceptance bar is **bit-identical** results — not approx — against:

* the seed float64 per-node sweeps (frozen in
  :mod:`repro.engine.reference`);
* the scalar big-int quantized evaluator
  (:func:`repro.ac.evaluate.evaluate_quantized`), which exactly models
  the paper's §3.1 operator semantics;

across random circuits, random evidence batches, every rounding mode,
and both number systems (int64 fixed-point mantissas and the float
mantissa/exponent emulation).
"""

import numpy as np
import pytest

from repro.ac.evaluate import (
    evaluate_batch,
    evaluate_quantized,
    evaluate_quantized_values,
    evaluate_real,
    evaluate_values,
)
from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FloatBackend,
    FloatFormat,
    RoundingMode,
)
from repro.engine import (
    QuantizedTapeEvaluator,
    WordBatchExecutor,
    execute_values,
    tape_for,
)
from repro.engine.reference import (
    reference_evaluate_batch,
    reference_evaluate_real,
    reference_evaluate_values,
)

from .conftest import random_circuit, random_evidence_batch

ALL_ROUNDINGS = list(RoundingMode)


class TestRealDifferential:
    def test_values_bit_identical_to_seed(self, engine_rng):
        for index in range(8):
            circuit = random_circuit(
                engine_rng,
                num_variables=3 + index % 3,
                max_fanin=2 + index % 4,
                with_max=index % 2 == 1,
                zero_fraction=0.2 if index % 3 == 0 else 0.0,
            )
            tape = tape_for(circuit)
            for evidence in random_evidence_batch(engine_rng, circuit, 10):
                assert execute_values(tape, evidence) == (
                    reference_evaluate_values(circuit, evidence)
                )

    def test_wrappers_bit_identical_to_seed(self, engine_rng):
        circuit = random_circuit(engine_rng, max_fanin=5)
        for evidence in random_evidence_batch(engine_rng, circuit, 20):
            assert evaluate_real(circuit, evidence) == (
                reference_evaluate_real(circuit, evidence)
            )
            assert evaluate_values(circuit, evidence) == (
                reference_evaluate_values(circuit, evidence)
            )

    def test_batch_bit_identical_to_scalar(self, engine_rng):
        """The batched executor folds in the same order as the scalar
        one, so even last-ulp behavior matches row for row."""
        for _ in range(4):
            circuit = random_circuit(engine_rng, max_fanin=5)
            batch = random_evidence_batch(engine_rng, circuit, 30)
            batched = evaluate_batch(circuit, batch)
            scalar = np.array(
                [evaluate_real(circuit, evidence) for evidence in batch]
            )
            assert (batched == scalar).all()

    def test_batch_close_to_seed_nary_batch(self, engine_rng):
        """The seed batch used pairwise np.sum over n-ary fan-ins; the
        tape folds left-to-right. Equal on binary circuits, allclose on
        n-ary ones."""
        circuit = random_circuit(engine_rng, max_fanin=6)
        batch = random_evidence_batch(engine_rng, circuit, 25)
        np.testing.assert_allclose(
            evaluate_batch(circuit, batch),
            reference_evaluate_batch(circuit, batch),
            rtol=1e-12,
        )

    def test_batch_bit_identical_to_seed_batch_on_binary(
        self, random_binary_circuits, engine_rng
    ):
        for circuit in random_binary_circuits:
            batch = random_evidence_batch(engine_rng, circuit, 20)
            assert (
                evaluate_batch(circuit, batch)
                == reference_evaluate_batch(circuit, batch)
            ).all()


FIXED_FORMATS = [
    FixedPointFormat(2, 0),  # F = 0: the legacy vector evaluator crashed
    FixedPointFormat(1, 4),
    FixedPointFormat(1, 9),
    FixedPointFormat(3, 15),
    FixedPointFormat(2, 23),
]


class TestFixedDifferential:
    @pytest.mark.parametrize("rounding", ALL_ROUNDINGS)
    def test_batch_words_bit_identical_to_bigint(
        self, random_binary_circuits, engine_rng, rounding
    ):
        value_comparisons = 0
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            batch = random_evidence_batch(engine_rng, circuit, 12)
            for base in FIXED_FORMATS:
                fmt = FixedPointFormat(
                    base.integer_bits, base.fraction_bits, rounding
                )
                try:
                    executor = WordBatchExecutor(tape, fmt)
                except ArithmeticError:
                    # A parameter itself overflowed the format; the
                    # scalar backend must agree.
                    backend = FixedPointBackend(fmt)
                    with pytest.raises(ArithmeticError):
                        for value in tape.param_values:
                            backend.from_real(float(value))
                    continue
                backend = FixedPointBackend(fmt)
                try:
                    words = executor.evaluate_batch_words(batch)
                except ArithmeticError:
                    # Overflow must then also occur on the scalar path
                    # for at least one instance.
                    with pytest.raises(ArithmeticError):
                        for evidence in batch:
                            evaluate_quantized(circuit, backend, evidence)
                    continue
                for evidence, word in zip(batch, words):
                    reference = evaluate_quantized_values(
                        circuit, backend, evidence
                    )[circuit.root]
                    assert int(word) == reference.mantissa, (fmt, evidence)
                    value_comparisons += 1
        # The sweep must not silently degenerate into overflow-parity
        # checks only.
        assert value_comparisons > 100

    def test_f0_formats_round_products_exactly(self, random_binary_circuits):
        """Satellite regression: F=0 used to raise ValueError in
        _round_products (1 << -1)."""
        circuit = random_binary_circuits[0]
        fmt = FixedPointFormat(6, 0)
        executor = WordBatchExecutor(tape_for(circuit), fmt)
        backend = FixedPointBackend(fmt)
        values = executor.evaluate_batch([{}])
        assert values[0] == evaluate_quantized(circuit, backend, {})


FLOAT_FORMATS = [
    FloatFormat(5, 3),
    FloatFormat(6, 7),
    FloatFormat(8, 11),
    FloatFormat(8, 23),
    FloatFormat(10, 30),  # widest vectorizable mantissa
]


class TestFloatDifferential:
    @pytest.mark.parametrize("rounding", ALL_ROUNDINGS)
    def test_batch_words_bit_identical_to_bigint(
        self, random_binary_circuits, engine_rng, rounding
    ):
        value_comparisons = 0
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            batch = random_evidence_batch(engine_rng, circuit, 12)
            for base in FLOAT_FORMATS:
                fmt = FloatFormat(
                    base.exponent_bits, base.mantissa_bits, rounding
                )
                executor = WordBatchExecutor(tape, fmt)
                backend = FloatBackend(fmt)
                try:
                    mantissas, exponents = executor.evaluate_batch_words(batch)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError):
                        for evidence in batch:
                            evaluate_quantized(circuit, backend, evidence)
                    continue
                for column, evidence in enumerate(batch):
                    reference = evaluate_quantized_values(
                        circuit, backend, evidence
                    )[circuit.root]
                    assert int(mantissas[column]) == reference.mantissa
                    if not reference.is_zero:
                        assert int(exponents[column]) == reference.exponent
                    value_comparisons += 1
        assert value_comparisons > 100

    def test_float64_conversion_matches_backend(
        self, random_binary_circuits, engine_rng
    ):
        circuit = random_binary_circuits[1]
        batch = random_evidence_batch(engine_rng, circuit, 15)
        fmt = FloatFormat(9, 14)
        executor = WordBatchExecutor(tape_for(circuit), fmt)
        backend = FloatBackend(fmt)
        values = executor.evaluate_batch(batch)
        for evidence, value in zip(batch, values):
            assert value == evaluate_quantized(circuit, backend, evidence)


def _word_arrays(words):
    """A word batch as a tuple of int64 arrays: (m,) fixed, (m, e) float."""
    return words if isinstance(words, tuple) else (words,)


class TestWordBatchShapes:
    """One executor, each arithmetic's public word shapes."""

    @pytest.mark.parametrize(
        "fmt", [FixedPointFormat(2, 12), FloatFormat(8, 10)], ids=str
    )
    def test_word_shapes_and_theta_rows(
        self, engine_rng, sprinkler, sprinkler_binary, fmt
    ):
        from tests.conftest import all_evidence_combinations

        tape = tape_for(sprinkler_binary)
        executor = WordBatchExecutor(tape, fmt)
        planes = 2 if isinstance(fmt, FloatFormat) else 1
        nodes = (tape.num_nodes, 0)
        values, partials = executor.partials_batch_words([])
        for words, shape in (
            (executor.evaluate_batch_words([]), (0,)),
            (values, nodes),
            (partials, nodes),
        ):
            assert isinstance(words, tuple) == (planes == 2)
            assert len(_word_arrays(words)) == planes
            for array in _word_arrays(words):
                assert array.dtype == np.int64
                assert array.shape == shape
        assert executor.evaluate_batch([]).shape == (0,)

        evidences = all_evidence_combinations(sprinkler)[:6]
        params = np.asarray(tape.param_values, dtype=np.float64)
        theta = params * engine_rng.uniform(0.5, 1.0, (6, params.size))
        theta[0] = params  # the tape's own table: the default words
        words = executor.encode_theta(theta)
        root = _word_arrays(
            executor.evaluate_batch_words(evidences, param_words=words)
        )
        values, partials = executor.partials_batch_words(
            evidences, param_words=words
        )
        lanes = _word_arrays(values) + _word_arrays(partials)
        for lane, evidence in enumerate(evidences):
            row = executor.encode_theta(theta[lane : lane + 1])
            for whole, single in zip(_word_arrays(words), _word_arrays(row)):
                assert np.array_equal(whole[:, lane], single[:, 0])
            one = _word_arrays(
                executor.evaluate_batch_words([evidence], param_words=row)
            )
            assert [whole[lane] for whole in root] == [w[0] for w in one]
            one_values, one_partials = executor.partials_batch_words(
                [evidence], param_words=row
            )
            singles = _word_arrays(one_values) + _word_arrays(one_partials)
            for whole, single in zip(lanes, singles):
                assert np.array_equal(whole[:, lane], single[:, 0])
        default = _word_arrays(executor.evaluate_batch_words(evidences[:1]))
        assert [whole[0] for whole in root] == [w[0] for w in default]


class TestRealNetworkDifferential:
    """The random-circuit sweeps above stress structure; these pin the
    executors on real compiled Bayesian-network circuits."""

    @pytest.mark.parametrize("rounding", ALL_ROUNDINGS)
    @pytest.mark.parametrize("mantissa_bits", [5, 11, 23])
    def test_sprinkler_float_sweep(
        self, sprinkler, sprinkler_binary, rounding, mantissa_bits
    ):
        from tests.conftest import all_evidence_combinations

        fmt = FloatFormat(8, mantissa_bits, rounding)
        executor = WordBatchExecutor(tape_for(sprinkler_binary), fmt)
        backend = FloatBackend(fmt)
        evidences = all_evidence_combinations(sprinkler)
        values = executor.evaluate_batch(evidences)
        for evidence, value in zip(evidences, values):
            assert value == evaluate_quantized(
                sprinkler_binary, backend, evidence
            )

    def test_alarm_float_spot_check(self, alarm, alarm_binary):
        from repro.experiments.validation import alarm_marginal_evidences

        evidences = alarm_marginal_evidences(alarm, 15, seed=11)
        fmt = FloatFormat(9, 14)
        executor = WordBatchExecutor(tape_for(alarm_binary), fmt)
        backend = FloatBackend(fmt)
        values = executor.evaluate_batch(evidences)
        for evidence, value in zip(evidences, values):
            assert value == evaluate_quantized(alarm_binary, backend, evidence)


class TestQuantizedTapeEvaluator:
    def test_bit_identical_to_generic_evaluator(
        self, random_binary_circuits, engine_rng
    ):
        backends = [
            FixedPointBackend(FixedPointFormat(1, 13)),
            FloatBackend(FloatFormat(8, 11)),
            FixedPointBackend(FixedPointFormat(1, 9, RoundingMode.TRUNCATE)),
        ]
        for circuit in random_binary_circuits:
            evaluator = QuantizedTapeEvaluator(tape_for(circuit))
            for backend in backends:
                for evidence in random_evidence_batch(engine_rng, circuit, 6):
                    assert evaluator.evaluate(backend, evidence) == (
                        evaluate_quantized(circuit, backend, evidence)
                    )
