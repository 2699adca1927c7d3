"""Edge-case tests for the vectorized float emulation.

The differential suite sweeps random circuits; these tests corner the
executor's hard paths deliberately: guard/round/sticky alignment with
large exponent gaps, exact-zero propagation, and overflow/underflow
parity with the scalar backend.
"""

import pytest

from repro.ac.circuit import ArithmeticCircuit
from repro.ac.evaluate import evaluate_quantized
from repro.arith import FloatBackend, FloatFormat, RoundingMode
from repro.arith.floatingpoint import FloatOverflowError, FloatUnderflowError
from repro.engine import WordBatchExecutor, tape_for


def chain_product_circuit(value: float, length: int):
    """value^length · λ(A=0) as a binary product chain."""
    circuit = ArithmeticCircuit(dedup=False)
    result = circuit.add_indicator("A", 0)
    for _ in range(length):
        result = circuit.add_product([circuit.add_parameter(value), result])
    circuit.set_root(result)
    return circuit


def gap_sum_circuit(big: float, tiny_factor: float, length: int):
    """big + tiny_factor^length — forces sticky-compressed alignment."""
    circuit = ArithmeticCircuit(dedup=False)
    tiny = circuit.add_indicator("A", 0)
    for _ in range(length):
        tiny = circuit.add_product([circuit.add_parameter(tiny_factor), tiny])
    circuit.set_root(
        circuit.add_sum([circuit.add_parameter(big), tiny])
    )
    return circuit


@pytest.mark.parametrize("rounding", list(RoundingMode))
@pytest.mark.parametrize("length", [1, 3, 8, 14])
def test_large_alignment_gaps_bit_identical(rounding, length):
    """Exponent gaps beyond the guard window exercise the sticky path;
    results must still match the exact big-int backend bit for bit."""
    circuit = gap_sum_circuit(0.9, 0.3, length)
    fmt = FloatFormat(8, 7, rounding)
    executor = WordBatchExecutor(tape_for(circuit), fmt)
    backend = FloatBackend(fmt)
    for evidence in ({}, {"A": 0}, {"A": 1}):
        value = executor.evaluate_batch([evidence])[0]
        assert value == evaluate_quantized(circuit, backend, evidence)


def test_sticky_tie_cases_across_formats():
    """Sweep many (big, tiny) pairs so ties at the rounding boundary
    occur; every mode must agree with the scalar backend."""
    for rounding in RoundingMode:
        fmt = FloatFormat(9, 4, rounding)
        for numerator in range(1, 32):
            circuit = gap_sum_circuit(numerator / 16.0, 2.0 ** -9, 1)
            executor = WordBatchExecutor(tape_for(circuit), fmt)
            backend = FloatBackend(fmt)
            assert executor.evaluate_batch([{}])[0] == evaluate_quantized(
                circuit, backend, {}
            ), (rounding, numerator)


def test_zero_evidence_propagates_exactly():
    circuit = chain_product_circuit(0.5, 4)
    executor = WordBatchExecutor(tape_for(circuit), FloatFormat(5, 6))
    mantissas, exponents = executor.evaluate_batch_words(
        [{"A": 1}, {"A": 0}]
    )
    assert mantissas[0] == 0 and exponents[0] == 0
    assert mantissas[1] != 0
    values = executor.evaluate_batch([{"A": 1}, {"A": 0}])
    assert values[0] == 0.0
    assert values[1] == 0.5**4


def test_underflow_parity_with_scalar_backend():
    circuit = chain_product_circuit(0.25, 10)  # 2^-20
    fmt = FloatFormat(5, 6)  # min normal 2^-14
    executor = WordBatchExecutor(tape_for(circuit), fmt)
    backend = FloatBackend(fmt)
    with pytest.raises(FloatUnderflowError):
        evaluate_quantized(circuit, backend, {})
    with pytest.raises(FloatUnderflowError):
        executor.evaluate_batch([{}])
    # A batch mixing an underflowing lane with a clean one still raises
    # (the scalar sweep would have died on the bad instance too).
    with pytest.raises(FloatUnderflowError):
        executor.evaluate_batch([{"A": 1}, {}])


def test_overflow_parity_with_scalar_backend():
    circuit = ArithmeticCircuit(dedup=False)
    result = circuit.add_parameter(0.9)
    for _ in range(40):
        result = circuit.add_sum([result, result])  # doubles each level
    circuit.set_root(result)
    fmt = FloatFormat(5, 6)  # max exponent 16
    executor = WordBatchExecutor(tape_for(circuit), fmt)
    backend = FloatBackend(fmt)
    with pytest.raises(FloatOverflowError):
        evaluate_quantized(circuit, backend, {})
    with pytest.raises(FloatOverflowError):
        executor.evaluate_batch([{}])


def test_wide_formats_rejected():
    circuit = chain_product_circuit(0.5, 2)
    tape = tape_for(circuit)
    WordBatchExecutor(tape, FloatFormat(10, 30))  # boundary fits
    with pytest.raises(ValueError, match="big-int"):
        WordBatchExecutor(tape, FloatFormat(10, 31))
    with pytest.raises(ValueError, match="big-int"):
        WordBatchExecutor(tape, FloatFormat(33, 10))


def test_empty_batch():
    circuit = chain_product_circuit(0.5, 2)
    executor = WordBatchExecutor(tape_for(circuit), FloatFormat(8, 7))
    assert executor.evaluate_batch([]).shape == (0,)
