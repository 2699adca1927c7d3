"""Evaluation passes over arithmetic circuits.

Three evaluators are provided:

* :func:`evaluate_real` / :func:`evaluate_values` — exact float64 forward
  pass, the reference the paper measures errors against;
* :func:`evaluate_batch` — numpy-vectorized float64 evaluation over a
  whole test set at once;
* :func:`evaluate_quantized` — forward pass in an arbitrary quantized
  number system (fixed- or floating-point simulators from
  :mod:`repro.arith`), which must implement :class:`QuantizedBackend`.

The float64 entry points are thin wrappers over the compiled-tape
engine (:mod:`repro.engine`): the circuit is linearized once into a
cached :class:`~repro.engine.tape.Tape` and each call replays the tape.
Results are bit-identical to the original per-node sweeps (which are
preserved verbatim in :mod:`repro.engine.reference` and differentially
tested against the engine).

``evaluate_quantized`` / ``evaluate_quantized_values`` intentionally
keep the original per-node loop: they are the golden reference all
accelerated quantized executors are validated against.

Quantized evaluation requires a **binary** circuit: every rounding the
hardware performs corresponds to exactly one two-input operator, so
evaluating an n-ary node would silently disagree with the error analysis
and with the generated hardware. Use :func:`repro.ac.transform.binarize`
first.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from .circuit import ArithmeticCircuit
from .nodes import OpType


class QuantizedBackend(Protocol):
    """Number-system interface for quantized evaluation.

    Implementations live in :mod:`repro.arith`. Values are opaque to the
    evaluator; only the backend creates and combines them.
    """

    def from_real(self, x: float) -> Any:
        """Quantize a real number (rounding to nearest)."""

    def zero(self) -> Any:
        """The exact number 0."""

    def one(self) -> Any:
        """The exact number 1."""

    def add(self, a: Any, b: Any) -> Any:
        """Quantized addition."""

    def multiply(self, a: Any, b: Any) -> Any:
        """Quantized multiplication."""

    def maximum(self, a: Any, b: Any) -> Any:
        """Exact maximum (comparison only, no rounding)."""

    def to_real(self, a: Any) -> float:
        """Convert back to a float64 real number."""


def evaluate_values(
    circuit: ArithmeticCircuit,
    evidence: Mapping[str, int] | None = None,
) -> list[float]:
    """Float64 value of every node under the given evidence."""
    # Imported lazily: repro.ac.__init__ loads this module while the
    # engine package (which imports repro.ac.circuit) may still be
    # initializing.
    from ..engine import execute_values, tape_for

    return execute_values(tape_for(circuit), evidence)


def evaluate_real(
    circuit: ArithmeticCircuit,
    evidence: Mapping[str, int] | None = None,
) -> float:
    """Float64 value of the root under the given evidence."""
    from ..engine import execute_real, tape_for

    return execute_real(tape_for(circuit), evidence)


def evaluate_batch(
    circuit: ArithmeticCircuit,
    evidence_batch: Sequence[Mapping[str, int]],
) -> np.ndarray:
    """Float64 root values for a batch of evidence assignments.

    Vectorizes over the batch: one numpy operation per level segment.
    Returns an array of shape ``(len(evidence_batch),)``.
    """
    from ..engine import execute_batch, tape_for

    return execute_batch(tape_for(circuit), evidence_batch)


def evaluate_quantized_values(
    circuit: ArithmeticCircuit,
    backend: QuantizedBackend,
    evidence: Mapping[str, int] | None = None,
) -> list[Any]:
    """Quantized value of every node; see module docstring for semantics."""
    if not circuit.is_binary:
        raise ValueError(
            "quantized evaluation requires a binary circuit; apply "
            "repro.ac.transform.binarize first"
        )
    lambda_values = circuit.indicator_assignment(evidence)
    one = backend.one()
    zero = backend.zero()
    values: list[Any] = [None] * len(circuit)
    for index, node in enumerate(circuit.nodes):
        if node.op is OpType.PARAMETER:
            values[index] = backend.from_real(node.value)
        elif node.op is OpType.INDICATOR:
            lam = lambda_values[(node.variable, node.state)]
            values[index] = one if lam == 1.0 else zero
        else:
            left = values[node.children[0]]
            if len(node.children) == 1:
                values[index] = left
                continue
            right = values[node.children[1]]
            if node.op is OpType.SUM:
                values[index] = backend.add(left, right)
            elif node.op is OpType.PRODUCT:
                values[index] = backend.multiply(left, right)
            else:  # MAX
                values[index] = backend.maximum(left, right)
    return values


def evaluate_quantized(
    circuit: ArithmeticCircuit,
    backend: QuantizedBackend,
    evidence: Mapping[str, int] | None = None,
) -> float:
    """Quantized root value, converted back to float64."""
    values = evaluate_quantized_values(circuit, backend, evidence)
    return backend.to_real(values[circuit.root])
