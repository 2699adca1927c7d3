"""Frozen seed implementations, kept as differential-test oracles.

These are verbatim copies of the pre-engine per-node sweeps from
``repro.ac.evaluate`` (the public functions there now delegate to the
tape executors). They exist so the differential test suite and the
engine benchmark can always compare the compiled-tape engine against the
original semantics — **do not optimize or "fix" these**; they are the
specification.

The scalar quantized oracle needs no copy: the generic per-node loop in
:func:`repro.ac.evaluate.evaluate_quantized` is itself retained as the
reference for all quantized executors.

θ batches need no oracle of their own either: each θ row of a batched
sweep is bit-identical to a θ-free golden evaluation of the circuit
re-parameterized with that row, so the golden sweeps here and in
:mod:`repro.ac.evaluate` cover them.

PR 3 adds the frozen **analysis** walkers: the sequential op-by-op
sweeps for max/min-value extremes, forward (1±ε) factor counts,
fixed-point error-delta propagation, and the adjoint factor counts of
the backward program — exactly the pre-vectorization implementations of
``repro.core.extremes`` / ``repro.core.bounds`` (which now delegate to
:mod:`repro.engine.analysis`). They remain the specification the
vectorized schedules are differentially tested against.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..ac.circuit import ArithmeticCircuit
from ..ac.nodes import OpType
from .tape import OP_COPY, OP_MAX, OP_PRODUCT, OP_SUM, tape_for


def reference_evaluate_values(
    circuit: ArithmeticCircuit,
    evidence: Mapping[str, int] | None = None,
) -> list[float]:
    """Seed float64 per-node sweep (pre-engine ``evaluate_values``)."""
    lambda_values = circuit.indicator_assignment(evidence)
    values: list[float] = [0.0] * len(circuit)
    for index, node in enumerate(circuit.nodes):
        if node.op is OpType.PARAMETER:
            values[index] = node.value
        elif node.op is OpType.INDICATOR:
            values[index] = lambda_values[(node.variable, node.state)]
        elif node.op is OpType.SUM:
            values[index] = sum(values[c] for c in node.children)
        elif node.op is OpType.PRODUCT:
            result = 1.0
            for child in node.children:
                result *= values[child]
            values[index] = result
        else:  # MAX
            values[index] = max(values[c] for c in node.children)
    return values


def reference_evaluate_real(
    circuit: ArithmeticCircuit,
    evidence: Mapping[str, int] | None = None,
) -> float:
    """Seed float64 root evaluation (pre-engine ``evaluate_real``)."""
    return reference_evaluate_values(circuit, evidence)[circuit.root]


def reference_partial_derivatives(
    circuit: ArithmeticCircuit,
    evidence: Mapping[str, int] | None = None,
) -> tuple[list[float], list[float]]:
    """Frozen node-walking derivative sweep (the backward-pass oracle).

    The seed's downward pass from ``repro.ac.derivatives`` (the public
    functions there now replay the compiled tape), with one repair made
    *before* freezing: the product rule runs in O(k) per k-ary product
    via a left-folded prefix table and a suffix-folded adjoint seed,
    instead of the seed's O(k²) skip-one inner loop. Children are
    visited right-to-left so contribution order — and therefore every
    float64 bit, duplicates included — matches the tape's binary fold
    chains, which compute exactly these prefix/suffix products.
    """
    for node in circuit.nodes:
        if node.op is OpType.MAX:
            raise ValueError(
                "derivative passes are undefined for MAX nodes; "
                "use a sum-product circuit"
            )
    values = reference_evaluate_values(circuit, evidence)
    partials = [0.0] * len(circuit)
    partials[circuit.root] = 1.0
    # Reverse topological order: parents before children.
    for index in range(len(circuit) - 1, -1, -1):
        node = circuit.node(index)
        seed = partials[index]
        if not node.op.is_operator or seed == 0.0:
            continue
        if node.op is OpType.SUM:
            for child in node.children:
                partials[child] += seed
        else:  # PRODUCT
            children = node.children
            arity = len(children)
            prefix = [1.0] * arity  # prefix[i] = Π values[children[:i]]
            for position in range(1, arity):
                prefix[position] = (
                    prefix[position - 1] * values[children[position - 1]]
                )
            suffix_seed = seed  # seed · Π values[children[i+1:]]
            for position in range(arity - 1, -1, -1):
                partials[children[position]] += suffix_seed * prefix[position]
                suffix_seed *= values[children[position]]
    return values, partials


def _reference_leaf_log2(tape, values: list[float], zero_marker: float) -> None:
    """Frozen leaf seeding of the log₂ analysis walkers."""
    for slot in tape.indicator_slots:
        values[slot] = 0.0  # λ extreme non-zero value is 1
    for slot, value_id in zip(tape.param_slots, tape.param_ids):
        value = float(tape.param_values[value_id])
        values[slot] = math.log2(value) if value > 0.0 else zero_marker


def reference_max_log2_values(circuit: ArithmeticCircuit) -> list[float]:
    """Frozen sequential max-value analysis (pre-vectorization sweep)."""
    tape = tape_for(circuit)
    neg_inf = float("-inf")
    values = [neg_inf] * tape.num_slots
    _reference_leaf_log2(tape, values, neg_inf)
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            left_value, right_value = values[left], values[right]
            peak = left_value if left_value >= right_value else right_value
            if peak == neg_inf:
                values[dest] = neg_inf
            else:
                values[dest] = peak + math.log2(
                    2.0 ** (left_value - peak) + 2.0 ** (right_value - peak)
                )
        elif opcode == OP_PRODUCT:
            values[dest] = values[left] + values[right]
        elif opcode == OP_MAX:
            values[dest] = max(values[left], values[right])
        else:  # OP_COPY
            values[dest] = values[left]
    return values[: tape.num_nodes]


def reference_min_log2_positive_values(
    circuit: ArithmeticCircuit,
) -> list[float]:
    """Frozen sequential min-value analysis (pre-vectorization sweep)."""
    tape = tape_for(circuit)
    pos_inf = float("inf")
    values = [pos_inf] * tape.num_slots
    _reference_leaf_log2(tape, values, pos_inf)
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_PRODUCT:
            left_value, right_value = values[left], values[right]
            if left_value == pos_inf or right_value == pos_inf:
                values[dest] = pos_inf  # identically-zero factor
            else:
                values[dest] = left_value + right_value
        elif opcode == OP_COPY:
            values[dest] = values[left]
        else:  # SUM and MAX both take the smallest non-zero child
            values[dest] = min(values[left], values[right])
    return values[: tape.num_nodes]


def reference_forward_float_counts(circuit: ArithmeticCircuit) -> list[int]:
    """Frozen sequential (1±ε) factor-count sweep (§3.1.3, eqs. 10/12)."""
    tape = tape_for(circuit)
    counts = [0] * tape.num_slots
    for slot in tape.param_slots:
        counts[slot] = 1  # one conversion rounding per θ leaf
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            counts[dest] = max(counts[left], counts[right]) + 1
        elif opcode == OP_PRODUCT:
            counts[dest] = counts[left] + counts[right] + 1
        elif opcode == OP_MAX:
            counts[dest] = max(counts[left], counts[right])
        else:  # OP_COPY
            counts[dest] = counts[left]
    return counts[: tape.num_nodes]


def reference_fixed_deltas(
    circuit: ArithmeticCircuit,
    rounding_error: float,
    max_values: Sequence[float],
) -> list[float]:
    """Frozen sequential fixed-point error-delta propagation (eqs. 3/5).

    ``rounding_error`` is the per-operation constant
    ``ulp_fraction · 2^-F``; ``max_values`` the per-node linear-domain
    maxima from extreme analysis (binary circuits: slots == nodes).
    """
    tape = tape_for(circuit)
    deltas = [0.0] * tape.num_slots
    for slot in tape.param_slots:
        deltas[slot] = rounding_error
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            deltas[dest] = deltas[left] + deltas[right]
        elif opcode == OP_PRODUCT:
            deltas[dest] = (
                max_values[left] * deltas[right]
                + max_values[right] * deltas[left]
                + deltas[left] * deltas[right]
                + rounding_error
            )
        elif opcode == OP_MAX:
            deltas[dest] = max(deltas[left], deltas[right])
        else:  # OP_COPY
            deltas[dest] = deltas[left]
    return deltas[: tape.num_nodes]


def reference_adjoint_float_counts(circuit: ArithmeticCircuit) -> list[int]:
    """Frozen sequential adjoint factor-count sweep (the PR 2 walker).

    Replays the reversed op stream with the order-dependent
    ``max(a, b) + 1`` accumulate fold and the ``None`` short-circuit on
    the first contribution into an exactly-zero adjoint — the semantics
    the vectorized closed-form fold must reproduce exactly.
    """
    tape = tape_for(circuit)
    tape.require_differentiable()
    root = tape.require_root()
    value_counts = [0] * tape.num_slots
    for slot in tape.param_slots:
        value_counts[slot] = 1
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            value_counts[dest] = max(value_counts[left], value_counts[right]) + 1
        elif opcode == OP_PRODUCT:
            value_counts[dest] = value_counts[left] + value_counts[right] + 1
        else:  # OP_COPY (MAX rejected above)
            value_counts[dest] = value_counts[left]

    adjoints: list[int | None] = [None] * tape.num_slots
    adjoints[root] = 0

    def accumulate(slot: int, contribution: int) -> None:
        current = adjoints[slot]
        adjoints[slot] = (
            contribution
            if current is None
            else max(current, contribution) + 1
        )

    for opcode, dest, left, right in tape.backward.op_tuples:
        seed = adjoints[dest]
        if seed is None:
            continue  # outside the root cone: adjoint is exactly zero
        if opcode == OP_PRODUCT:
            accumulate(left, seed + value_counts[right] + 1)
            accumulate(right, seed + value_counts[left] + 1)
        elif opcode == OP_SUM:
            accumulate(left, seed)
            accumulate(right, seed)
        else:  # OP_COPY
            accumulate(left, seed)
    return [
        0 if count is None else count
        for count in adjoints[: tape.num_nodes]
    ]


def reference_evaluate_batch(
    circuit: ArithmeticCircuit,
    evidence_batch: Sequence[Mapping[str, int]],
) -> np.ndarray:
    """Seed batched float64 sweep (pre-engine ``evaluate_batch``).

    Note the O(batch × indicators) Python indicator loop and the n-ary
    ``np.sum`` reductions — exactly what the engine replaced.
    """
    batch_size = len(evidence_batch)
    if batch_size == 0:
        return np.empty(0)
    lambda_matrix: dict[tuple[str, int], np.ndarray] = {}
    for (variable, state) in circuit.indicators:
        column = np.ones(batch_size)
        for row, evidence in enumerate(evidence_batch):
            if variable in evidence and evidence[variable] != state:
                column[row] = 0.0
        lambda_matrix[(variable, state)] = column

    values = np.empty((len(circuit), batch_size))
    for index, node in enumerate(circuit.nodes):
        if node.op is OpType.PARAMETER:
            values[index] = node.value
        elif node.op is OpType.INDICATOR:
            values[index] = lambda_matrix[(node.variable, node.state)]
        elif node.op is OpType.SUM:
            values[index] = values[list(node.children)].sum(axis=0)
        elif node.op is OpType.PRODUCT:
            values[index] = values[list(node.children)].prod(axis=0)
        else:  # MAX
            values[index] = values[list(node.children)].max(axis=0)
    return values[circuit.root].copy()

