"""Shared fixtures for the test suite.

Expensive objects (compiled Alarm, trained benchmarks) are session-scoped;
tests must treat them as immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ac.circuit import ArithmeticCircuit
from repro.ac.evaluate import evaluate_quantized_values
from repro.ac.nodes import OpType
from repro.ac.transform import binarize
from repro.bn.networks import (
    alarm_network,
    asia_network,
    figure1_network,
    sprinkler_network,
)
from repro.compile import compile_mpe, compile_network
from repro.core.optimizer import CircuitAnalysis
from repro.datasets import SyntheticSpec, build_benchmark
from repro.engine import tape_for
from repro.engine.reference import (
    reference_evaluate_real,
    reference_partial_derivatives,
)


@pytest.fixture(scope="session")
def sprinkler():
    return sprinkler_network()


@pytest.fixture(scope="session")
def figure1():
    return figure1_network()


@pytest.fixture(scope="session")
def asia():
    return asia_network()


@pytest.fixture(scope="session")
def alarm():
    return alarm_network()


@pytest.fixture(scope="session")
def sprinkler_ac(sprinkler):
    return compile_network(sprinkler)


@pytest.fixture(scope="session")
def sprinkler_binary(sprinkler_ac):
    return binarize(sprinkler_ac.circuit).circuit


@pytest.fixture(scope="session")
def sprinkler_analysis(sprinkler_binary):
    return CircuitAnalysis.of(sprinkler_binary)


@pytest.fixture(scope="session")
def asia_ac(asia):
    return compile_network(asia)


@pytest.fixture(scope="session")
def asia_binary(asia_ac):
    return binarize(asia_ac.circuit).circuit


@pytest.fixture(scope="session")
def asia_mpe(asia):
    return compile_mpe(asia)


@pytest.fixture(scope="session")
def alarm_ac(alarm):
    return compile_network(alarm)


@pytest.fixture(scope="session")
def alarm_binary(alarm_ac):
    return binarize(alarm_ac.circuit).circuit


@pytest.fixture(scope="session")
def alarm_analysis(alarm_binary):
    return CircuitAnalysis.of(alarm_binary)


#: A small sensor benchmark that keeps test runtime low while exercising
#: the full dataset → classifier → circuit path.
MINI_SPEC = SyntheticSpec(
    name="MINI",
    num_classes=3,
    num_features=5,
    num_states=3,
    num_samples=400,
    seed=7,
)


@pytest.fixture(scope="session")
def mini_benchmark():
    return build_benchmark(MINI_SPEC)


def all_evidence_combinations(network, variables=None):
    """Every joint assignment of the given variables (tests only)."""
    from itertools import product as iter_product

    names = variables if variables is not None else network.variable_names
    cards = [network.variable(name).cardinality for name in names]
    return [
        dict(zip(names, combo))
        for combo in iter_product(*(range(c) for c in cards))
    ]


def reparameterized(circuit, row):
    """The circuit with every parameter leaf set to its entry of the θ
    row (the tape's deduplicated table order), same node numbering.

    A θ-batched sweep must match, row by row, the θ-free golden tier run
    on this circuit (tests only)."""
    tape = tape_for(circuit)
    values = {
        int(slot): float(row[value_id])
        for slot, value_id in zip(tape.param_slots, tape.param_ids)
    }
    copy = ArithmeticCircuit(dedup=False)
    for index, node in enumerate(circuit.nodes):
        if node.op is OpType.PARAMETER:
            copy.add_parameter(values[index])
        elif node.op is OpType.INDICATOR:
            copy.add_indicator(node.variable, node.state)
        else:
            copy._add_operator(node.op, node.children)
    copy.set_root(circuit.root)
    assert len(copy) == len(circuit)
    return copy


def golden_theta_forward(circuit, theta, evidence):
    """Golden float64 root value of each re-parameterized θ row."""
    return np.asarray(
        [
            reference_evaluate_real(reparameterized(circuit, row), evidence)
            for row in theta
        ]
    )


def golden_theta_partials(circuit, theta, evidence):
    """Golden ``(values, partials)`` of each re-parameterized θ row, as
    two ``(num_nodes, n_theta)`` matrices."""
    columns = [
        reference_partial_derivatives(reparameterized(circuit, row), evidence)
        for row in theta
    ]
    return tuple(np.asarray(part).T for part in zip(*columns))


def golden_theta_roots(circuit, backend, theta, evidence):
    """Big-int quantized root value of each re-parameterized θ row."""
    sweeps = (
        evaluate_quantized_values(reparameterized(circuit, row), backend, evidence)
        for row in theta
    )
    return [values[circuit.root] for values in sweeps]


def mantissas(words):
    """The mantissas of a sequence of big-int quantized values."""
    return np.asarray([word.mantissa for word in words])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
