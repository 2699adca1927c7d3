"""Tests for repro.ac.circuit and repro.ac.nodes."""

import pytest

from repro.ac.circuit import ArithmeticCircuit, topological_check
from repro.ac.nodes import Node, OpType


def small_circuit():
    """(θ0.3 · λA0) + (θ0.7 · λA1)"""
    circuit = ArithmeticCircuit("small")
    t1 = circuit.add_parameter(0.3)
    t2 = circuit.add_parameter(0.7)
    a0 = circuit.add_indicator("A", 0)
    a1 = circuit.add_indicator("A", 1)
    p1 = circuit.add_product([t1, a0])
    p2 = circuit.add_product([t2, a1])
    root = circuit.add_sum([p1, p2])
    circuit.set_root(root)
    return circuit


class TestNodeValidation:
    def test_operator_needs_children(self):
        with pytest.raises(ValueError, match="children"):
            Node(OpType.SUM)

    def test_parameter_needs_value(self):
        with pytest.raises(ValueError, match="value"):
            Node(OpType.PARAMETER)

    def test_parameter_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(OpType.PARAMETER, value=-0.5)

    def test_parameter_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(OpType.PARAMETER, value=float("nan"))

    def test_parameter_rejects_infinity(self):
        with pytest.raises(ValueError) as error:
            ArithmeticCircuit().add_parameter(float("inf"))
        assert str(error.value) == (
            "AC parameters must be non-negative finite numbers, got inf"
        )

    def test_indicator_needs_variable_and_state(self):
        with pytest.raises(ValueError, match="variable"):
            Node(OpType.INDICATOR)

    def test_operator_rejects_payload(self):
        with pytest.raises(ValueError, match="payload"):
            Node(OpType.SUM, children=(0,), value=1.0)

    def test_describe(self):
        assert "0.25" in Node(OpType.PARAMETER, value=0.25).describe()
        assert "λ(A=1)" == Node(OpType.INDICATOR, variable="A", state=1).describe()


class TestBuilder:
    def test_construction_and_stats(self):
        circuit = small_circuit()
        stats = circuit.stats()
        assert stats.num_parameters == 2
        assert stats.num_indicators == 2
        assert stats.num_products == 2
        assert stats.num_sums == 1
        assert stats.depth == 2
        assert stats.num_operators == 3

    def test_parameter_dedup_by_value(self):
        circuit = ArithmeticCircuit()
        a = circuit.add_parameter(0.5)
        b = circuit.add_parameter(0.5)
        assert a == b

    def test_indicator_dedup(self):
        circuit = ArithmeticCircuit()
        a = circuit.add_indicator("X", 1)
        b = circuit.add_indicator("X", 1)
        assert a == b

    def test_cse_on_operators(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        y = circuit.add_parameter(0.2)
        p1 = circuit.add_product([x, y])
        p2 = circuit.add_product([y, x])  # commutative: same node
        assert p1 == p2

    def test_cse_disabled(self):
        circuit = ArithmeticCircuit(dedup=False)
        x = circuit.add_parameter(0.1)
        y = circuit.add_parameter(0.1)
        assert x != y

    def test_unary_operator_collapses(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        assert circuit.add_sum([x]) == x
        assert circuit.add_product([x]) == x

    def test_empty_children_rejected(self):
        circuit = ArithmeticCircuit()
        with pytest.raises(ValueError, match="at least one"):
            circuit.add_sum([])

    def test_out_of_range_child_rejected(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="out of range"):
            circuit.add_sum([x, 99])

    def test_root_must_be_set(self):
        circuit = ArithmeticCircuit()
        circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="no root"):
            _ = circuit.root

    def test_root_out_of_range(self):
        circuit = ArithmeticCircuit()
        circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="out of range"):
            circuit.set_root(5)


class TestIntrospection:
    def test_indicator_queries(self):
        circuit = small_circuit()
        assert circuit.indicator_variables == ("A",)
        assert circuit.indicator_states("A") == (0, 1)
        assert len(circuit.indicators) == 2

    def test_parents_map(self):
        circuit = small_circuit()
        parents = circuit.parents_map()
        root = circuit.root
        for node_index in circuit.node(root).children:
            assert root in parents[node_index]

    def test_depths_and_topological_order(self):
        circuit = small_circuit()
        assert topological_check(circuit)
        depths = circuit.depths()
        assert depths[circuit.root] == 2

    def test_reachable_from_root(self):
        circuit = small_circuit()
        # Add an orphan node not connected to the root.
        circuit.add_parameter(0.99)
        reachable = circuit.reachable_from_root()
        assert len(reachable) == 7

    def test_is_binary(self):
        circuit = small_circuit()
        assert circuit.is_binary
        x = circuit.add_sum(
            [circuit.add_parameter(0.1)] * 3
        )
        assert not circuit.is_binary

    def test_indicator_assignment_semantics(self):
        circuit = small_circuit()
        values = circuit.indicator_assignment({"A": 1})
        assert values[("A", 0)] == 0.0
        assert values[("A", 1)] == 1.0
        no_evidence = circuit.indicator_assignment(None)
        assert set(no_evidence.values()) == {1.0}

    def test_indicator_assignment_rejects_unknown_variable(self):
        circuit = small_circuit()
        with pytest.raises(ValueError, match="no indicators"):
            circuit.indicator_assignment({"Z": 0})
