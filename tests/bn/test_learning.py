"""Tests for repro.bn.learning."""

import numpy as np
import pytest

from repro.bn.cpt import CPT
from repro.bn.inference import probability_of_evidence
from repro.bn.learning import (
    NetworkParameterMap,
    cpt_sensitivity_curve,
    estimate_cpt,
    fit_parameters,
    train_naive_bayes,
    what_if_evaluations,
)
from repro.bn.network import BayesianNetwork
from repro.bn.sampling import forward_sample, samples_to_array
from repro.bn.variable import Variable
from repro.errors import ThetaShapeError

A = Variable("A", ("a0", "a1"))
B = Variable("B", ("b0", "b1"))


class TestEstimateCPT:
    def test_mle_without_smoothing(self):
        data = np.array([[0], [0], [0], [1]])
        cpt = estimate_cpt(A, (), data, {"A": 0}, alpha=0.0)
        assert cpt.table.tolist() == [0.75, 0.25]

    def test_laplace_smoothing(self):
        data = np.array([[0], [0]])
        cpt = estimate_cpt(A, (), data, {"A": 0}, alpha=1.0)
        assert cpt.table.tolist() == [0.75, 0.25]

    def test_smoothing_guarantees_positive_parameters(self):
        data = np.array([[0, 0]])  # B never observed as 1
        cpt = estimate_cpt(B, (A,), data, {"A": 0, "B": 1}, alpha=1.0)
        assert cpt.table.min() > 0.0

    def test_empty_parent_config_without_smoothing_rejected(self):
        data = np.array([[0, 0]])  # parent state 1 never observed
        with pytest.raises(ValueError, match="alpha"):
            estimate_cpt(B, (A,), data, {"A": 0, "B": 1}, alpha=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_cpt(A, (), np.array([[0]]), {"A": 0}, alpha=-1.0)

    def test_conditional_counts(self):
        data = np.array([[0, 0], [0, 0], [0, 1], [1, 1]])
        cpt = estimate_cpt(B, (A,), data, {"A": 0, "B": 1}, alpha=0.0)
        assert cpt.table[0].tolist() == [2.0 / 3.0, 1.0 / 3.0]
        assert cpt.table[1].tolist() == [0.0, 1.0]


class TestFitParameters:
    def test_recovers_generating_distribution(self, sprinkler):
        samples = forward_sample(sprinkler, 6000, rng=9)
        data = samples_to_array(sprinkler, samples)
        columns = {
            name: i for i, name in enumerate(sprinkler.topological_order)
        }
        structure = [
            (
                sprinkler.variable(name),
                tuple(sprinkler.variable(p) for p in sprinkler.parents(name)),
            )
            for name in sprinkler.topological_order
        ]
        learned = fit_parameters(structure, data, columns, alpha=1.0)
        for name in sprinkler.variable_names:
            original = sprinkler.cpt(name).table
            estimate = learned.cpt(name).table
            assert np.abs(original - estimate).max() < 0.08


class TestTrainNaiveBayes:
    def _toy_data(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        features = np.array([[0, 0], [0, 1], [0, 0], [1, 1], [1, 0], [1, 1]])
        return labels, features

    def test_structure_is_naive_bayes(self):
        labels, features = self._toy_data()
        cls = Variable("C", ("c0", "c1"))
        f0 = Variable("X0", ("s0", "s1"))
        f1 = Variable("X1", ("s0", "s1"))
        net = train_naive_bayes(cls, [f0, f1], labels, features)
        assert net.roots() == ("C",)
        assert set(net.leaves()) == {"X0", "X1"}
        assert net.parents("X0") == ("C",)

    def test_shape_validation(self):
        cls = Variable("C", ("c0", "c1"))
        f0 = Variable("X0", ("s0", "s1"))
        with pytest.raises(ValueError, match="rows"):
            train_naive_bayes(
                cls, [f0], np.array([0, 1]), np.array([[0]])
            )
        with pytest.raises(ValueError, match="columns"):
            train_naive_bayes(
                cls, [f0], np.array([0]), np.array([[0, 1]])
            )
        with pytest.raises(ValueError, match="one-dimensional"):
            train_naive_bayes(
                cls, [f0], np.array([[0]]), np.array([[0]])
            )

    def test_learned_parameters_match_counts(self):
        labels, features = self._toy_data()
        cls = Variable("C", ("c0", "c1"))
        f0 = Variable("X0", ("s0", "s1"))
        f1 = Variable("X1", ("s0", "s1"))
        net = train_naive_bayes(cls, [f0, f1], labels, features, alpha=0.0)
        # All class-0 samples have X0 = 0.
        assert net.cpt("X0").table[0].tolist() == [1.0, 0.0]
        assert net.cpt("C").table.tolist() == [0.5, 0.5]


def distinct_network():
    """A small network whose CPT entries are all distinct values, so
    value deduplication maps every entry onto its own θ column."""
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    c = Variable("C", ("c0", "c1", "c2"))
    cpt_a = CPT(a, (), np.array([0.31, 0.69]))
    cpt_b = CPT(b, (a,), np.array([[0.12, 0.88], [0.26, 0.74]]))
    cpt_c = CPT(c, (b,), np.array([[0.2, 0.3, 0.5], [0.1, 0.35, 0.55]]))
    return BayesianNetwork([cpt_a, cpt_b, cpt_c], name="distinct")


def shared_network():
    """A network with one deduplicated value class (the uniform prior)."""
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    cpt_a = CPT(a, (), np.array([0.5, 0.5]))
    cpt_b = CPT(b, (a,), np.array([[0.15, 0.85], [0.4, 0.6]]))
    return BayesianNetwork([cpt_a, cpt_b], name="shared")


class TestNetworkParameterMap:
    def test_columns_index_the_tape_table(self):
        pmap = NetworkParameterMap(distinct_network())
        assert pmap.width == 12
        column = pmap.column(("B", 1, (0,)))
        assert pmap.tape.param_values[column] == 0.88
        root = pmap.column(("A", 0))
        assert pmap.tape.param_values[root] == 0.31

    def test_parent_states_as_mapping(self):
        pmap = NetworkParameterMap(distinct_network())
        assert pmap.column(("C", 2, {"B": 1})) == pmap.column(("C", 2, (1,)))

    def test_unknown_entry_rejected(self):
        pmap = NetworkParameterMap(distinct_network())
        with pytest.raises(ValueError, match="no CPT entry"):
            pmap.column(("A", 2))

    def test_shared_entries_lists_the_dedup_class(self):
        pmap = NetworkParameterMap(shared_network())
        shared = pmap.shared_entries(("A", 0))
        assert set(shared) == {("A", 0, ()), ("A", 1, ())}

    def test_theta_row_replaces_only_named_entries(self):
        pmap = NetworkParameterMap(distinct_network())
        row = pmap.theta_row({("A", 0): 0.45, ("A", 1): 0.55})
        base = pmap.base_row()
        changed = row != base
        assert changed.sum() == 2
        assert row[pmap.column(("A", 0))] == 0.45
        assert row[pmap.column(("A", 1))] == 0.55

    def test_strict_guards_the_dedup_class(self):
        pmap = NetworkParameterMap(shared_network())
        with pytest.raises(ThetaShapeError, match="also moves"):
            pmap.theta_row({("A", 0): 0.4})
        # Naming every member of the class is fine...
        row = pmap.theta_row({("A", 0): 0.4, ("A", 1): 0.4})
        assert row[pmap.column(("A", 0))] == 0.4
        # ...and strict=False opts into class-level semantics.
        relaxed = pmap.theta_row({("A", 0): 0.4}, strict=False)
        assert (relaxed == row).all()

    def test_conflicting_class_values_rejected(self):
        pmap = NetworkParameterMap(shared_network())
        with pytest.raises(ThetaShapeError, match="conflicting"):
            pmap.theta_row({("A", 0): 0.3, ("A", 1): 0.7})

    def test_empty_sweep_rejected(self):
        pmap = NetworkParameterMap(distinct_network())
        with pytest.raises(ThetaShapeError, match="at least one"):
            pmap.what_if_matrix([])

    def test_sensitivity_matrix_renormalizes_siblings(self):
        pmap = NetworkParameterMap(distinct_network())
        theta = pmap.sensitivity_matrix(("C", 0, (1,)), [0.4])
        base_complement = 1.0 - 0.1
        assert theta[0, pmap.column(("C", 0, (1,)))] == 0.4
        assert theta[0, pmap.column(("C", 1, (1,)))] == 0.35 * 0.6 / base_complement
        assert theta[0, pmap.column(("C", 2, (1,)))] == 0.55 * 0.6 / base_complement

    def test_renormalize_without_sibling_mass_rejected(self):
        a = Variable("A", ("a0", "a1"))
        d = Variable("D", ("d0", "d1"))
        net = BayesianNetwork(
            [
                CPT(a, (), np.array([0.31, 0.69])),
                CPT(d, (a,), np.array([[1.0, 0.0], [0.22, 0.78]])),
            ],
            name="degenerate",
        )
        pmap = NetworkParameterMap(net)
        with pytest.raises(ValueError, match="no mass"):
            pmap.sensitivity_matrix(("D", 0, (0,)), [0.9])


class TestBatchedWhatIf:
    def test_matches_per_theta_golden(self):
        from tests.conftest import golden_theta_forward

        network = distinct_network()
        pmap = NetworkParameterMap(network)
        sweeps = [
            {("A", 0): 0.25, ("A", 1): 0.75},
            {("B", 0, (1,)): 0.33, ("B", 1, (1,)): 0.67},
            {("C", 2, (0,)): 0.41},
        ]
        for evidence in ({}, {"C": 2}, {"A": 1, "B": 0}):
            got = what_if_evaluations(network, sweeps, evidence, pmap.circuit)
            theta = np.asarray([pmap.theta_row(s) for s in sweeps])
            want = golden_theta_forward(pmap.circuit, theta, evidence)
            assert got.shape == (3,)
            assert (got == want).all()

    def test_matches_recompiled_variant_networks(self):
        network = distinct_network()
        values = [0.05, 0.2, 0.44, 0.81]
        got = cpt_sensitivity_curve(
            network, ("C", 0, (1,)), values, evidence={"C": 0}
        )
        for value, batched in zip(values, got):
            scale = (1.0 - value) / (1.0 - 0.1)
            table = np.array(
                [[0.2, 0.3, 0.5], [value, 0.35 * scale, 0.55 * scale]]
            )
            variant = BayesianNetwork(
                [
                    network.cpt("A"),
                    network.cpt("B"),
                    CPT(network.variable("C"), (network.variable("B"),), table),
                ],
                name="variant",
            )
            assert np.isclose(
                batched, probability_of_evidence(variant, {"C": 0})
            )

    def test_no_evidence_curves_stay_normalized(self):
        network = distinct_network()
        values = [0.1, 0.3, 0.6]
        curve = cpt_sensitivity_curve(network, ("A", 0), values)
        # With every CPT row renormalized, Pr() == 1 for each θ row.
        assert np.allclose(curve, 1.0)
