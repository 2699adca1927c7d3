"""Differential tests for the backward (derivative) tape sweep.

The acceptance bar mirrors the forward engine:

* float64 backward executors are **bit-identical** to the frozen
  node-walking oracle (`repro.engine.reference.reference_partial_derivatives`)
  and to each other (scalar vs batched, column for column);
* quantized backward executors are **bit-identical** to replaying the
  same sweep with the scalar big-int backends
  (:meth:`QuantizedTapeEvaluator.partials`), across formats and every
  rounding mode, with overflow parity;
* posterior marginals agree with exact variable elimination
  (`repro.bn.inference.marginal`) on random networks;
* MAX circuits and zero-probability evidence are rejected with typed
  errors on every entry point.
"""

import numpy as np
import pytest

from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FloatBackend,
    FloatFormat,
    RoundingMode,
)
from repro.bn.inference import marginal
from repro.bn.networks import random_network
from repro.compile import compile_network
from repro.engine import (
    InferenceSession,
    QuantizedTapeEvaluator,
    WordBatchExecutor,
    ZeroEvidenceError,
    execute_partials,
    execute_partials_batch,
    session_for,
    tape_for,
)
from repro.engine.reference import reference_partial_derivatives

from .conftest import random_circuit, random_evidence_batch

ALL_ROUNDINGS = list(RoundingMode)


class TestRealBackwardDifferential:
    def test_partials_bit_identical_to_frozen_oracle(self, engine_rng):
        """The chain backward pass applies exactly the oracle's
        prefix/suffix product rule — down to the last ulp, n-ary fan-ins
        and duplicate children included."""
        for index in range(8):
            circuit = random_circuit(
                engine_rng,
                num_variables=3 + index % 3,
                max_fanin=2 + index % 4,
                zero_fraction=0.2 if index % 3 == 0 else 0.0,
            )
            tape = tape_for(circuit)
            for evidence in random_evidence_batch(engine_rng, circuit, 8):
                values, partials = execute_partials(tape, evidence)
                ref_values, ref_partials = reference_partial_derivatives(
                    circuit, evidence
                )
                assert values == ref_values
                assert partials == ref_partials

    def test_batch_bit_identical_to_scalar(self, engine_rng):
        for _ in range(4):
            circuit = random_circuit(engine_rng, max_fanin=5)
            tape = tape_for(circuit)
            batch = random_evidence_batch(engine_rng, circuit, 16)
            values, partials = execute_partials_batch(tape, batch)
            assert values.shape == partials.shape == (len(circuit), 16)
            for column, evidence in enumerate(batch):
                s_values, s_partials = execute_partials(tape, evidence)
                assert (values[:, column] == s_values).all()
                assert (partials[:, column] == s_partials).all()

    def test_wrapper_bit_identical(self, engine_rng):
        from repro.ac.derivatives import partial_derivatives

        circuit = random_circuit(engine_rng, max_fanin=6)
        for evidence in random_evidence_batch(engine_rng, circuit, 5):
            assert partial_derivatives(circuit, evidence) == (
                reference_partial_derivatives(circuit, evidence)
            )

    def test_empty_batch(self, sprinkler_ac):
        tape = tape_for(sprinkler_ac.circuit)
        values, partials = execute_partials_batch(tape, [])
        assert values.shape == partials.shape == (len(sprinkler_ac.circuit), 0)


class TestMarginalsVsVariableElimination:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_networks_batch(self, seed):
        """Batched all-marginals agree with per-variable VE."""
        network = random_network(6, max_parents=2, seed=seed + 100)
        circuit = compile_network(network).circuit
        session = session_for(circuit)
        rng = np.random.default_rng(seed)
        batch = []
        for _ in range(4):
            evidence = {}
            for name in network.variable_names:
                if rng.random() < 0.4:
                    evidence[name] = int(
                        rng.integers(network.variable(name).cardinality)
                    )
            batch.append(evidence)
        try:
            posteriors = session.marginals_batch(batch)
        except ZeroEvidenceError:
            # A sampled evidence combination can be impossible; VE must
            # agree that it is.
            for evidence in batch:
                from repro.bn.inference import probability_of_evidence

                if probability_of_evidence(network, evidence) == 0.0:
                    return
            raise
        for row, evidence in enumerate(batch):
            for variable in network.variable_names:
                if variable in evidence:
                    continue
                expected = marginal(network, variable, evidence)
                np.testing.assert_allclose(
                    posteriors[variable][:, row], expected, atol=1e-12
                )

    def test_joint_marginals_sum_to_evidence_probability(
        self, alarm, alarm_ac
    ):
        session = session_for(alarm_ac.circuit)
        evidence = {"BP": 0, "HRBP": 0}
        joints = session.marginals(evidence, joint=True)
        pr_e = session.evaluate(evidence)
        for variable, joint in joints.items():
            if variable in evidence:
                continue
            assert joint.sum() == pytest.approx(pr_e, rel=1e-12)

    def test_network_posterior_marginals_method(self, sprinkler):
        """The bn-layer front end serves every posterior via the tape."""
        evidence = {"WetGrass": 1}
        posteriors = sprinkler.posterior_marginals(evidence)
        for variable in sprinkler.variable_names:
            if variable in evidence:
                continue
            np.testing.assert_allclose(
                posteriors[variable],
                marginal(sprinkler, variable, evidence),
                atol=1e-12,
            )
        # The compiled circuit is cached on the network.
        assert sprinkler._marginal_circuit is sprinkler._marginal_circuit


BACKWARD_FIXED_FORMATS = [
    FixedPointFormat(4, 0),  # integer-only: nothing to round in products
    FixedPointFormat(2, 4),
    FixedPointFormat(2, 9),
    FixedPointFormat(4, 15),
    FixedPointFormat(3, 23),
]

BACKWARD_FLOAT_FORMATS = [
    FloatFormat(6, 3),
    FloatFormat(7, 7),
    FloatFormat(8, 11),
    FloatFormat(9, 23),
    FloatFormat(10, 30),  # widest vectorizable mantissa
]


class TestQuantizedBackwardDifferential:
    @pytest.mark.parametrize("rounding", ALL_ROUNDINGS)
    def test_fixed_bit_identical_to_bigint(
        self, random_binary_circuits, engine_rng, rounding
    ):
        value_comparisons = 0
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            if tape.has_max:  # MPE circuits are not differentiable
                continue
            evaluator = QuantizedTapeEvaluator(tape)
            batch = random_evidence_batch(engine_rng, circuit, 6)
            for base in BACKWARD_FIXED_FORMATS:
                fmt = FixedPointFormat(
                    base.integer_bits, base.fraction_bits, rounding
                )
                backend = FixedPointBackend(fmt)
                executor = WordBatchExecutor(tape, fmt)
                try:
                    _, words = executor.partials_batch_words(batch)
                except ArithmeticError:
                    # Adjoints overflowed the format; the big-int sweep
                    # must overflow on at least one instance too.
                    with pytest.raises(ArithmeticError):
                        for evidence in batch:
                            evaluator.partials(backend, evidence, strict=False)
                    continue
                for column, evidence in enumerate(batch):
                    _, adjoints = evaluator.partials(
                        backend, evidence, strict=False
                    )
                    expected = [a.mantissa for a in adjoints]
                    assert words[:, column].tolist() == expected, (
                        fmt.describe(),
                        evidence,
                    )
                    value_comparisons += 1
        assert value_comparisons > 60

    @pytest.mark.parametrize("rounding", ALL_ROUNDINGS)
    def test_float_bit_identical_to_bigint(
        self, random_binary_circuits, engine_rng, rounding
    ):
        value_comparisons = 0
        for circuit in random_binary_circuits:
            tape = tape_for(circuit)
            if tape.has_max:  # MPE circuits are not differentiable
                continue
            evaluator = QuantizedTapeEvaluator(tape)
            batch = random_evidence_batch(engine_rng, circuit, 6)
            for base in BACKWARD_FLOAT_FORMATS:
                fmt = FloatFormat(
                    base.exponent_bits, base.mantissa_bits, rounding
                )
                backend = FloatBackend(fmt)
                executor = WordBatchExecutor(tape, fmt)
                try:
                    _, (adj_m, adj_e) = executor.partials_batch_words(batch)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError):
                        for evidence in batch:
                            evaluator.partials(backend, evidence, strict=False)
                    continue
                for column, evidence in enumerate(batch):
                    _, adjoints = evaluator.partials(
                        backend, evidence, strict=False
                    )
                    for node, adjoint in enumerate(adjoints):
                        assert int(adj_m[node, column]) == adjoint.mantissa, (
                            fmt.describe(),
                            node,
                        )
                        if not adjoint.is_zero:
                            assert (
                                int(adj_e[node, column]) == adjoint.exponent
                            )
                    value_comparisons += 1
        assert value_comparisons > 60

    def test_sprinkler_quantized_marginals_all_paths_agree(
        self, sprinkler, sprinkler_binary
    ):
        """Vectorized fixed, vectorized float and the scalar big-int
        fallback all serve the same quantized marginals."""
        from tests.conftest import all_evidence_combinations

        session = session_for(sprinkler_binary)
        evidences = all_evidence_combinations(sprinkler, ["WetGrass"])
        narrow = session.quantized_marginals_batch(
            FixedPointFormat(4, 24), evidences
        )
        wide = session.quantized_marginals_batch(
            FixedPointFormat(4, 40), evidences
        )
        exact = session.marginals_batch(evidences)
        for variable in exact:
            assert np.abs(narrow[variable] - exact[variable]).max() < 1e-4
            assert np.abs(wide[variable] - exact[variable]).max() < 1e-9

    def test_adjoint_count_bound_holds_exhaustively(self, sprinkler_binary):
        """The backward factor-count bound covers every posterior of
        every evidence assignment."""
        from repro.core.bounds import propagate_adjoint_float_counts
        from tests.conftest import all_evidence_combinations
        from repro.bn.networks import sprinkler_network

        counts = propagate_adjoint_float_counts(sprinkler_binary)
        session = session_for(sprinkler_binary)
        evidences = all_evidence_combinations(
            sprinkler_network(), ["WetGrass", "Cloudy"]
        )
        for bits in (6, 11, 17):
            bound = counts.posterior_bound(bits)
            quantized = session.quantized_marginals_batch(
                FloatFormat(8, bits), evidences
            )
            exact = session.marginals_batch(evidences)
            worst = max(
                float(np.abs(quantized[v] - exact[v]).max()) for v in exact
            )
            assert worst <= bound


class TestBackwardGuards:
    def test_max_circuit_rejected_everywhere(self, asia_mpe):
        circuit = asia_mpe.circuit
        tape = tape_for(circuit)
        session = session_for(circuit)
        with pytest.raises(ValueError, match="MAX"):
            execute_partials(tape, None)
        with pytest.raises(ValueError, match="MAX"):
            execute_partials_batch(tape, [{}])
        with pytest.raises(ValueError, match="MAX"):
            session.marginals({})
        with pytest.raises(ValueError, match="MAX"):
            session.marginals_batch([{}])

    def test_max_rejected_on_quantized_backward(self, asia_mpe):
        from repro.ac.transform import binarize

        binary = binarize(asia_mpe.circuit).circuit
        tape = tape_for(binary)
        fmt = FixedPointFormat(2, 12)
        with pytest.raises(ValueError, match="MAX"):
            WordBatchExecutor(tape, fmt).partials_batch([{}])
        with pytest.raises(ValueError, match="MAX"):
            QuantizedTapeEvaluator(tape).partials(FixedPointBackend(fmt), {})

    def test_zero_evidence_typed_error(self):
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit()
        lam_a = circuit.add_indicator("A", 0)
        lam_b = circuit.add_indicator("B", 0)
        circuit.set_root(circuit.add_product([lam_a, lam_b]))
        session = session_for(circuit)
        with pytest.raises(ZeroEvidenceError):
            session.marginals({"B": 1})
        with pytest.raises(ZeroEvidenceError, match=r"instance\(s\) \[1\]"):
            session.marginals_batch([{}, {"B": 1}])
        # ...but the unnormalized joints are always defined.
        joints = session.marginals_batch([{}, {"B": 1}], joint=True)
        assert joints["A"][:, 1].sum() == 0.0
        # And it is still a ZeroDivisionError for legacy callers.
        assert issubclass(ZeroEvidenceError, ZeroDivisionError)

    def test_zero_evidence_in_quantized_batch(self):
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit()
        lam_a = circuit.add_indicator("A", 0)
        lam_b = circuit.add_indicator("B", 0)
        circuit.set_root(circuit.add_product([lam_a, lam_b]))
        session = session_for(circuit)
        with pytest.raises(ZeroEvidenceError, match="fixed"):
            session.quantized_marginals_batch(
                FixedPointFormat(2, 10), [{"B": 1}]
            )


class TestBackwardProgramCaching:
    def test_backward_program_cached_on_tape(self, sprinkler_binary):
        tape = tape_for(sprinkler_binary)
        assert tape.backward is tape.backward
        assert tape.backward.op_tuples == tape.op_tuples[::-1]

    def test_session_marginal_index_cached(self, sprinkler_binary):
        session = session_for(sprinkler_binary)
        assert session.marginal_index is session.marginal_index
        assert set(session.marginal_index.variables) == set(
            sprinkler_binary.indicator_variables
        )

    def test_backward_executors_share_forward_cache(self, sprinkler_binary):
        """Quantized marginals reuse the per-format executor the forward
        batch path compiled (per-format caching, one executor each).
        Pins the numpy backend: the cache under test is the numpy
        per-format executor one, which the native path bypasses."""
        session = InferenceSession(sprinkler_binary, backend="numpy")
        fmt = FixedPointFormat(4, 20)
        session.evaluate_quantized_batch(fmt, [{}])
        executor = session._executors[fmt]
        session.quantized_marginals_batch(fmt, [{}])
        assert session._executors[fmt] is executor
