"""Differential tests: vectorized stream simulator vs per-cycle oracle.

The per-cycle :class:`~repro.hw.simulator.PipelineSimulator` (whose
registers genuinely go through X) is the specification; the vectorized
:class:`~repro.hw.stream.StreamSimulator` must be bit-identical to it —
across fixed/float formats, rounding modes, random binary circuits and
both sweep directions — including the X-propagation timing (output
invalid at cycle ``latency - 1``, valid at ``latency``).
"""

import numpy as np
import pytest

from repro.arith import FixedPointFormat, FloatFormat
from repro.arith.rounding import RoundingMode
from repro.engine import session_for, tape_analysis_for, tape_for
from repro.hw import (
    PipelineSimulator,
    StreamSimulator,
    generate_hardware,
    pack_float_word,
    schedule_pipeline,
)
from tests.conftest import all_evidence_combinations
from tests.engine.conftest import (
    random_evidence_batch,
    random_probability_circuit,
)


@pytest.fixture(scope="module")
def engine_rng():
    return np.random.default_rng(0x57E4)


@pytest.fixture(scope="module")
def random_binary_circuits(engine_rng):
    """Random binary circuits with [0,1]-bounded node values."""
    from repro.ac.transform import binarize

    circuits = []
    for index in range(6):
        circuit = random_probability_circuit(
            engine_rng,
            num_variables=3 + index % 3,
            depth=4 + index % 3,
            with_max=index % 3 == 2,
        )
        circuits.append(binarize(circuit).circuit)
    return circuits

FORWARD_FORMATS = [
    FixedPointFormat(2, 10),
    FixedPointFormat(2, 10, RoundingMode.TRUNCATE),
    FixedPointFormat(2, 12, RoundingMode.NEAREST_UP),
    FloatFormat(8, 9),
    FloatFormat(8, 9, RoundingMode.TRUNCATE),
    FloatFormat(8, 11, RoundingMode.NEAREST_UP),
]

BACKWARD_FORMATS = [
    FixedPointFormat(3, 12),
    FixedPointFormat(3, 12, RoundingMode.TRUNCATE),
    FloatFormat(9, 10),
    FloatFormat(9, 10, RoundingMode.NEAREST_UP),
]


class TestForwardDifferential:
    @pytest.mark.parametrize("fmt", FORWARD_FORMATS, ids=str)
    def test_sprinkler_stream_bit_identical(
        self, sprinkler, sprinkler_binary, fmt
    ):
        design = generate_hardware(sprinkler_binary, fmt)
        vectors = all_evidence_combinations(sprinkler)
        oracle = PipelineSimulator(design).run_stream(vectors)
        fast = StreamSimulator(design).run_stream(vectors)
        assert fast == oracle

    def test_random_circuits_fixed_and_float(
        self, engine_rng, random_binary_circuits
    ):
        for index, circuit in enumerate(random_binary_circuits):
            fmt = (
                FixedPointFormat(2, 11)
                if index % 2 == 0
                else FloatFormat(9, 9)
            )
            design = generate_hardware(circuit, fmt)
            vectors = random_evidence_batch(engine_rng, circuit, 12)
            oracle = PipelineSimulator(design).run_stream(vectors)
            fast = StreamSimulator(design).run_stream(vectors)
            assert fast == oracle

    def test_mpe_circuit_stream(self, asia_mpe):
        from repro.ac.transform import binarize

        binary = binarize(asia_mpe.circuit).circuit
        design = generate_hardware(binary, FixedPointFormat(1, 10))
        vectors = [{}, {"Xray": 1}, {"Smoking": 0}]
        oracle = PipelineSimulator(design).run_stream(vectors)
        assert StreamSimulator(design).run_stream(vectors) == oracle

    def test_wide_format_scalar_fallback(self, sprinkler, sprinkler_binary):
        fmt = FixedPointFormat(2, 40)  # 2·(I+F) > 62: big-int fallback
        design = generate_hardware(sprinkler_binary, fmt)
        simulator = StreamSimulator(design)
        assert not simulator.vectorized
        vectors = all_evidence_combinations(sprinkler)[:6]
        oracle = PipelineSimulator(design).run_stream(vectors)
        assert simulator.run_stream(vectors) == oracle

    def test_scalar_fallback_honors_strict_flag(self, sprinkler_binary):
        """Lenient evidence handling must not depend on format width."""
        fmt_wide = FixedPointFormat(2, 40)
        fmt_narrow = FixedPointFormat(2, 12)
        batch = [{"NotAVariable": 1}]
        narrow = StreamSimulator(generate_hardware(sprinkler_binary, fmt_narrow))
        wide = StreamSimulator(generate_hardware(sprinkler_binary, fmt_wide))
        lenient_narrow = narrow.output_values(batch, strict=False)
        lenient_wide = wide.output_values(batch, strict=False)
        assert lenient_narrow.shape == lenient_wide.shape == (1, 1)
        with pytest.raises(ValueError, match="no indicators"):
            narrow.output_values(batch, strict=True)
        with pytest.raises(ValueError, match="no indicators"):
            wide.output_values(batch, strict=True)


class TestBackwardDifferential:
    @pytest.mark.parametrize("fmt", BACKWARD_FORMATS, ids=str)
    def test_sprinkler_marginal_stream_bit_identical(
        self, sprinkler, sprinkler_binary, fmt
    ):
        design = generate_hardware(
            sprinkler_binary, fmt, workload="marginals"
        )
        vectors = all_evidence_combinations(sprinkler)[:12]
        oracle = PipelineSimulator(design).run_stream_outputs(vectors)
        fast = StreamSimulator(design).run_stream_outputs(vectors)
        assert fast.keys() == oracle.keys()
        for key in oracle:
            assert fast[key] == oracle[key]

    def test_random_circuits_marginal_designs(
        self, engine_rng, random_binary_circuits
    ):
        for index, circuit in enumerate(random_binary_circuits):
            if tape_for(circuit).has_max:
                continue  # derivative pass undefined for MPE circuits
            fmt = (
                FixedPointFormat(3, 11)
                if index % 2 == 0
                else FloatFormat(10, 9)
            )
            design = generate_hardware(circuit, fmt, workload="marginals")
            vectors = random_evidence_batch(engine_rng, circuit, 8)
            oracle = PipelineSimulator(design).run_stream_outputs(vectors)
            fast = StreamSimulator(design).run_stream_outputs(vectors)
            for key in oracle:
                assert fast[key] == oracle[key]

    def test_marginal_words_match_session_backward_sweep(
        self, sprinkler, sprinkler_binary
    ):
        """Simulated outputs == quantized_marginals_batch, bit for bit."""
        fmt = FloatFormat(8, 11)
        design = generate_hardware(
            sprinkler_binary, fmt, workload="marginals"
        )
        vectors = all_evidence_combinations(sprinkler)
        outputs = StreamSimulator(design).run_stream_outputs(vectors)
        joints = session_for(sprinkler_binary).quantized_marginals_batch(
            fmt, vectors, strict=True, joint=True
        )
        for (variable, state), values in outputs.items():
            assert np.array_equal(
                np.asarray(values), joints[variable][state]
            )

    def test_marginal_design_rejects_mpe(self, asia_mpe):
        from repro.ac.transform import binarize

        binary = binarize(asia_mpe.circuit).circuit
        with pytest.raises(ValueError, match="MAX"):
            generate_hardware(
                binary, FixedPointFormat(1, 10), workload="marginals"
            )


class TestXPropagationTiming:
    def test_valid_exactly_at_latency(self, sprinkler_binary):
        design = generate_hardware(sprinkler_binary, FixedPointFormat(1, 10))
        simulator = StreamSimulator(design)
        latency = design.latency_cycles
        words, valid = simulator.simulate([{}], cycles=latency + 1)
        assert not valid[latency - 1]
        assert valid[latency]

    def test_x_gap_propagates_to_the_cycle(self, sprinkler_binary):
        design = generate_hardware(sprinkler_binary, FixedPointFormat(1, 10))
        stream = [{}, None, {"WetGrass": 1}, None, {}]
        simulator = StreamSimulator(design)
        words, valid = simulator.simulate(stream)
        oracle = PipelineSimulator(design)
        for cycle, evidence in enumerate(stream):
            value = oracle.step(evidence)
            self._check_cycle(design, words, valid, cycle, value)
        for extra in range(design.latency_cycles):
            value = oracle.step(None)
            self._check_cycle(
                design, words, valid, len(stream) + extra, value
            )

    @staticmethod
    def _check_cycle(design, words, valid, cycle, oracle_value):
        if oracle_value is None:
            assert not valid[cycle]
        else:
            assert valid[cycle]
            assert words[0, cycle] == oracle_value.mantissa

    def test_constant_outputs_match_oracle_every_cycle(self):
        """Marginal outputs tied to constants are never X, like the oracle.

        ``root = λa + λb`` gives both λ leaves the constant-one adjoint,
        so the marginal design's outputs are constant wires.
        """
        from repro.ac.circuit import ArithmeticCircuit

        circuit = ArithmeticCircuit(dedup=False)
        a = circuit.add_indicator("A", 0)
        b = circuit.add_indicator("A", 1)
        circuit.set_root(circuit.add_sum([a, b]))
        design = generate_hardware(
            circuit, FixedPointFormat(2, 10), workload="marginals"
        )
        stream = [{}, {"A": 0}]
        simulator = StreamSimulator(design)
        words, valid = simulator.simulate(stream)
        oracle = PipelineSimulator(design)
        raw = [
            (oracle.step(e), oracle.output_values())
            for e in stream + [None] * design.latency_cycles
        ]
        for cycle, (_, values) in enumerate(raw):
            for index, value in enumerate(values):
                if value is not None:
                    assert words[index, cycle] == value.mantissa
        # Constant outputs are valid from cycle 0 on the oracle too.
        assert raw[0][1][0] is not None

    def test_float_words_match_oracle_cycles(self, sprinkler, sprinkler_binary):
        design = generate_hardware(sprinkler_binary, FloatFormat(7, 9))
        stream = all_evidence_combinations(sprinkler)[:5]
        words, valid = StreamSimulator(design).simulate(stream)
        oracle = PipelineSimulator(design)
        raw = [oracle.step(e) for e in stream]
        raw += [oracle.step(None) for _ in range(design.latency_cycles)]
        for cycle, value in enumerate(raw):
            if value is None:
                assert not valid[cycle]
            else:
                assert valid[cycle]
                assert words[0, cycle] == pack_float_word(value)


class TestScheduleSharing:
    def test_stages_byte_equal_forward_schedule_levels(self, alarm_binary):
        """hw stage assignment IS the engine's ForwardSchedule levels."""
        schedule = schedule_pipeline(alarm_binary)
        levels = tape_analysis_for(tape_for(alarm_binary)).schedule.levels
        assert (
            np.asarray(schedule.stages, dtype=levels.dtype).tobytes()
            == levels.tobytes()
        )

    def test_program_registers_match_schedule(self, alarm_binary):
        design = generate_hardware(alarm_binary, FixedPointFormat(1, 15))
        program = design.program
        schedule = design.schedule
        assert program.latency == schedule.latency
        assert program.operator_registers == schedule.operator_registers
        assert program.input_registers == schedule.input_registers
        assert program.balance_registers == schedule.balance_registers
        assert program.total_registers == schedule.total_registers

    def test_non_binary_raises_typed_error(self):
        from repro.ac.circuit import ArithmeticCircuit
        from repro.errors import NonBinaryCircuitError

        circuit = ArithmeticCircuit()
        parts = [circuit.add_parameter(0.2 * i) for i in range(1, 4)]
        circuit.set_root(circuit.add_sum(parts))
        with pytest.raises(NonBinaryCircuitError):
            schedule_pipeline(circuit)
        with pytest.raises(NonBinaryCircuitError):
            generate_hardware(circuit, FixedPointFormat(1, 8))


class TestMarginalDesignStructure:
    def test_outputs_one_per_indicator(self, sprinkler_binary):
        design = generate_hardware(
            sprinkler_binary, FixedPointFormat(2, 10), workload="marginals"
        )
        program = design.program
        assert len(program.output_slots) == len(program.indicator_slots)
        assert set(program.output_keys) == set(program.indicator_keys)

    def test_outputs_aligned_at_latency(self, sprinkler_binary):
        design = generate_hardware(
            sprinkler_binary, FixedPointFormat(2, 10), workload="marginals"
        )
        program = design.program
        for index in range(len(program.output_slots)):
            slot = int(program.output_slots[index])
            if program.is_constant[slot]:
                continue
            assert (
                int(program.levels[slot]) + program.output_delay(index)
                == program.latency
            )

    def test_verilog_emits_one_port_per_marginal(self, sprinkler_binary):
        design = generate_hardware(
            sprinkler_binary, FloatFormat(8, 11), workload="marginals"
        )
        text = design.verilog()
        for name in design.program.output_names:
            assert f"output wire [{design.word_bits - 1}:0] {name}" in text
            assert f"assign {name} = " in text

    def test_testbench_checks_every_output(self, sprinkler, sprinkler_binary):
        from repro.hw import emit_testbench

        design = generate_hardware(
            sprinkler_binary, FixedPointFormat(2, 10), workload="marginals"
        )
        vectors = all_evidence_combinations(sprinkler)[:4]
        text = emit_testbench(design, vectors)
        for position in range(len(design.program.output_names)):
            assert f"expected{position}[" in text

    def test_report_dict_round_trips_json(self, sprinkler_binary):
        import json

        design = generate_hardware(
            sprinkler_binary, FloatFormat(8, 11), workload="marginals"
        )
        payload = json.loads(json.dumps(design.report_dict()))
        assert payload["workload"] == "marginals"
        assert payload["outputs"] == len(design.program.output_slots)
        assert payload["registers"]["total"] == (
            design.program.total_registers
        )


def _gated_terms(circuit, values, variable=None):
    """``value · λ`` terms, each on its own variable unless one is given."""
    return [
        circuit.add_product(
            [
                circuit.add_parameter(value),
                circuit.add_indicator(variable or f"V{index}", 0),
            ]
        )
        for index, value in enumerate(values)
    ]


def _stream_design(values, combine, fmt, workload, variable=None):
    from repro.ac.circuit import ArithmeticCircuit
    from repro.ac.transform import binarize

    circuit = ArithmeticCircuit(dedup=False)
    terms = _gated_terms(circuit, values, variable)
    if variable is not None:
        # A second state keeps the root defined when λ(variable=0) is off.
        terms.append(
            circuit.add_product(
                [circuit.add_parameter(0.1), circuit.add_indicator(variable, 1)]
            )
        )
    root = circuit.add_sum(terms) if combine == "sum" else (
        circuit.add_product(terms)
    )
    circuit.set_root(root)
    return generate_hardware(binarize(circuit).circuit, fmt, workload=workload)


class TestStreamErrors:
    """Exception types and messages of the vectorized plane loop.

    The stream simulator raises the scalar backends' exceptions: fixed
    overflow names the operator (adder / multiplier) and the format,
    float overflow and underflow name the format and its exponent range.
    """

    FIXED = FixedPointFormat(1, 10)
    FLOAT = FloatFormat(3, 6)

    @pytest.mark.parametrize("workload", ["joint", "marginals"])
    @pytest.mark.parametrize("method", ["output_words", "output_values"])
    def test_fixed_forward_adder_overflow(self, workload, method):
        from repro.arith.fixedpoint import FixedPointOverflowError

        design = _stream_design([0.9, 0.9, 0.9], "sum", self.FIXED, workload)
        simulator = StreamSimulator(design)
        assert simulator.vectorized
        with pytest.raises(FixedPointOverflowError) as error:
            getattr(simulator, method)([{}])
        assert str(error.value) == "overflow at adder in fixed(I=1, F=10)"

    def test_fixed_forward_multiplier_overflow(self):
        from repro.arith.fixedpoint import FixedPointOverflowError

        design = _stream_design([1.5, 1.5], "product", self.FIXED, "joint")
        with pytest.raises(FixedPointOverflowError) as error:
            StreamSimulator(design).output_words([{}])
        assert str(error.value) == (
            "overflow at multiplier in fixed(I=1, F=10)"
        )

    def test_fixed_backward_adder_overflow(self):
        """λ(A=0)'s adjoint sums three 0.7 terms (2.1 > 2) while the
        forward pass, with A=1 observed, stays at 0.1."""
        from repro.arith.fixedpoint import FixedPointOverflowError

        evidence = [{"A": 1}]
        joint, marginals = (
            _stream_design(
                [0.7, 0.7, 0.7], "sum", self.FIXED, workload, variable="A"
            )
            for workload in ("joint", "marginals")
        )
        assert StreamSimulator(joint).output_values(evidence)[0, 0] == (
            pytest.approx(0.1, abs=2**-10)
        )
        with pytest.raises(FixedPointOverflowError) as error:
            StreamSimulator(marginals).output_words(evidence)
        assert str(error.value) == "overflow at adder in fixed(I=1, F=10)"

    @pytest.mark.parametrize("workload", ["joint", "marginals"])
    def test_float_product_underflow(self, workload):
        from repro.arith.floatingpoint import FloatUnderflowError

        design = _stream_design([0.3, 0.3], "product", self.FLOAT, workload)
        with pytest.raises(FloatUnderflowError) as error:
            StreamSimulator(design).output_words([{}])
        assert str(error.value) == (
            "underflow in float(E=3, M=6): exponent below -2; min-value "
            "analysis should pick E large enough"
        )

    @pytest.mark.parametrize("workload", ["joint", "marginals"])
    def test_float_product_overflow(self, workload):
        from repro.arith.floatingpoint import FloatOverflowError

        design = _stream_design([6.0, 6.0], "product", self.FLOAT, workload)
        with pytest.raises(FloatOverflowError) as error:
            StreamSimulator(design).output_values([{}])
        assert str(error.value) == (
            "overflow in float(E=3, M=6): exponent exceeds 4; increase "
            "exponent bits"
        )
