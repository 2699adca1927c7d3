"""The datapath IR of generated hardware: a tape lowered to a netlist.

A :class:`DatapathProgram` is the single-assignment op stream one
pipelined datapath implements, derived from the compiled
:class:`~repro.engine.tape.Tape` — the same artifact every software
sweep replays — so analysis, netlist, Verilog and both simulators share
one source of structural truth:

* the **forward** program is the tape's op stream verbatim (binary
  circuits compile to exactly one op per operator node, slot indices
  coincide with node indices) with the circuit root as its one output;
* the **marginals** program appends the tape's cached
  :class:`~repro.engine.tape.BackwardProgram` in SSA form: every adjoint
  accumulation allocates a fresh slot, product-rule contributions become
  explicit multiplier ops seeded by a constant-one parameter at the root,
  and the adjoints of the λ leaves — the joint marginals ``Pr(x, e\\X)``
  of the differential approach — become the outputs. The lowering
  mirrors the engine's backward executors op for op (same contribution
  order, accumulation into exact zero elided because adding the exact
  zero word is error-free in both number systems), so the simulated
  design is bit-identical to
  :meth:`~repro.engine.session.InferenceSession.quantized_marginals_batch`.

Pipeline structure is derived from the same dependency levels the
engine's :class:`~repro.engine.analysis.ForwardSchedule` computes
(stage = level; one output register per operator; balancing registers
wherever an input was produced more than one stage earlier, constants
excepted; outputs below the design latency get alignment registers so
every result of one input appears in the same cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ac.circuit import ArithmeticCircuit
from ..energy.estimate import OperatorCounts, counts_from_opcodes
from ..engine.analysis import schedule_segments, tape_analysis_for
from ..engine.tape import OP_COPY, OP_PRODUCT, OP_SUM, Tape, tape_for
from ..errors import NonBinaryCircuitError

#: Output label of the forward program's single root result.
ROOT_OUTPUT = "result"


def _require_binary(circuit: ArithmeticCircuit) -> None:
    if not circuit.is_binary:
        raise NonBinaryCircuitError(
            "hardware generation requires a binary circuit; apply "
            "repro.ac.transform.binarize first"
        )


@dataclass(frozen=True, eq=False)
class DatapathProgram:
    """A single-assignment datapath netlist with pipeline structure.

    Carries the :class:`~repro.engine.tape.Tape` op-array layout, so the
    engine's executors replay a program exactly like a tape.
    """

    #: Lowering rejects non-binary circuits, so every program is binary.
    source_is_binary = True

    name: str
    #: ``"forward"`` (joint evaluations) or ``"marginals"`` (backward pass).
    direction: str
    num_slots: int
    #: ``(n_ops,)`` int32 op arrays in execution order (single assignment).
    opcodes: np.ndarray
    dests: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    #: Constant (θ) slots with their real values and source labels.
    param_slots: np.ndarray
    param_values: np.ndarray
    param_labels: tuple[str, ...]
    #: Registered λ input slots, aligned with their ``(variable, state)``.
    indicator_slots: np.ndarray
    indicator_keys: tuple[tuple[str, int], ...]
    #: Result slots, their Verilog port names, and structured keys
    #: (``None`` for the forward root; ``(variable, state)`` per marginal).
    output_slots: np.ndarray
    output_names: tuple[str, ...]
    output_keys: tuple[tuple[str, int] | None, ...]
    #: ``(num_slots,)`` pipeline stage of every slot (constants 0).
    levels: np.ndarray
    #: Constant mask over slots (constants impose no path timing).
    is_constant: np.ndarray
    _op_tuples: list[tuple[int, int, int, int]] | None = field(
        default=None, repr=False
    )
    _segments: tuple | None = field(default=None, repr=False)

    # -- stream views ---------------------------------------------------
    @property
    def num_operations(self) -> int:
        return len(self.opcodes)

    @property
    def param_ids(self) -> np.ndarray:
        """Index into :attr:`param_values` per constant slot: identity,
        since a program keeps one value per constant slot."""
        return np.arange(len(self.param_slots))

    @property
    def op_tuples(self) -> list[tuple[int, int, int, int]]:
        """The op stream as plain int tuples (cached; per-cycle oracle)."""
        cached = self._op_tuples
        if cached is None:
            cached = [
                (int(o), int(d), int(l), int(r))
                for o, d, l, r in zip(
                    self.opcodes, self.dests, self.lefts, self.rights
                )
            ]
            object.__setattr__(self, "_op_tuples", cached)
        return cached

    @property
    def segments(self) -> tuple:
        """``(level, opcode)`` segments for vectorized stream replay.

        Built by the same :func:`repro.engine.analysis.schedule_segments`
        as :attr:`Tape.segments <repro.engine.tape.Tape.segments>`, so
        the engine's forward sweep replays a program like a tape.
        """
        cached = self._segments
        if cached is None:
            cached = schedule_segments(
                self.opcodes,
                self.dests,
                self.lefts,
                self.rights,
                self.levels[self.dests],
            )
            object.__setattr__(self, "_segments", cached)
        return cached

    # -- pipeline metrics -------------------------------------------------
    @property
    def latency(self) -> int:
        """Cycles from λ input to the aligned outputs (deepest output)."""
        if len(self.output_slots) == 0:
            return 0
        return int(self.levels[self.output_slots].max())

    @property
    def operator_registers(self) -> int:
        """One output register per operator (fully pipelined)."""
        return self.num_operations

    @property
    def input_registers(self) -> int:
        """Stage-0 registers for the λ indicator words."""
        return len(self.indicator_slots)

    def input_delay(self, position: int, port: int) -> int:
        """Balancing registers on one op input port (0 for constants)."""
        opcode = int(self.opcodes[position])
        if port == 1 and opcode == OP_COPY:
            return 0  # copies have a single input
        source = int((self.rights if port else self.lefts)[position])
        if self.is_constant[source]:
            return 0
        dest = int(self.dests[position])
        return int(self.levels[dest]) - 1 - int(self.levels[source])

    def output_delay(self, index: int) -> int:
        """Alignment registers between output ``index`` and the latency."""
        slot = int(self.output_slots[index])
        if self.is_constant[slot]:
            return 0  # constant wire: valid at every stage
        return self.latency - int(self.levels[slot])

    @property
    def balance_registers(self) -> int:
        """All balancing registers: input-path plus output alignment."""
        if self.num_operations == 0:
            edges = 0
        else:
            dest_levels = self.levels[self.dests]
            left = np.where(
                self.is_constant[self.lefts],
                0,
                dest_levels - 1 - self.levels[self.lefts],
            )
            right = np.where(
                self.is_constant[self.rights] | (self.opcodes == OP_COPY),
                0,
                dest_levels - 1 - self.levels[self.rights],
            )
            edges = int(left.sum() + right.sum())
        alignment = sum(
            self.output_delay(index) for index in range(len(self.output_slots))
        )
        return edges + alignment

    @property
    def total_registers(self) -> int:
        return (
            self.operator_registers
            + self.input_registers
            + self.balance_registers
        )

    @property
    def operator_counts(self) -> OperatorCounts:
        """Two-input adder/multiplier/comparator counts of the datapath."""
        return counts_from_opcodes(self.opcodes)

    def describe(self) -> str:
        counts = self.operator_counts
        return (
            f"DatapathProgram({self.name!r} [{self.direction}]: "
            f"{counts.adders} add + {counts.multipliers} mul + "
            f"{counts.max_units} max over {self.num_slots} slots, "
            f"{len(self.output_slots)} output(s), latency {self.latency})"
        )


def _param_labels(circuit: ArithmeticCircuit, tape: Tape) -> tuple[str, ...]:
    """Source label per θ slot (tape param slots are node indices)."""
    labels = []
    for slot in tape.param_slots:
        node = circuit.node(int(slot))
        labels.append(node.label or f"theta_{int(slot)}")
    return tuple(labels)


def forward_program(
    circuit: ArithmeticCircuit, tape: Tape | None = None
) -> DatapathProgram:
    """Lower a binary circuit's tape to its forward datapath program.

    Slot indices coincide with circuit node indices and the per-slot
    stages are exactly the engine's cached
    :class:`~repro.engine.analysis.ForwardSchedule` levels — the one
    levelization shared with :func:`repro.hw.pipeline.schedule_pipeline`.
    """
    _require_binary(circuit)
    if tape is None:
        tape = tape_for(circuit)
    levels = tape_analysis_for(tape).schedule.levels.astype(np.int64)
    is_constant = np.zeros(tape.num_slots, dtype=bool)
    is_constant[tape.param_slots] = True
    root = tape.require_root()
    return DatapathProgram(
        name=circuit.name,
        direction="forward",
        num_slots=tape.num_slots,
        opcodes=tape.opcodes,
        dests=tape.dests,
        lefts=tape.lefts,
        rights=tape.rights,
        param_slots=tape.param_slots,
        param_values=tape.param_values[tape.param_ids],
        param_labels=_param_labels(circuit, tape),
        indicator_slots=tape.indicator_slots,
        indicator_keys=tape.indicator_keys,
        output_slots=np.asarray([root], dtype=np.int64),
        output_names=(ROOT_OUTPUT,),
        output_keys=(None,),
        levels=levels,
        is_constant=is_constant,
    )


def marginals_program(
    circuit: ArithmeticCircuit, tape: Tape | None = None
) -> DatapathProgram:
    """Lower a tape plus its backward program to a marginal datapath.

    The adjoint sweep is converted to single-assignment form: the root
    adjoint is a constant-one parameter, each product-rule contribution
    is an explicit multiplier (``seed × sibling value``, the executor's
    operand order), and each accumulation into an already-live adjoint is
    an explicit adder (``current + contribution``). Accumulations into
    the exact zero are elided — adding the exact zero word is error-free
    in both number systems, so the lowering stays bit-identical to the
    engine's backward executors. Ops whose destination lies outside the
    root cone contribute exact zeros and are dropped entirely.

    Outputs are the λ-leaf adjoints in indicator-table order; a λ leaf
    outside the root cone maps to a constant zero.
    """
    _require_binary(circuit)
    if tape is None:
        tape = tape_for(circuit)
    tape.require_differentiable()
    root = tape.require_root()

    opcodes = list(tape.opcodes)
    dests = list(tape.dests)
    lefts = list(tape.lefts)
    rights = list(tape.rights)
    param_slots = [int(s) for s in tape.param_slots]
    param_values = [float(v) for v in tape.param_values[tape.param_ids]]
    param_labels = list(_param_labels(circuit, tape))

    next_slot = tape.num_slots
    one_slot = next_slot
    next_slot += 1
    param_slots.append(one_slot)
    param_values.append(1.0)
    param_labels.append("adjoint_seed")

    def emit(opcode: int, left: int, right: int) -> int:
        nonlocal next_slot
        dest = next_slot
        next_slot += 1
        opcodes.append(opcode)
        dests.append(dest)
        lefts.append(left)
        rights.append(right)
        return dest

    # Current adjoint slot per forward slot; absent means exact zero.
    adjoints: dict[int, int] = {root: one_slot}

    def accumulate(slot: int, contribution: int) -> None:
        current = adjoints.get(slot)
        adjoints[slot] = (
            contribution
            if current is None
            else emit(OP_SUM, current, contribution)
        )

    for opcode, dest, left, right in tape.backward.op_tuples:
        seed = adjoints.get(dest)
        if seed is None:
            continue  # outside the root cone: adjoint is exactly zero
        if opcode == OP_PRODUCT:
            accumulate(left, emit(OP_PRODUCT, seed, right))
            accumulate(right, emit(OP_PRODUCT, seed, left))
        elif opcode == OP_SUM:
            accumulate(left, seed)
            accumulate(right, seed)
        else:  # OP_COPY
            accumulate(left, seed)

    zero_slot: int | None = None
    output_slots = []
    output_names = []
    output_keys = []
    for slot, (variable, state) in zip(
        tape.indicator_slots, tape.indicator_keys
    ):
        adjoint = adjoints.get(int(slot))
        if adjoint is None:
            if zero_slot is None:
                zero_slot = next_slot
                next_slot += 1
                param_slots.append(zero_slot)
                param_values.append(0.0)
                param_labels.append("adjoint_zero")
            adjoint = zero_slot
        output_slots.append(adjoint)
        output_names.append(f"{ROOT_OUTPUT}_{variable}_{state}")
        output_keys.append((variable, int(state)))

    num_slots = next_slot
    opcodes_arr = np.asarray(opcodes, dtype=np.int32)
    dests_arr = np.asarray(dests, dtype=np.int32)
    lefts_arr = np.asarray(lefts, dtype=np.int32)
    rights_arr = np.asarray(rights, dtype=np.int32)
    is_constant = np.zeros(num_slots, dtype=bool)
    is_constant[param_slots] = True

    # Stage assignment with the same rule the forward schedule uses:
    # constants at 0, each op one stage after its latest non-constant
    # input (constants are level 0, so max over all inputs is identical).
    levels = [0] * num_slots
    const_list = is_constant.tolist()
    for opcode, dest, left, right in zip(opcodes, dests, lefts, rights):
        arrival = 0 if const_list[left] else levels[left]
        if opcode != OP_COPY and not const_list[right]:
            right_level = levels[right]
            if right_level > arrival:
                arrival = right_level
        levels[dest] = arrival + 1

    return DatapathProgram(
        name=circuit.name,
        direction="marginals",
        num_slots=num_slots,
        opcodes=opcodes_arr,
        dests=dests_arr,
        lefts=lefts_arr,
        rights=rights_arr,
        param_slots=np.asarray(param_slots, dtype=np.int32),
        param_values=np.asarray(param_values, dtype=np.float64),
        param_labels=tuple(param_labels),
        indicator_slots=tape.indicator_slots,
        indicator_keys=tape.indicator_keys,
        output_slots=np.asarray(output_slots, dtype=np.int64),
        output_names=tuple(output_names),
        output_keys=tuple(output_keys),
        levels=np.asarray(levels, dtype=np.int64),
        is_constant=is_constant,
    )


#: Lowerers by direction name (the hw-facing workload vocabulary).
_LOWERERS = {
    "forward": forward_program,
    "marginals": marginals_program,
}


def coerce_direction(workload) -> str:
    """Map a workload spec (enum or string) to a program direction.

    ``"joint"`` / ``"forward"`` → forward; ``"marginals"`` /
    ``"backward"`` → marginals. Accepts the optimizer's ``Workload``
    enum via its ``value``.
    """
    value = getattr(workload, "value", workload)
    if value in ("joint", "forward"):
        return "forward"
    if value in ("marginals", "backward"):
        return "marginals"
    raise ValueError(
        f"workload must be one of: joint, marginals; got {workload!r}"
    )


def lower_program(
    circuit: ArithmeticCircuit, direction: str, tape: Tape | None = None
) -> DatapathProgram:
    """Lower a circuit's tape to the datapath of the given direction."""
    return _LOWERERS[direction](circuit, tape)
