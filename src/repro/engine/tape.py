"""The compiled-tape IR: a circuit linearized into flat numeric buffers.

Every analysis in this library — real evaluation, quantized emulation,
error-bound propagation, extreme-value analysis — is a single forward
sweep over the topologically ordered node arena of an
:class:`~repro.ac.circuit.ArithmeticCircuit`. Before this module each
sweep re-walked the arena of :class:`~repro.ac.nodes.Node` objects with
per-node attribute dispatch; a :class:`Tape` compiles that walk **once**
into struct-of-arrays numpy buffers that every executor (and every
evidence batch) can replay:

* ``opcodes`` / ``dests`` / ``lefts`` / ``rights`` — int32 arrays, one
  entry per two-input operation;
* a **deduplicated parameter table** (``param_slots`` / ``param_ids`` /
  ``param_values``) so each distinct θ is quantized exactly once;
* an **indicator table** (``indicator_slots`` / ``indicator_keys``)
  shared with :class:`~repro.engine.encoder.EvidenceEncoder`.

Slots ``0 .. num_nodes-1`` coincide with the circuit's node indices, so
per-node results (values, error bounds, extremes) read directly off the
slot array. N-ary operators are decomposed into left-fold chains through
extra *scratch* slots appended after the node slots; the final op of a
chain writes the node's own slot. Left folds are bit-identical to the
seed evaluators' ``sum()``/left-to-right products because folding in the
exact identity (0 for sums, 1 for products) is error-free in float64.

Use :func:`tape_for` to get the per-circuit cached tape; it recompiles
automatically if the circuit grew or was re-rooted since compilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ac.circuit import ArithmeticCircuit
from ..ac.nodes import OpType
from .memo import KeyedMemo

# Opcodes of tape operations. COPY forwards a slot unchanged (only
# emitted for degenerate fan-in-1 operators, which the circuit builder
# itself never produces).
OP_SUM, OP_PRODUCT, OP_MAX, OP_COPY = 0, 1, 2, 3

_OPCODE_OF = {OpType.SUM: OP_SUM, OpType.PRODUCT: OP_PRODUCT, OpType.MAX: OP_MAX}


@dataclass(frozen=True, eq=False)
class BackwardProgram:
    """The reverse-order replay program of a tape.

    Derivative sweeps visit operations parents-first; reversing the
    forward stream gives exactly that order (ops are emitted in node
    order, and scratch chains are contiguous). Because PR 1 decomposes
    n-ary operators into binary fold chains, replaying this program
    applies the product rule in O(k) multiplies per k-ary product — the
    chain's scratch values *are* the prefix products, and the adjoint
    flowing down the chain *is* the suffix-seeded product — instead of
    the seed sweep's O(k²) inner loop.
    """

    #: Reversed copies of the forward tape's op arrays.
    opcodes: np.ndarray
    dests: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    _op_tuples: list[tuple[int, int, int, int]] | None = field(
        default=None, repr=False
    )

    @property
    def op_tuples(self) -> list[tuple[int, int, int, int]]:
        """The reversed operation stream as plain int tuples (cached)."""
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


@dataclass(frozen=True, eq=False)
class Tape:
    """A circuit compiled to flat numeric buffers (see module docstring).

    Immutable; compile with :func:`compile_tape` or :func:`tape_for`.
    """

    name: str
    #: Number of circuit nodes; slots ``< num_nodes`` mirror node indices.
    num_nodes: int
    #: Total slots including scratch slots for n-ary decomposition.
    num_slots: int
    #: Slot of the circuit root, or ``None`` for rootless circuits.
    root: int | None
    #: ``(n_ops,)`` int32 — one of OP_SUM / OP_PRODUCT / OP_MAX / OP_COPY.
    opcodes: np.ndarray
    #: ``(n_ops,)`` int32 destination / left-input / right-input slots.
    dests: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    #: ``(n_params,)`` int32 slot of every θ leaf.
    param_slots: np.ndarray
    #: ``(n_params,)`` int32 index into :attr:`param_values` per θ leaf.
    param_ids: np.ndarray
    #: ``(n_unique,)`` float64 deduplicated parameter values.
    param_values: np.ndarray
    #: ``(n_indicators,)`` int32 slot of every λ leaf.
    indicator_slots: np.ndarray
    #: ``(variable, state)`` key per λ leaf, aligned with indicator_slots.
    indicator_keys: tuple[tuple[str, int], ...]
    #: True when the source circuit was binary (no scratch slots needed).
    source_is_binary: bool
    _op_tuples: list[tuple[int, int, int, int]] | None = field(
        default=None, repr=False
    )
    _backward: BackwardProgram | None = field(default=None, repr=False)

    @property
    def num_operations(self) -> int:
        return len(self.opcodes)

    @property
    def has_max(self) -> bool:
        """True when the circuit contains MAX operators."""
        return bool((self.opcodes == OP_MAX).any())

    @property
    def backward(self) -> BackwardProgram:
        """The cached reverse-order program for derivative sweeps."""
        cached = self._backward
        if cached is None:
            cached = BackwardProgram(
                opcodes=self.opcodes[::-1].copy(),
                dests=self.dests[::-1].copy(),
                lefts=self.lefts[::-1].copy(),
                rights=self.rights[::-1].copy(),
            )
            object.__setattr__(self, "_backward", cached)
        return cached

    def require_differentiable(self) -> None:
        """Reject tapes of MPE (max) circuits for derivative sweeps."""
        if self.has_max:
            raise ValueError(
                "derivative passes are undefined for MAX nodes; "
                "use a sum-product circuit"
            )

    @property
    def op_tuples(self) -> list[tuple[int, int, int, int]]:
        """The operation stream as plain int tuples.

        Cached; scalar (pure-Python) executors iterate this instead of the
        numpy arrays — tuple unpacking beats per-element ndarray indexing.
        """
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
    def segments(self) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
        """The op stream as level-major ``(opcode, dests, lefts, rights)``
        segments — the tape's cached
        :class:`~repro.engine.analysis.ForwardSchedule`, which the
        vectorized forward sweeps replay segment by segment."""
        from .analysis import tape_analysis_for  # analysis imports tape

        return tape_analysis_for(self).schedule.segments

    def require_root(self) -> int:
        if self.root is None:
            raise ValueError(f"circuit {self.name!r} has no root set")
        return self.root

    def describe(self) -> str:
        return (
            f"Tape({self.name!r}: {self.num_operations} ops over "
            f"{self.num_slots} slots, {len(self.param_slots)}θ "
            f"({len(self.param_values)} unique), "
            f"{len(self.indicator_slots)}λ)"
        )


def compile_tape(circuit: ArithmeticCircuit) -> Tape:
    """Linearize a circuit into a :class:`Tape`.

    Works for any fan-in; n-ary operators become left-fold chains over
    scratch slots (bit-identical to the seed evaluators, see module
    docstring). For already-binary circuits the tape has exactly one op
    per operator node and no scratch slots.
    """
    opcodes: list[int] = []
    dests: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    param_slots: list[int] = []
    param_ids: list[int] = []
    param_values: list[float] = []
    value_ids: dict[float, int] = {}
    indicator_slots: list[int] = []
    indicator_keys: list[tuple[str, int]] = []

    num_nodes = len(circuit)
    next_scratch = num_nodes

    def emit(opcode: int, dest: int, left: int, right: int) -> None:
        opcodes.append(opcode)
        dests.append(dest)
        lefts.append(left)
        rights.append(right)

    for index, node in enumerate(circuit.nodes):
        if node.op is OpType.PARAMETER:
            value = float(node.value)
            value_id = value_ids.get(value)
            if value_id is None:
                value_id = value_ids[value] = len(param_values)
                param_values.append(value)
            param_slots.append(index)
            param_ids.append(value_id)
        elif node.op is OpType.INDICATOR:
            indicator_slots.append(index)
            indicator_keys.append((node.variable, int(node.state)))
        else:
            opcode = _OPCODE_OF[node.op]
            children = node.children
            if len(children) == 1:
                emit(OP_COPY, index, children[0], children[0])
            elif len(children) == 2:
                emit(opcode, index, children[0], children[1])
            else:
                # Left fold through scratch slots; last op lands on the
                # node's own slot so per-node reads stay valid.
                accumulator = children[0]
                for child in children[1:-1]:
                    emit(opcode, next_scratch, accumulator, child)
                    accumulator = next_scratch
                    next_scratch += 1
                emit(opcode, index, accumulator, children[-1])

    return Tape(
        name=circuit.name,
        num_nodes=num_nodes,
        num_slots=next_scratch,
        root=circuit.root if circuit.has_root else None,
        opcodes=np.asarray(opcodes, dtype=np.int32),
        dests=np.asarray(dests, dtype=np.int32),
        lefts=np.asarray(lefts, dtype=np.int32),
        rights=np.asarray(rights, dtype=np.int32),
        param_slots=np.asarray(param_slots, dtype=np.int32),
        param_ids=np.asarray(param_ids, dtype=np.int32),
        param_values=np.asarray(param_values, dtype=np.float64),
        indicator_slots=np.asarray(indicator_slots, dtype=np.int32),
        indicator_keys=tuple(indicator_keys),
        source_is_binary=circuit.is_binary,
    )


#: Per-circuit tape cache. Keyed by circuit identity (circuits hash by
#: id); entries die with their circuit, so long-lived services never leak.
_TAPE_MEMO: KeyedMemo = KeyedMemo(weak=True, name="tape")


def _fresh_tape(tape: Tape | None, circuit: ArithmeticCircuit) -> bool:
    current_root = circuit.root if circuit.has_root else None
    return (
        tape is not None
        and tape.num_nodes == len(circuit)
        and tape.root == current_root
    )


def tape_for(circuit: ArithmeticCircuit) -> Tape:
    """The cached tape of a circuit, recompiling if the circuit changed.

    Staleness is detected from node count and root: circuits are
    append-only arenas, so any structural change grows ``len(circuit)``
    or moves the root. Thread-safe via :class:`~repro.engine.memo.KeyedMemo`:
    same-circuit racers converge on one cached instance, while different
    circuits compile in parallel.
    """
    return _TAPE_MEMO.get(
        circuit,
        lambda: compile_tape(circuit),
        fresh=lambda tape: _fresh_tape(tape, circuit),
    )
