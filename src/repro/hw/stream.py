"""Vectorized whole-stream simulation of generated hardware.

:class:`StreamSimulator` verifies long input streams against a pipelined
:class:`~repro.hw.netlist.HardwareDesign` orders of magnitude faster
than the per-cycle oracle (:class:`~repro.hw.simulator.PipelineSimulator`).
The key observation: in a *balanced* fully pipelined datapath, the
register at stage ℓ holds, at cycle ``c``, exactly the level-ℓ value of
the input presented at cycle ``c - ℓ``. Advancing every pipeline
register over a whole stream is therefore equivalent to replaying the
design's :class:`~repro.hw.program.DatapathProgram` once per input — and
that replay vectorizes over the *entire stream* as batched numpy sweeps
over the program's ``(level, opcode)`` segments, with the engine's
bit-exact word kernels (:class:`~repro.engine.executors.FixedWordKernel`
/ :class:`~repro.engine.executors.FloatWordKernel`) as the operator
semantics. Formats too wide for the int64 kernels fall back to a scalar
big-int program walk per input — still one walk per input instead of one
per cycle, and bit-identical either way.

X-propagation is modeled as a **validity plane**: an input presented as
``None`` (Verilog ``X``) makes exactly the output words ``latency``
cycles later invalid, so the "outputs valid exactly after ``latency``
cycles" property is still expressed and checked. The differential test
suite pins this simulator bit-identical to the per-cycle oracle — whose
registers genuinely go through X — so a broken balancing-register
structure cannot hide behind the validity shortcut.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..engine.encoder import EvidenceEncoder
from ..engine.executors import word_kernel_for
from ..engine.session import backend_for_format
from ..engine.tape import OP_COPY, OP_MAX, OP_PRODUCT, OP_SUM
from .netlist import HardwareDesign, pack_float_word


class StreamSimulator:
    """Simulate a :class:`HardwareDesign` over whole input streams."""

    def __init__(self, design: HardwareDesign) -> None:
        self.design = design
        self.program = design.program
        self.fmt = design.fmt
        self.latency = design.latency_cycles
        self.encoder = EvidenceEncoder(self.program.indicator_keys)
        self.vectorized = bool(design.fmt.fits_int64_products)
        if not self.vectorized:
            # Wide-format fallback: scalar big-int program walks.
            self._backend = backend_for_format(design.fmt)
            return
        self._kernel = word_kernel_for(design.fmt)
        self._param_planes = self._kernel.planes_of(
            self._kernel.encode_params(self.program.param_values)
        )

    # ------------------------------------------------------------------
    # Core replay
    # ------------------------------------------------------------------
    def output_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = True,
    ) -> np.ndarray:
        """Result words per output and stream position.

        Shape ``(num_outputs, len(batch))`` int64 — raw mantissa words
        for fixed point, packed (E|M) storage words for float, exactly
        the words the emitted RTL would drive on its result ports.
        """
        if len(evidence_batch) == 0:
            return np.empty(
                (len(self.program.output_slots), 0), dtype=np.int64
            )
        if not self.vectorized:
            # Object dtype: wide-format words overflow int64 by design.
            words, _ = self._scalar_outputs(evidence_batch, strict)
            return words
        planes = self._planes(evidence_batch, strict)
        return self._kernel.pack_planes(planes[:, self.program.output_slots])

    def output_values(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = True,
    ) -> np.ndarray:
        """Float64 result values, shape ``(num_outputs, len(batch))``."""
        if len(evidence_batch) == 0:
            return np.empty((len(self.program.output_slots), 0))
        if not self.vectorized:
            _, values = self._scalar_outputs(evidence_batch, strict)
            return values
        planes = self._planes(evidence_batch, strict)
        return self._kernel.real(planes[:, self.program.output_slots])

    def _planes(self, evidence_batch, strict) -> np.ndarray:
        """Word planes of every program slot, ``(planes, num_slots, n)``."""
        program = self.program
        kernel = self._kernel
        active = self.encoder.encode(evidence_batch, strict=strict)
        slots = np.zeros(
            (kernel.planes, program.num_slots, len(evidence_batch)),
            dtype=np.int64,
        )
        slots[:, program.param_slots] = self._param_planes[:, :, None]
        slots[:, program.indicator_slots] = np.where(
            active, kernel.one_planes[:, None, None], 0
        )
        operators = kernel.operators
        for opcode, dests, lefts, rights in program.segments:
            if opcode == OP_COPY:
                slots[:, dests] = slots[:, lefts]
            else:
                # Default ``where`` labels name the operator: "adder",
                # "multiplier", "max".
                slots[:, dests] = operators[opcode](
                    slots[:, lefts], slots[:, rights]
                )
        return slots

    # -- scalar big-int fallback ----------------------------------------
    def _scalar_outputs(
        self, evidence_batch, strict: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(words, values)`` per output for formats beyond int64 lanes.

        One big-int program walk per input — bit-identical to the
        per-cycle oracle by construction (same backend ops, same stream)
        but one walk per *input* instead of one per cycle.
        """
        program = self.program
        backend = self._backend
        constants = {
            int(slot): backend.from_real(float(value))
            for slot, value in zip(program.param_slots, program.param_values)
        }
        one, zero = backend.one(), backend.zero()
        word_columns = []
        value_columns = []
        for evidence in evidence_batch:
            active = self.encoder.encode_one(evidence, strict=strict)
            values: list[Any] = [None] * program.num_slots
            for slot, constant in constants.items():
                values[slot] = constant
            for position, slot in enumerate(program.indicator_slots):
                values[slot] = one if active[position] else zero
            for opcode, dest, left, right in program.op_tuples:
                if opcode == OP_SUM:
                    values[dest] = backend.add(values[left], values[right])
                elif opcode == OP_PRODUCT:
                    values[dest] = backend.multiply(
                        values[left], values[right]
                    )
                elif opcode == OP_MAX:
                    values[dest] = backend.maximum(
                        values[left], values[right]
                    )
                else:  # OP_COPY
                    values[dest] = values[left]
            outputs = [values[int(s)] for s in program.output_slots]
            if self.design.is_fixed:
                word_columns.append([value.mantissa for value in outputs])
            else:
                word_columns.append(
                    [pack_float_word(value) for value in outputs]
                )
            value_columns.append(
                [backend.to_real(value) for value in outputs]
            )
        words = np.asarray(word_columns, dtype=object).T
        return words, np.asarray(value_columns, dtype=np.float64).T

    # ------------------------------------------------------------------
    # Stream-level interfaces
    # ------------------------------------------------------------------
    def run_stream(
        self, evidence_stream: Sequence[Mapping[str, int]]
    ) -> list[float]:
        """Aligned first-output values of a full-rate stream.

        Same contract as
        :meth:`~repro.hw.simulator.PipelineSimulator.run_stream`: output
        ``i`` is the (root, for forward designs) result of
        ``evidence_stream[i]`` after the pipeline latency.
        """
        return [
            float(value)
            for value in self.output_values(list(evidence_stream))[0]
        ]

    def run_stream_outputs(
        self, evidence_stream: Sequence[Mapping[str, int]]
    ) -> dict[tuple[str, int] | None, list[float]]:
        """Aligned values of every output (see the per-cycle oracle)."""
        values = self.output_values(list(evidence_stream))
        return {
            key: [float(v) for v in values[index]]
            for index, key in enumerate(self.program.output_keys)
        }

    def simulate(
        self,
        inputs: Sequence[Mapping[str, int] | None],
        cycles: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cycle-level trace with X modeled as a validity plane.

        ``inputs[c]`` is the λ assignment presented at cycle ``c``
        (``None`` presents X); cycles beyond the list present X. Returns
        ``(words, valid)`` where ``words`` has shape
        ``(num_outputs, cycles)`` — the output words visible *after* the
        clock edge of each cycle — and ``valid[c]`` is True exactly when
        the input of cycle ``c - latency`` existed and was not X. Words
        of invalid cycles are 0 for pipeline-computed outputs (the
        per-cycle oracle holds X there); outputs tied to a constant wire
        (a degenerate case of marginal designs, e.g. a λ leaf outside
        the root cone) hold their constant word at *every* cycle, exactly
        like the oracle, regardless of ``valid``.
        """
        inputs = list(inputs)
        if cycles is None:
            cycles = len(inputs) + self.latency
        present = [e for e in inputs if e is not None]
        words_present = self.output_words(present)
        num_outputs = len(self.program.output_slots)
        words = np.zeros((num_outputs, cycles), dtype=words_present.dtype)
        valid = np.zeros(cycles, dtype=bool)
        for index, slot in enumerate(self.program.output_slots):
            if self.program.is_constant[int(slot)]:
                words[index, :] = self.design.constant_words[int(slot)]
        position = 0
        for index, evidence in enumerate(inputs):
            if evidence is None:
                continue
            cycle = index + self.latency
            if cycle < cycles:
                words[:, cycle] = words_present[:, position]
                valid[cycle] = True
            position += 1
        return words, valid
