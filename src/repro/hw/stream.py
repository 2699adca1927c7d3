"""Vectorized whole-stream simulation of generated hardware.

:class:`StreamSimulator` verifies long input streams against a pipelined
:class:`~repro.hw.netlist.HardwareDesign` orders of magnitude faster
than the per-cycle oracle (:class:`~repro.hw.simulator.PipelineSimulator`).
The key observation: in a *balanced* fully pipelined datapath, the
register at stage ℓ holds, at cycle ``c``, exactly the level-ℓ value of
the input presented at cycle ``c - ℓ``. Advancing every pipeline
register over a whole stream is therefore equivalent to replaying the
design's :class:`~repro.hw.program.DatapathProgram` once per input.

The simulator is a thin adapter over the engine's executors, which read
a program like a tape. Int64 formats replay the whole stream in the
:class:`~repro.engine.executors.WordBatchExecutor` forward sweep, one
call per ``(level, opcode)`` segment — the levels are the pipeline
stages. Wider formats run one
:class:`~repro.engine.executors.QuantizedTapeEvaluator` big-int walk per
input: one walk per input instead of one per cycle. Both are
bit-identical to §3.1 operator semantics; the adapter picks the output
slots and packs their words.

X-propagation is modeled as a **validity plane**: an input presented as
``None`` (Verilog ``X``) makes exactly the output words ``latency``
cycles later invalid, so the "outputs valid exactly after ``latency``
cycles" property is still expressed and checked. The differential test
suite pins this simulator bit-identical to the per-cycle oracle — whose
registers genuinely go through X — so a broken balancing-register
structure cannot hide behind the validity shortcut.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..engine.encoder import EvidenceEncoder
from ..engine.executors import QuantizedTapeEvaluator, WordBatchExecutor
from ..engine.session import backend_for_format
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
        if self.vectorized:
            self._executor = WordBatchExecutor(self.program, self.fmt, self.encoder)
        else:
            # One backend per simulator: the evaluator quantizes the
            # constant table once per backend.
            self._evaluator = QuantizedTapeEvaluator(self.program, self.encoder)
            self._wide_backend = backend_for_format(self.fmt)

    # ------------------------------------------------------------------
    # Core replay
    # ------------------------------------------------------------------
    def _outputs(self, evidence_batch, strict: bool):
        """Output words of a non-empty batch.

        Int64 formats: word planes ``(planes, num_outputs, n)``. Wide
        formats: one list of backend values per input.
        """
        outputs = self.program.output_slots
        if self.vectorized:
            planes = self._executor._forward_planes(evidence_batch, strict)
            return planes[:, outputs]
        evaluator, backend = self._evaluator, self._wide_backend
        rows = (evaluator._forward_slots(backend, e, strict) for e in evidence_batch)
        return [[slots[slot] for slot in outputs] for slots in rows]

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
        outputs = self._outputs(evidence_batch, strict)
        if self.vectorized:
            return self._executor.kernel.pack_planes(outputs)
        # Object dtype: wide-format words overflow int64 by design.
        pack = (lambda v: v.mantissa) if self.design.is_fixed else pack_float_word
        words = [[pack(value) for value in row] for row in outputs]
        return np.asarray(words, dtype=object).T

    def output_values(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = True,
    ) -> np.ndarray:
        """Float64 result values, shape ``(num_outputs, len(batch))``."""
        if len(evidence_batch) == 0:
            return np.empty((len(self.program.output_slots), 0))
        outputs = self._outputs(evidence_batch, strict)
        if self.vectorized:
            return self._executor.kernel.real(outputs)
        to_real = self._wide_backend.to_real
        values = [[to_real(value) for value in row] for row in outputs]
        return np.asarray(values, dtype=np.float64).T

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
