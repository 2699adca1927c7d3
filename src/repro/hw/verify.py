"""Equivalence checking of generated hardware.

The check the paper performs via post-synthesis simulation: stream
evidence assignments through the pipelined design at full rate (one per
cycle) and compare every output word against the reference quantized
evaluation of the circuit. Results must be *bit-exact* — any deviation
indicates broken register balancing or operator semantics.

The design side runs on :class:`~repro.hw.stream.StreamSimulator`, a
thin adapter that replays the design's
:class:`~repro.hw.program.DatapathProgram` on the engine's executors
(differentially pinned bit-identical to the per-cycle oracle, so the
fast path loses no checking power). References replay the circuit's
tape through the engine's session —
:meth:`~repro.engine.session.InferenceSession.evaluate_quantized_batch`
for forward designs and
:meth:`~repro.engine.session.InferenceSession.quantized_marginals_batch`
(unnormalized joints) for backward-pass marginal designs — on the native
kernels where they build. Either way the comparison is against §3.1
operator semantics, and it checks what the lowering adds: the program's
op stream, its single-assignment backward pass and its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..engine import session_for
from .netlist import HardwareDesign
from .stream import StreamSimulator


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a hardware-vs-reference equivalence run."""

    num_vectors: int
    num_mismatches: int
    max_abs_difference: float
    latency_cycles: int

    @property
    def equivalent(self) -> bool:
        return self.num_mismatches == 0


def check_equivalence(
    design: HardwareDesign,
    evidence_vectors: Sequence[Mapping[str, int]],
) -> EquivalenceReport:
    """Stream vectors through the design and diff against reference.

    Dispatches on the design's workload: forward designs compare the root
    output stream, marginal designs every per-λ-leaf output stream.
    """
    if design.is_marginal:
        return check_marginals_equivalence(design, evidence_vectors)
    if not evidence_vectors:
        raise ValueError("need at least one evidence vector")
    evidence_vectors = list(evidence_vectors)
    simulator = StreamSimulator(design)
    hardware_outputs = simulator.run_stream(evidence_vectors)
    session = session_for(design.circuit)
    # Strict evidence handling matches the scalar quantized paths.
    references = session.evaluate_quantized_batch(
        design.fmt, evidence_vectors, strict=True
    )
    mismatches = 0
    worst = 0.0
    for hardware_value, reference in zip(hardware_outputs, references):
        difference = abs(hardware_value - reference)
        if difference != 0.0:
            mismatches += 1
            worst = max(worst, difference)
    return EquivalenceReport(
        num_vectors=len(evidence_vectors),
        num_mismatches=mismatches,
        max_abs_difference=worst,
        latency_cycles=design.latency_cycles,
    )


def check_marginals_equivalence(
    design: HardwareDesign,
    evidence_vectors: Sequence[Mapping[str, int]],
) -> EquivalenceReport:
    """Diff a marginal design against the engine's backward sweep.

    Every output word stream — one per λ leaf, i.e. the quantized joint
    marginal ``Pr(x, e\\X)`` of every state of every variable — must be
    bit-exact against
    :meth:`~repro.engine.session.InferenceSession.quantized_marginals_batch`
    with ``joint=True`` (the normalizing division is a float64
    post-process outside the datapath, identical on both sides).
    """
    if not design.is_marginal:
        raise ValueError("design implements the forward workload")
    if not evidence_vectors:
        raise ValueError("need at least one evidence vector")
    evidence_vectors = list(evidence_vectors)
    simulator = StreamSimulator(design)
    hardware = simulator.run_stream_outputs(evidence_vectors)
    session = session_for(design.circuit)
    references = session.quantized_marginals_batch(
        design.fmt, evidence_vectors, strict=True, joint=True
    )
    mismatches = 0
    worst = 0.0
    for key, outputs in hardware.items():
        variable, state = key
        reference_row = references[variable][state]
        for row in range(len(evidence_vectors)):
            difference = abs(outputs[row] - float(reference_row[row]))
            if difference != 0.0:
                mismatches += 1
                worst = max(worst, difference)
    return EquivalenceReport(
        num_vectors=len(evidence_vectors),
        num_mismatches=mismatches,
        max_abs_difference=worst,
        latency_cycles=design.latency_cycles,
    )
