"""The compiled-tape execution engine.

Compiles an :class:`~repro.ac.circuit.ArithmeticCircuit` once into a
flat :class:`Tape` IR (struct-of-arrays numpy buffers, a deduplicated
parameter table, an indicator table) and runs every sweep — exact
float64, batched float64, quantized fixed point, quantized floating
point, and the **backward (derivative) sweeps** behind all-marginals
queries — against that one artifact (forward sweeps replay the op
stream, backward sweeps replay the cached :class:`BackwardProgram`).
The :class:`EvidenceEncoder` turns evidence batches into indicator
matrices in one vectorized step, :class:`MarginalIndex` groups the
downward pass into per-variable posteriors, and
:class:`InferenceSession` fronts the whole thing with per-circuit
compiled caches for serving repeated queries.

Layering: ``engine`` sits above ``ac`` (circuit structure) and ``arith``
(exact number systems) and below ``core`` / ``experiments`` / ``hw``.
The legacy entry points in ``repro.ac.evaluate`` remain as thin
wrappers; the frozen seed implementations live in
:mod:`repro.engine.reference` for differential testing.
"""

from ..errors import ThetaShapeError, ZeroEvidenceError
from .analysis import (
    ForwardSchedule,
    TapeAnalysis,
    analysis_for,
    schedule_segments,
    sweep_max_log2,
    tape_analysis_for,
)
from .encoder import EvidenceEncoder
from .executors import (
    FixedPointBatchExecutor,
    FixedWordKernel,
    FloatBatchExecutor,
    FloatWordKernel,
    QuantizedTapeEvaluator,
    execute_batch,
    execute_partials,
    execute_partials_batch,
    execute_real,
    execute_values,
)
from .marginals import MarginalIndex
from .memo import KeyedMemo
from .native import (
    NativeTapeKernels,
    native_available,
    native_kernels_for,
    native_unavailable_reason,
)
from .session import (
    BACKEND_CHOICES,
    InferenceSession,
    backend_for_format,
    requested_backend,
    session_for,
)
from .tape import (
    OP_COPY,
    OP_MAX,
    OP_PRODUCT,
    OP_SUM,
    BackwardProgram,
    Tape,
    compile_tape,
    tape_for,
)
from .theta import (
    align_theta,
    normalize_theta,
    theta_envelope_max_values,
    theta_param_matrix,
)

__all__ = [
    "BACKEND_CHOICES",
    "BackwardProgram",
    "EvidenceEncoder",
    "FixedPointBatchExecutor",
    "FixedWordKernel",
    "FloatBatchExecutor",
    "FloatWordKernel",
    "ForwardSchedule",
    "InferenceSession",
    "KeyedMemo",
    "MarginalIndex",
    "NativeTapeKernels",
    "OP_COPY",
    "OP_MAX",
    "OP_PRODUCT",
    "OP_SUM",
    "QuantizedTapeEvaluator",
    "Tape",
    "TapeAnalysis",
    "ThetaShapeError",
    "ZeroEvidenceError",
    "align_theta",
    "analysis_for",
    "backend_for_format",
    "compile_tape",
    "execute_batch",
    "execute_partials",
    "execute_partials_batch",
    "execute_real",
    "execute_values",
    "native_available",
    "native_kernels_for",
    "native_unavailable_reason",
    "normalize_theta",
    "requested_backend",
    "schedule_segments",
    "session_for",
    "sweep_max_log2",
    "tape_analysis_for",
    "tape_for",
    "theta_envelope_max_values",
    "theta_param_matrix",
]
