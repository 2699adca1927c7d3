"""Python-facing view of one tape onto the shared C kernel module.

:class:`NativeTapeKernels` mirrors the numpy executors' call surface —
evidence batches in, ``(num_nodes, batch)`` float64 (or int64 word)
matrices out — while the sweeps themselves run inside the fused C
kernels of :mod:`repro.engine.native.codegen`, which every tape shares:
the view only hands them its tape's op arrays and tables at run time.
Evidence encoding, strictness errors, root/differentiability checks and
the quantized overflow/underflow exceptions (messages included) are exactly
the numpy executors', so swapping backends is observationally invisible
apart from speed.

Quantized support covers every format the vectorized numpy executors
cover: fixed point with ``2·(I+F) ≤ 62`` and float emulation with
``2·(M+1) ≤ 62, E ≤ 32``. Parameter words are quantized through the
same :class:`~repro.engine.executors.FixedWordKernel` /
:class:`~repro.engine.executors.FloatWordKernel` for bit-identity and
memoized per format. θ batches ride the kernels' runtime-parameter
entry points: :meth:`NativeTapeKernels.encode_theta` quantizes an
``(n_theta, n_params)`` matrix into the lane-major word layout and
every sweep accepts it as ``param_words`` (or ``param_matrix`` for
float64), one parameter table per lane.

Use :func:`native_kernels_for` for the per-tape cached instance.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ...arith.fixedpoint import FixedPointFormat, FixedPointOverflowError
from ...arith.floatingpoint import (
    FloatFormat,
    FloatOverflowError,
    FloatUnderflowError,
)
from ...arith.rounding import RoundingMode
from ..encoder import EvidenceEncoder
from ..executors import FixedWordKernel, FloatWordKernel, _require_binary_tape
from ..memo import KeyedMemo
from ..tape import Tape
from .build import kernel_module
from .codegen import (
    FLT_OVERFLOW,
    ROUND_NEAREST_EVEN,
    ROUND_NEAREST_UP,
    ROUND_TRUNCATE,
)

__all__ = ["NativeTapeKernels", "native_kernels_for"]

_ROUNDING_CODE = {
    RoundingMode.TRUNCATE: ROUND_TRUNCATE,
    RoundingMode.NEAREST_UP: ROUND_NEAREST_UP,
    RoundingMode.NEAREST_EVEN: ROUND_NEAREST_EVEN,
}


class _FixedProgram:
    """Per-format call arguments for the fixed kernels (exact words)."""

    def __init__(self, fmt: FixedPointFormat, param_values: np.ndarray) -> None:
        self.kernel = FixedWordKernel(fmt)  # raises ValueError when wide
        self.fmt = fmt
        self.param_words = np.ascontiguousarray(
            self.kernel.encode_params(param_values)
        )
        self.frac_bits = int(fmt.fraction_bits)
        self.max_word = int(fmt.max_mantissa)
        self.one_word = int(self.kernel.one_planes[0])
        self.rounding = _ROUNDING_CODE[fmt.rounding]


class _FloatProgram:
    """Per-format call arguments for the float-emulation kernels."""

    def __init__(self, fmt: FloatFormat, param_values: np.ndarray) -> None:
        self.kernel = FloatWordKernel(fmt)  # raises ValueError when wide
        self.fmt = fmt
        param_m, param_e = self.kernel.encode_params(param_values)
        self.param_m = np.ascontiguousarray(param_m)
        self.param_e = np.ascontiguousarray(param_e)
        self.mantissa_bits = int(fmt.mantissa_bits)
        self.min_exponent = int(fmt.min_exponent)
        self.max_exponent = int(fmt.max_exponent)
        one_m, one_e = self.kernel.one_planes
        self.one_m = int(one_m)
        self.one_e = int(one_e)
        self.rounding = _ROUNDING_CODE[fmt.rounding]

    def error(self, status: int) -> Exception:
        """The numpy :class:`FloatWordKernel` exception for a status code."""
        fmt = self.fmt
        if status == FLT_OVERFLOW:
            return FloatOverflowError(
                f"overflow in {fmt.describe()}: exponent exceeds "
                f"{fmt.max_exponent}; increase exponent bits"
            )
        return FloatUnderflowError(
            f"underflow in {fmt.describe()}: exponent below "
            f"{fmt.min_exponent}; min-value analysis should pick "
            f"E large enough"
        )


class NativeTapeKernels:
    """One tape's view onto the shared kernel module.

    Constructing this loads the process's kernel module (building it on
    first use, see :func:`~repro.engine.native.build.kernel_module`); a
    missing toolchain raises
    :class:`~repro.engine.native.build.NativeBuildError`, which callers
    treat as "use the numpy backend".

    The view keeps the tape's arrays and scalars it reads, never the
    tape itself, so the per-tape memo entry dies with its tape. It runs
    :class:`~repro.engine.tape.Tape`'s own root and derivative checks,
    and the executors' binary-tape check, on those copies, so their
    errors and messages stay the tape's.
    """

    require_root = Tape.require_root
    require_differentiable = Tape.require_differentiable

    def __init__(self, tape: Tape, encoder: EvidenceEncoder | None = None):
        self.encoder = encoder or EvidenceEncoder.for_tape(tape)
        self.name = tape.name
        self.root = tape.root
        self.num_nodes = tape.num_nodes
        self.num_slots = tape.num_slots
        self.has_max = tape.has_max
        self.source_is_binary = tape.source_is_binary
        self.param_values = np.ascontiguousarray(
            tape.param_values, dtype=np.float64
        )
        module = kernel_module()
        self._ffi = module.ffi
        self._lib = module.lib
        # The struct only copies addresses; the from_buffer pointers kept
        # in _tables keep the tape's arrays alive.
        self._tables = {
            field: self._ptr(
                "int32_t[]", np.ascontiguousarray(getattr(tape, field), np.int32)
            )
            for field in (
                "opcodes", "dests", "lefts", "rights",
                "param_slots", "param_ids", "indicator_slots",
            )
        }
        self._tape = self._ffi.new(
            "problp_tape *",
            dict(
                self._tables,
                n_ops=tape.num_operations,
                n_params=len(tape.param_slots),
                n_indicators=len(tape.indicator_slots),
                num_slots=tape.num_slots,
                root=-1 if tape.root is None else tape.root,
            ),
        )
        self._param_values_ptr = self._ptr("double[]", self.param_values)
        self._fixed_programs: KeyedMemo = KeyedMemo()
        self._float_programs: KeyedMemo = KeyedMemo()

    # -- ffi plumbing ----------------------------------------------------
    def _active_u8(self, matrix: np.ndarray) -> np.ndarray:
        # Bool arrays store one 0/1 byte per element, so the uint8 view
        # is free — this sits on the batch-size-1 latency path.
        if matrix.dtype == np.bool_:
            matrix = matrix.view(np.uint8)
        return np.ascontiguousarray(matrix, dtype=np.uint8)

    def _ptr(self, ctype: str, array: np.ndarray, writable: bool = False):
        return self._ffi.from_buffer(ctype, array, require_writable=writable)

    def _fixed_program(self, fmt: FixedPointFormat) -> _FixedProgram:
        return self._fixed_programs.get(
            fmt, lambda: _FixedProgram(fmt, self.param_values)
        )

    def _float_program(self, fmt: FloatFormat) -> _FloatProgram:
        return self._float_programs.get(
            fmt, lambda: _FloatProgram(fmt, self.param_values)
        )

    # -- capabilities ----------------------------------------------------
    def supports_format(self, fmt: Any) -> bool:
        """True when the native backend runs this quantized format."""
        if not self.source_is_binary:
            return False
        if isinstance(fmt, FixedPointFormat):
            return fmt.fits_int64_products
        if isinstance(fmt, FloatFormat):
            return fmt.fits_int64_products
        return False

    def encode_theta(self, fmt: Any, matrix: np.ndarray):
        """Per-row quantized, lane-major parameter words for a θ batch.

        ``matrix`` is the normalized ``(n_theta, n_params)`` float64
        batch. Returns the value to pass as ``param_words``: an
        ``(n_params, n_theta)`` int64 matrix for fixed point, an
        ``(m, e)`` pair of such matrices for float — quantized through
        the same word kernels as the numpy executors, so per-lane sweeps
        stay bit-identical to re-quantized scalar runs.
        """
        if isinstance(fmt, FixedPointFormat):
            return self._fixed_program(fmt).kernel.encode_param_matrix(matrix)
        return self._float_program(fmt).kernel.encode_param_matrix(matrix)

    # -- float64 ---------------------------------------------------------
    def _f64_params(self, param_matrix: np.ndarray | None):
        """(pointer, per_lane) for a float64 kernel call."""
        if param_matrix is None:
            return self._param_values_ptr, 0
        param_matrix = np.ascontiguousarray(param_matrix, dtype=np.float64)
        return self._ptr("double[]", param_matrix), 1

    def forward_slots(
        self, active: np.ndarray, param_matrix: np.ndarray | None = None
    ) -> np.ndarray:
        """Float64 values of all slots, ``(num_slots, batch)``.

        ``param_matrix`` (lane-major ``(n_params, batch)`` float64, see
        :func:`repro.engine.theta.theta_param_matrix`) seeds per-lane
        parameter tables for θ-batch replays.
        """
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        params, per_lane = self._f64_params(param_matrix)
        slots = np.empty((self.num_slots, batch))
        self._lib.f64_forward(
            self._tape,
            params,
            per_lane,
            self._ptr("uint8_t[]", active),
            self._ptr("double[]", slots, writable=True),
            batch,
        )
        return slots

    def forward_backward_slots(
        self, active: np.ndarray, param_matrix: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(slots, partials)`` of all slots (one fused call)."""
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        params, per_lane = self._f64_params(param_matrix)
        slots = np.empty((self.num_slots, batch))
        partials = np.empty((self.num_slots, batch))
        self._lib.f64_backward(
            self._tape,
            params,
            per_lane,
            self._ptr("uint8_t[]", active),
            self._ptr("double[]", slots, writable=True),
            self._ptr("double[]", partials, writable=True),
            batch,
        )
        return slots, partials

    def evaluate(self, evidence: Mapping[str, int] | None = None) -> float:
        """Scalar float64 root value (strict evidence, like the scalar path)."""
        root = self.require_root()
        active = self.encoder.encode_one(evidence, strict=True)
        return float(self.forward_slots(active[:, None])[root, 0])

    def evaluate_values(
        self, evidence: Mapping[str, int] | None = None
    ) -> list[float]:
        """Float64 value of every circuit node (strict evidence)."""
        active = self.encoder.encode_one(evidence, strict=True)[:, None]
        slots = self.forward_slots(active)
        return slots[: self.num_nodes, 0].tolist()

    def evaluate_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        node_values: bool = False,
        param_matrix: np.ndarray | None = None,
    ) -> np.ndarray:
        """Float64 root values (or node-value matrix) for a whole batch."""
        root = self.require_root()
        if len(evidence_batch) == 0:
            return (
                np.empty((self.num_nodes, 0))
                if node_values
                else np.empty(0)
            )
        active = self.encoder.encode(evidence_batch, strict=strict)
        slots = self.forward_slots(active, param_matrix=param_matrix)
        if node_values:
            return slots[: self.num_nodes].copy()
        return slots[root].copy()

    def partials_arrays(
        self, evidence: Mapping[str, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar ``(values, partials)`` per node as 1-D float64 arrays.

        The zero-copy primitive behind :meth:`partials` — the session's
        single-query marginals path consumes the arrays directly instead
        of paying a ``tolist`` round-trip per query.
        """
        self.require_differentiable()
        self.require_root()
        active = self.encoder.encode_one(evidence, strict=True)
        slots, partials = self.forward_backward_slots(active[:, None])
        n = self.num_nodes
        return slots[:n, 0], partials[:n, 0]

    def partials(
        self, evidence: Mapping[str, int] | None = None
    ) -> tuple[list[float], list[float]]:
        """Scalar ``(values, partials)`` per node (strict evidence)."""
        values, partials = self.partials_arrays(evidence)
        return values.tolist(), partials.tolist()

    def partials_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_matrix: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``(values, partials)`` matrices, ``(num_nodes, batch)``."""
        self.require_differentiable()
        self.require_root()
        if len(evidence_batch) == 0:
            empty = np.empty((self.num_nodes, 0))
            return empty, empty.copy()
        active = self.encoder.encode(evidence_batch, strict=strict)
        slots, partials = self.forward_backward_slots(
            active, param_matrix=param_matrix
        )
        n = self.num_nodes
        return slots[:n].copy(), partials[:n].copy()

    # -- fixed point -----------------------------------------------------
    def _overflow(self, program: _FixedProgram, dest: int) -> Exception:
        return FixedPointOverflowError(
            f"overflow at slot {dest} in {program.fmt.describe()}"
        )

    def _fixed_params(
        self, program: _FixedProgram, param_words: np.ndarray | None
    ):
        """(pointer, per_lane) for a fixed kernel call."""
        if param_words is None:
            return self._ptr("int64_t[]", program.param_words), 0
        param_words = np.ascontiguousarray(param_words, dtype=np.int64)
        return self._ptr("int64_t[]", param_words), 1

    def fixed_forward_words(
        self,
        fmt: FixedPointFormat,
        active: np.ndarray,
        param_words: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mantissa words of all slots, ``(num_slots, batch)`` int64.

        ``param_words`` (lane-major ``(n_params, batch)`` int64 from
        :meth:`encode_theta`) seeds per-lane quantized parameter tables
        for θ-batch replays.
        """
        _require_binary_tape(self)
        program = self._fixed_program(fmt)
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        params, per_lane = self._fixed_params(program, param_words)
        slots = np.empty((self.num_slots, batch), dtype=np.int64)
        status = self._lib.fixed_forward(
            self._tape,
            params,
            per_lane,
            self._ptr("uint8_t[]", active),
            batch,
            program.frac_bits,
            program.max_word,
            program.one_word,
            program.rounding,
            self._ptr("int64_t[]", slots, writable=True),
        )
        if status >= 0:
            raise self._overflow(program, int(status))
        return slots

    def fixed_backward_words(
        self,
        fmt: FixedPointFormat,
        active: np.ndarray,
        param_words: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mantissa words ``(slots, adjoints)`` of all slots (fused)."""
        _require_binary_tape(self)
        self.require_differentiable()
        self.require_root()
        program = self._fixed_program(fmt)
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        params, per_lane = self._fixed_params(program, param_words)
        slots = np.empty((self.num_slots, batch), dtype=np.int64)
        adjoints = np.empty((self.num_slots, batch), dtype=np.int64)
        status = self._lib.fixed_backward(
            self._tape,
            params,
            per_lane,
            self._ptr("uint8_t[]", active),
            batch,
            program.frac_bits,
            program.max_word,
            program.one_word,
            program.rounding,
            self._ptr("int64_t[]", slots, writable=True),
            self._ptr("int64_t[]", adjoints, writable=True),
        )
        if status >= 0:
            raise self._overflow(program, int(status))
        return slots, adjoints

    # -- float emulation -------------------------------------------------
    def _float_params(
        self,
        program: _FloatProgram,
        param_words: tuple[np.ndarray, np.ndarray] | None,
    ):
        """(m pointer, e pointer, per_lane) for a float call."""
        if param_words is None:
            words_m, words_e, per_lane = program.param_m, program.param_e, 0
        else:
            words_m, words_e = param_words
            per_lane = 1
        return (
            self._ptr("int64_t[]", np.ascontiguousarray(words_m, np.int64)),
            self._ptr("int64_t[]", np.ascontiguousarray(words_e, np.int64)),
            per_lane,
        )

    def float_forward_words(
        self,
        fmt: FloatFormat,
        active: np.ndarray,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mantissas, exponents)`` of all slots, ``(num_slots, batch)``.

        ``param_words`` (a lane-major ``(m, e)`` int64 matrix pair from
        :meth:`encode_theta`) seeds per-lane quantized parameter tables
        for θ-batch replays.
        """
        _require_binary_tape(self)
        program = self._float_program(fmt)
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        pm, pe, per_lane = self._float_params(program, param_words)
        m_slots = np.empty((self.num_slots, batch), dtype=np.int64)
        e_slots = np.empty((self.num_slots, batch), dtype=np.int64)
        status = self._lib.flt_forward(
            self._tape,
            pm,
            pe,
            per_lane,
            self._ptr("uint8_t[]", active),
            batch,
            program.mantissa_bits,
            program.min_exponent,
            program.max_exponent,
            program.one_m,
            program.one_e,
            program.rounding,
            self._ptr("int64_t[]", m_slots, writable=True),
            self._ptr("int64_t[]", e_slots, writable=True),
        )
        if status >= 0:
            raise program.error(int(status))
        return m_slots, e_slots

    def float_backward_words(
        self,
        fmt: FloatFormat,
        active: np.ndarray,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[
        tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ]:
        """``((value_m, value_e), (adj_m, adj_e))`` of all slots (fused)."""
        _require_binary_tape(self)
        self.require_differentiable()
        self.require_root()
        program = self._float_program(fmt)
        active = self._active_u8(active)
        batch = active.shape[1] if active.ndim == 2 else 1
        pm, pe, per_lane = self._float_params(program, param_words)
        shape = (self.num_slots, batch)
        m_slots = np.empty(shape, dtype=np.int64)
        e_slots = np.empty(shape, dtype=np.int64)
        adj_m = np.empty(shape, dtype=np.int64)
        adj_e = np.empty(shape, dtype=np.int64)
        # Row scratch for backward product contributions (C side has no
        # allocator access; two rows per call keep it on the fast path).
        scratch_m = np.empty(batch, dtype=np.int64)
        scratch_e = np.empty(batch, dtype=np.int64)
        status = self._lib.flt_backward(
            self._tape,
            pm,
            pe,
            per_lane,
            self._ptr("uint8_t[]", active),
            batch,
            program.mantissa_bits,
            program.min_exponent,
            program.max_exponent,
            program.one_m,
            program.one_e,
            program.rounding,
            self._ptr("int64_t[]", m_slots, writable=True),
            self._ptr("int64_t[]", e_slots, writable=True),
            self._ptr("int64_t[]", adj_m, writable=True),
            self._ptr("int64_t[]", adj_e, writable=True),
            self._ptr("int64_t[]", scratch_m, writable=True),
            self._ptr("int64_t[]", scratch_e, writable=True),
        )
        if status >= 0:
            raise program.error(int(status))
        return (m_slots, e_slots), (adj_m, adj_e)

    # -- quantized dispatch (both word families) -------------------------
    def _quantized_root_values(
        self,
        fmt: Any,
        active: np.ndarray,
        param_words=None,
    ) -> np.ndarray:
        """Float64 root values of one quantized forward sweep."""
        root = self.require_root()
        if isinstance(fmt, FixedPointFormat):
            words = self.fixed_forward_words(
                fmt, active, param_words=param_words
            )
            return words[root] * 2.0 ** (-fmt.fraction_bits)
        m_slots, e_slots = self.float_forward_words(
            fmt, active, param_words=param_words
        )
        return self._float_real(fmt, m_slots[root], e_slots[root])

    def _float_real(
        self, fmt: FloatFormat, mantissas: np.ndarray, exponents: np.ndarray
    ) -> np.ndarray:
        # Same conversion expression as the numpy executors, for
        # bit-identical float64 reporting.
        return np.ldexp(
            mantissas.astype(np.float64),
            (exponents - fmt.mantissa_bits).astype(np.int32),
        )

    def evaluate_quantized(
        self,
        fmt: Any,
        evidence: Mapping[str, int] | None = None,
        strict: bool = True,
    ) -> float:
        """Scalar quantized root value, converted back to float64."""
        self.require_root()
        active = self.encoder.encode_one(evidence, strict=strict)[:, None]
        return float(self._quantized_root_values(fmt, active)[0])

    def evaluate_quantized_batch(
        self,
        fmt: Any,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ) -> np.ndarray:
        """Float64 quantized root values for a whole batch."""
        self.require_root()
        if len(evidence_batch) == 0:
            return np.empty(0)
        active = self.encoder.encode(evidence_batch, strict=strict)
        return self._quantized_root_values(fmt, active, param_words)

    def quantized_partials_batch(
        self,
        fmt: Any,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 quantized ``(values, partials)`` per node for a batch."""
        if len(evidence_batch) == 0:
            empty = np.empty((self.num_nodes, 0))
            return empty, empty.copy()
        active = self.encoder.encode(evidence_batch, strict=strict)
        n = self.num_nodes
        if isinstance(fmt, FixedPointFormat):
            slots, adjoints = self.fixed_backward_words(
                fmt, active, param_words=param_words
            )
            scale = 2.0 ** (-fmt.fraction_bits)
            return slots[:n] * scale, adjoints[:n] * scale
        (value_m, value_e), (adj_m, adj_e) = self.float_backward_words(
            fmt, active, param_words=param_words
        )
        return (
            self._float_real(fmt, value_m[:n], value_e[:n]),
            self._float_real(fmt, adj_m[:n], adj_e[:n]),
        )


#: Per-tape view cache. Weak, and views hold no reference to their
#: tape, so an entry dies with its tape.
_KERNELS_MEMO: KeyedMemo = KeyedMemo(weak=True, name="native_kernels")


def native_kernels_for(
    tape: Tape, encoder: EvidenceEncoder | None = None
) -> NativeTapeKernels:
    """The cached :class:`NativeTapeKernels` of a tape (thread-safe).

    Raises :class:`~repro.engine.native.build.NativeBuildError` when the
    native toolchain is unavailable — callers fall back to numpy.
    """
    return _KERNELS_MEMO.get(
        tape, lambda: NativeTapeKernels(tape, encoder)
    )
