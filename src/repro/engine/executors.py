"""Tape executors: every sweep variant, one shared IR.

All executors replay the same :class:`~repro.engine.tape.Tape`:

* :func:`execute_values` / :func:`execute_real` — scalar float64, the
  reference semantics (bit-identical to the seed per-node loop);
* :func:`execute_batch` — numpy float64 over a whole evidence batch, one
  vector op per tape op (bit-identical to the scalar pass, since both
  fold left-to-right in IEEE doubles);
* :class:`QuantizedTapeEvaluator` — scalar sweep with any
  :class:`~repro.ac.evaluate.QuantizedBackend`;
* :class:`FixedPointBatchExecutor` — exact int64-mantissa fixed point
  over a batch, bit-identical to
  :class:`~repro.arith.fixedpoint.FixedPointBackend`;
* :class:`FloatBatchExecutor` — exact (mantissa, exponent) float
  emulation over a batch, bit-identical to
  :class:`~repro.arith.floatingpoint.FloatBackend`. This is new: the
  seed had no vectorized float path, so float sweeps paid the scalar
  big-int loop for every instance.

Vectorized exactness contracts: the fixed executor needs products to fit
in int64 (``2·(I+F) ≤ 62``); the float executor needs mantissa products
to fit (``2·(M+1) ≤ 62``) and bounded exponents (``E ≤ 32``). Wider
formats must use the scalar big-int paths — constructors raise
``ValueError`` so callers can fall back.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..arith.fixedpoint import (
    FixedPointBackend,
    FixedPointFormat,
    FixedPointOverflowError,
)
from ..arith.floatingpoint import (
    FloatBackend,
    FloatFormat,
    FloatOverflowError,
    FloatUnderflowError,
)
from ..arith.rounding import RoundingMode
from .encoder import EvidenceEncoder
from .memo import KeyedMemo
from .tape import OP_MAX, OP_PRODUCT, OP_SUM, Tape


# ----------------------------------------------------------------------
# Real (float64) execution
# ----------------------------------------------------------------------
def _forward_slots(
    tape: Tape,
    evidence: Mapping[str, int] | None,
    encoder: EvidenceEncoder | None,
) -> list[float]:
    """Scalar float64 forward sweep over *all* slots (scratch included)."""
    if encoder is None:
        encoder = EvidenceEncoder.for_tape(tape)
    active = encoder.encode_one(evidence, strict=True)
    slots = [0.0] * tape.num_slots
    for slot, value_id in zip(tape.param_slots, tape.param_ids):
        slots[slot] = float(tape.param_values[value_id])
    for position, slot in enumerate(tape.indicator_slots):
        slots[slot] = 1.0 if active[position] else 0.0
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            slots[dest] = slots[left] + slots[right]
        elif opcode == OP_PRODUCT:
            slots[dest] = slots[left] * slots[right]
        elif opcode == OP_MAX:
            left_value, right_value = slots[left], slots[right]
            slots[dest] = left_value if left_value >= right_value else right_value
        else:  # OP_COPY
            slots[dest] = slots[left]
    return slots


def execute_values(
    tape: Tape,
    evidence: Mapping[str, int] | None = None,
    encoder: EvidenceEncoder | None = None,
) -> list[float]:
    """Float64 value of every circuit node under the given evidence.

    Returns ``num_nodes`` values aligned with circuit node indices
    (scratch slots are dropped).
    """
    return _forward_slots(tape, evidence, encoder)[: tape.num_nodes]


def execute_real(
    tape: Tape,
    evidence: Mapping[str, int] | None = None,
    encoder: EvidenceEncoder | None = None,
) -> float:
    """Float64 value of the root under the given evidence."""
    root = tape.require_root()
    return execute_values(tape, evidence, encoder)[root]


def execute_batch(
    tape: Tape,
    evidence_batch: Sequence[Mapping[str, int]],
    encoder: EvidenceEncoder | None = None,
    node_values: bool = False,
    strict: bool = False,
    param_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 root values for a whole evidence batch.

    One numpy operation per tape op. With ``node_values=True`` returns
    the full ``(num_nodes, batch)`` value matrix instead of the root
    row. ``strict=True`` rejects evidence on unknown variables (the
    scalar paths' behavior); the default ignores it like the seed batch
    evaluator. ``param_matrix`` replaces the tape's parameter table with
    per-lane values — a lane-major ``(n_params, batch)`` float64 matrix
    (see :func:`repro.engine.theta.theta_param_matrix`) turning the
    sweep into a θ-batch replay.
    """
    root = tape.require_root()
    batch = len(evidence_batch)
    if batch == 0:
        return (
            np.empty((tape.num_nodes, 0)) if node_values else np.empty(0)
        )
    slots = _forward_slots_batch(
        tape, evidence_batch, encoder, strict, param_matrix
    )
    if node_values:
        return slots[: tape.num_nodes].copy()
    return slots[root].copy()


def _forward_slots_batch(
    tape: Tape,
    evidence_batch: Sequence[Mapping[str, int]],
    encoder: EvidenceEncoder | None,
    strict: bool,
    param_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Batched float64 forward sweep over *all* slots (scratch included)."""
    if encoder is None:
        encoder = EvidenceEncoder.for_tape(tape)
    active = encoder.encode(evidence_batch, strict=strict)
    slots = np.empty((tape.num_slots, len(evidence_batch)))
    if param_matrix is None:
        slots[tape.param_slots] = tape.param_values[tape.param_ids][:, None]
    else:
        slots[tape.param_slots] = param_matrix[tape.param_ids]
    slots[tape.indicator_slots] = active
    for opcode, dest, left, right in tape.op_tuples:
        if opcode == OP_SUM:
            np.add(slots[left], slots[right], out=slots[dest])
        elif opcode == OP_PRODUCT:
            np.multiply(slots[left], slots[right], out=slots[dest])
        elif opcode == OP_MAX:
            np.maximum(slots[left], slots[right], out=slots[dest])
        else:  # OP_COPY
            slots[dest] = slots[left]
    return slots


# ----------------------------------------------------------------------
# Real (float64) backward (derivative) execution
# ----------------------------------------------------------------------
def execute_partials(
    tape: Tape,
    evidence: Mapping[str, int] | None = None,
    encoder: EvidenceEncoder | None = None,
) -> tuple[list[float], list[float]]:
    """Upward values and downward partials ``∂f/∂v_i`` for every node.

    One forward replay plus one backward replay of the cached
    :class:`~repro.engine.tape.BackwardProgram`. Returns
    ``(values, partials)`` aligned with circuit node indices;
    bit-identical to the frozen node-walking oracle
    (:func:`repro.engine.reference.reference_partial_derivatives`) —
    the binary fold chains apply exactly its prefix/suffix product rule.
    Rejects MAX circuits (derivatives are undefined there).
    """
    tape.require_differentiable()
    root = tape.require_root()
    slots = _forward_slots(tape, evidence, encoder)
    partials = [0.0] * tape.num_slots
    partials[root] = 1.0
    for opcode, dest, left, right in tape.backward.op_tuples:
        seed = partials[dest]
        if seed == 0.0:
            continue  # zero contributions are exact no-ops
        if opcode == OP_SUM:
            partials[left] += seed
            partials[right] += seed
        elif opcode == OP_PRODUCT:
            partials[left] += seed * slots[right]
            partials[right] += seed * slots[left]
        else:  # OP_COPY
            partials[left] += seed
    return slots[: tape.num_nodes], partials[: tape.num_nodes]


def execute_partials_batch(
    tape: Tape,
    evidence_batch: Sequence[Mapping[str, int]],
    encoder: EvidenceEncoder | None = None,
    strict: bool = False,
    param_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched upward values and downward partials for every node.

    Returns ``(values, partials)``, each of shape
    ``(num_nodes, batch)`` — the joint of *every* state of *every*
    variable for a whole evidence batch in two tape replays (one numpy
    op per tape op per direction). Row-for-row bit-identical to
    :func:`execute_partials`. ``param_matrix`` seeds per-lane parameter
    values (lane-major ``(n_params, batch)``) for θ-batch replays; the
    backward sweep needs no further change — the product rule reads the
    per-lane forward slots.
    """
    tape.require_differentiable()
    root = tape.require_root()
    batch = len(evidence_batch)
    if batch == 0:
        empty = np.empty((tape.num_nodes, 0))
        return empty, empty.copy()
    slots = _forward_slots_batch(
        tape, evidence_batch, encoder, strict, param_matrix
    )
    partials = np.zeros((tape.num_slots, batch))
    partials[root] = 1.0
    for opcode, dest, left, right in tape.backward.op_tuples:
        seed = partials[dest]
        if opcode == OP_SUM:
            partials[left] += seed
            partials[right] += seed
        elif opcode == OP_PRODUCT:
            partials[left] += seed * slots[right]
            partials[right] += seed * slots[left]
        else:  # OP_COPY
            partials[left] += seed
    return slots[: tape.num_nodes].copy(), partials[: tape.num_nodes].copy()


def _require_binary_tape(tape: Tape) -> None:
    """Quantized semantics demand one rounding per two-input operator.

    A tape compiled from an n-ary circuit would evaluate the left-fold
    decomposition — numerically plausible but silently uncovered by the
    error analysis and different from the generated hardware, exactly
    what the legacy quantized evaluators guarded against.
    """
    if not tape.source_is_binary:
        raise ValueError(
            "quantized evaluation requires a binary circuit; apply "
            "repro.ac.transform.binarize first"
        )


# ----------------------------------------------------------------------
# Generic quantized execution (any backend, scalar)
# ----------------------------------------------------------------------
class QuantizedTapeEvaluator:
    """Scalar quantized sweep over a tape with any arithmetic backend.

    Pre-quantizes the deduplicated parameter table per backend and keeps
    the inner loop free of per-node attribute dispatch. Bit-identical to
    :func:`repro.ac.evaluate.evaluate_quantized` on binary circuits.
    """

    def __init__(self, tape: Tape, encoder: EvidenceEncoder | None = None):
        _require_binary_tape(tape)
        self.tape = tape
        self.encoder = encoder or EvidenceEncoder.for_tape(tape)
        # Keyed by backend identity; weak so cached tables die with the
        # backend instead of pinning it. Quantizing the table is the
        # slow part — KeyedMemo builds outside its lock, so different
        # backends never serialize each other.
        self._param_memo = KeyedMemo(weak=True)

    def _quantized_parameters(self, backend) -> list[Any]:
        return self._param_memo.get(
            backend,
            lambda: [
                backend.from_real(float(value))
                for value in self.tape.param_values
            ],
        )

    def _forward_slots(
        self,
        backend,
        evidence: Mapping[str, int] | None,
        strict: bool,
        param_values: Sequence[float] | None = None,
    ) -> list[Any]:
        """Quantized forward sweep over all slots (scratch included).

        ``param_values`` overrides the tape's deduplicated parameter
        table for this sweep (one float per table entry, quantized
        per call, uncached) — the scalar per-θ path behind θ batches on
        formats too wide for the vectorized executors.
        """
        tape = self.tape
        if param_values is None:
            quantized = self._quantized_parameters(backend)
        else:
            quantized = [
                backend.from_real(float(value)) for value in param_values
            ]
        active = self.encoder.encode_one(evidence, strict=strict)
        slots: list[Any] = [None] * tape.num_slots
        for slot, value_id in zip(tape.param_slots, tape.param_ids):
            slots[slot] = quantized[value_id]
        one, zero = backend.one(), backend.zero()
        for position, slot in enumerate(tape.indicator_slots):
            slots[slot] = one if active[position] else zero
        add, multiply, maximum = backend.add, backend.multiply, backend.maximum
        for opcode, dest, left, right in tape.op_tuples:
            if opcode == OP_SUM:
                slots[dest] = add(slots[left], slots[right])
            elif opcode == OP_PRODUCT:
                slots[dest] = multiply(slots[left], slots[right])
            elif opcode == OP_MAX:
                slots[dest] = maximum(slots[left], slots[right])
            else:  # OP_COPY
                slots[dest] = slots[left]
        return slots

    def evaluate(
        self,
        backend,
        evidence: Mapping[str, int] | None = None,
        strict: bool = True,
        param_values: Sequence[float] | None = None,
    ) -> float:
        """Quantized root value, converted back to float64."""
        root = self.tape.require_root()
        slots = self._forward_slots(backend, evidence, strict, param_values)
        return backend.to_real(slots[root])

    def partials(
        self,
        backend,
        evidence: Mapping[str, int] | None = None,
        strict: bool = True,
        param_values: Sequence[float] | None = None,
    ) -> tuple[list[Any], list[Any]]:
        """Quantized upward values and downward partials per node.

        The quantized differential approach: the backward sweep runs in
        the *same* number system as the forward sweep — every adjoint
        addition and product-rule multiplication is one rounded backend
        operation, exactly what a hardware downward pass would do. With
        a big-int backend this is the golden reference the vectorized
        backward executors are differentially tested against.

        Returns ``(values, partials)`` as backend values aligned with
        circuit node indices.
        """
        tape = self.tape
        tape.require_differentiable()
        root = tape.require_root()
        slots = self._forward_slots(backend, evidence, strict, param_values)
        add, multiply = backend.add, backend.multiply
        adjoints: list[Any] = [backend.zero()] * tape.num_slots
        adjoints[root] = backend.one()
        for opcode, dest, left, right in tape.backward.op_tuples:
            seed = adjoints[dest]
            if opcode == OP_SUM:
                adjoints[left] = add(adjoints[left], seed)
                adjoints[right] = add(adjoints[right], seed)
            elif opcode == OP_PRODUCT:
                adjoints[left] = add(
                    adjoints[left], multiply(seed, slots[right])
                )
                adjoints[right] = add(
                    adjoints[right], multiply(seed, slots[left])
                )
            else:  # OP_COPY
                adjoints[left] = add(adjoints[left], seed)
        return slots[: tape.num_nodes], adjoints[: tape.num_nodes]


# ----------------------------------------------------------------------
# Exact vectorized parameter quantization (§3.1 eqs. 2 and 6)
# ----------------------------------------------------------------------
def _round_shift_words(value: np.ndarray, shift, mode: RoundingMode):
    """Vectorized :func:`repro.arith.rounding.round_shift`, 0 ≤ shift ≤ 62.

    ``shift`` may be a scalar or a per-lane array; ``value`` must be
    non-negative int64 words.
    """
    quotient = value >> shift
    if mode is RoundingMode.TRUNCATE:
        return quotient
    remainder = value - (quotient << shift)
    # For shift == 0 lanes remainder is 0, so the (arbitrary) half
    # value never triggers a round-up there.
    half = np.int64(1) << (np.maximum(shift, 1) - 1)
    if mode is RoundingMode.NEAREST_UP:
        return quotient + (remainder >= half)
    round_up = (remainder > half) | ((remainder == half) & ((quotient & 1) == 1))
    return quotient + round_up


def _split_doubles(values: np.ndarray):
    """Exact ``(mantissa, exponent, invalid)`` decomposition of doubles.

    Every finite non-negative entry equals ``mantissa · 2^(exponent-53)``
    with a 53-bit int64 ``mantissa`` (``frexp`` normalizes subnormals);
    zeros, ``-0.0`` included, give mantissa 0. ``invalid`` marks the
    negative and non-finite entries that
    :func:`repro.arith.rounding.float_to_scaled_integer` rejects; they
    decompose as zero so no cast warns.
    """
    invalid = ~np.isfinite(values) | (values < 0.0)
    fraction, exponent = np.frexp(np.where(invalid, 0.0, values))
    mantissa = np.ldexp(fraction, 53).astype(np.int64)
    return mantissa, exponent.astype(np.int64), invalid


def _first_offender(values: np.ndarray, bad: np.ndarray) -> tuple[int, float]:
    """Row-major index and value of the first flagged entry."""
    index = int(np.flatnonzero(bad)[0])
    return index, float(values.flat[index])


def _invalid_real(value: float) -> ValueError:
    return ValueError(f"expected a non-negative finite float, got {value!r}")


# ----------------------------------------------------------------------
# Vectorized fixed point
# ----------------------------------------------------------------------
class FixedWordKernel:
    """Bit-exact vectorized fixed-point operator semantics on int64 words.

    The operator core shared by :class:`FixedPointBatchExecutor` (tape
    sweeps) and the hardware stream simulator
    (:class:`repro.hw.stream.StreamSimulator`): exact 2F-fraction
    products rounded back to F bits, exact sums, and the scalar
    backend's overflow-raising semantics. Valid for every format with
    ``2·(I+F) ≤ 62`` so products stay exact in int64 lanes.
    """

    def __init__(self, fmt: FixedPointFormat) -> None:
        if not fmt.fits_int64_products:
            raise ValueError(
                f"vectorized fixed point needs 2·(I+F) ≤ 62 bits to stay "
                f"exact in int64; {fmt.describe()} has {fmt.total_bits} "
                f"total bits — use the big-int backend instead"
            )
        self.fmt = fmt
        self.max_mantissa = fmt.max_mantissa
        self.one_word = np.int64(FixedPointBackend(fmt).one().mantissa)

    def encode_params(self, values: Sequence[float]) -> np.ndarray:
        """Quantize real parameter values to int64 mantissa words."""
        return self.encode_param_matrix(np.asarray(values)[None])[:, 0]

    def encode_param_matrix(self, theta: np.ndarray) -> np.ndarray:
        """Quantize an ``(n_theta, n_params)`` θ batch in whole-array ops.

        Returns the lane-major ``(n_params, n_theta)`` int64 word matrix
        the executors seed their parameter slots from. Every entry is
        bit-identical to :meth:`FixedPointBackend.from_real` (eq. 2), and
        the first offending entry in row-major order raises that
        method's exception type and message.
        """
        values = np.asarray(theta, dtype=np.float64)
        mantissa, exponent, invalid = _split_doubles(values)
        # value · 2^F == mantissa / 2^shift. A left shift (shift ≤ 0)
        # keeps the 53-bit mantissa, far above every int64 format's
        # max_mantissa (< 2^31), so clipping to 0 still flags the
        # overflow before any shift happens. Any right shift of 54 or
        # more rounds a 53-bit mantissa to 0 in every mode, so clipping
        # to 54 is exact too.
        shift = np.clip(53 - self.fmt.fraction_bits - exponent, 0, 54)
        words = _round_shift_words(mantissa, shift, self.fmt.rounding)
        overflow = words > self.max_mantissa
        bad = invalid | overflow
        if bad.any():
            index, value = _first_offender(values, bad)
            if invalid.flat[index]:
                raise _invalid_real(value)
            raise FixedPointOverflowError(
                f"value {value!r} exceeds range of {self.fmt.describe()}; "
                f"increase integer bits"
            )
        return np.ascontiguousarray(words.T)

    def round_products(self, products: np.ndarray) -> np.ndarray:
        """Vectorized rounding of 2F-fraction products back to F bits."""
        fraction_bits = self.fmt.fraction_bits
        if fraction_bits == 0:
            # Integer formats: products carry no extra fraction bits, so
            # there is nothing to round (1 << (F-1) below would be
            # ill-defined).
            return products
        quotient = products >> fraction_bits
        remainder = products & ((1 << fraction_bits) - 1)
        mode = self.fmt.rounding
        if mode is RoundingMode.TRUNCATE:
            return quotient
        half = 1 << (fraction_bits - 1)
        if mode is RoundingMode.NEAREST_UP:
            return quotient + (remainder >= half)
        round_up = (remainder > half) | (
            (remainder == half) & ((quotient & 1) == 1)
        )
        return quotient + round_up

    def check(self, result: np.ndarray, where: str = "operator") -> np.ndarray:
        """Overflow-check an op result, like the scalar backend raises."""
        if result.max(initial=0) > self.max_mantissa:
            raise FixedPointOverflowError(
                f"overflow at {where} in {self.fmt.describe()}"
            )
        return result

    # Composite checked operators (one rounding per two-input operator).
    def add(self, a: np.ndarray, b: np.ndarray, where: str = "adder"):
        return self.check(a + b, where)

    def multiply(self, a: np.ndarray, b: np.ndarray, where: str = "multiplier"):
        return self.check(self.round_products(a * b), where)

    def maximum(self, a: np.ndarray, b: np.ndarray, where: str = "max"):
        return self.check(np.maximum(a, b), where)

    def to_real(self, words: np.ndarray) -> np.ndarray:
        """Float64 values of mantissa words."""
        return words * 2.0 ** (-self.fmt.fraction_bits)


class FixedPointBatchExecutor:
    """Exact batched fixed-point evaluation on numpy int64 mantissas.

    Bit-identical to the scalar big-int backend for every format with
    ``2·(I+F) ≤ 62`` (so 2F-fraction products stay exact in int64),
    including ``F = 0`` formats, every rounding mode, and the
    overflow-raising semantics. Operator semantics live in the shared
    :class:`FixedWordKernel`.
    """

    def __init__(
        self,
        tape: Tape,
        fmt: FixedPointFormat,
        encoder: EvidenceEncoder | None = None,
    ) -> None:
        _require_binary_tape(tape)
        self._kernel = FixedWordKernel(fmt)
        self.tape = tape
        self.fmt = fmt
        self.encoder = encoder or EvidenceEncoder.for_tape(tape)
        # Quantize the deduplicated parameter table once, exactly.
        self._param_words = self._kernel.encode_params(tape.param_values)
        self._one_word = self._kernel.one_word

    def _round_products(self, products: np.ndarray) -> np.ndarray:
        return self._kernel.round_products(products)

    def _checked(self, result: np.ndarray, dest: int) -> np.ndarray:
        return self._kernel.check(result, f"slot {dest}")

    def encode_theta(self, theta: np.ndarray) -> np.ndarray:
        """Per-row quantized parameter tables for a θ batch.

        Returns the lane-major ``(n_params, n_theta)`` int64 word matrix
        to pass as ``param_words`` — quantized once per batch, reusable
        across forward and backward sweeps.
        """
        return self._kernel.encode_param_matrix(theta)

    def _forward_slot_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool,
        param_words: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mantissa words of *all* slots, shape ``(num_slots, batch)``."""
        tape = self.tape
        active = self.encoder.encode(evidence_batch, strict=strict)
        slots = np.zeros((tape.num_slots, len(evidence_batch)), dtype=np.int64)
        if param_words is None:
            slots[tape.param_slots] = self._param_words[tape.param_ids][:, None]
        else:
            slots[tape.param_slots] = param_words[tape.param_ids]
        slots[tape.indicator_slots] = np.where(active, self._one_word, 0)
        for opcode, dest, left, right in tape.op_tuples:
            if opcode == OP_SUM:
                result = slots[left] + slots[right]
            elif opcode == OP_PRODUCT:
                result = self._round_products(slots[left] * slots[right])
            elif opcode == OP_MAX:
                result = np.maximum(slots[left], slots[right])
            else:  # OP_COPY
                slots[dest] = slots[left]
                continue
            slots[dest] = self._checked(result, dest)
        return slots

    def evaluate_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: np.ndarray | None = None,
    ) -> np.ndarray:
        """Root mantissa words, shape ``(batch,)`` int64.

        Raises :class:`FixedPointOverflowError` if any intermediate
        exceeds the representable range, exactly like the scalar backend.
        ``param_words`` (from :meth:`encode_theta`) seeds per-lane
        quantized parameter tables for θ-batch replays.
        """
        root = self.tape.require_root()
        batch = len(evidence_batch)
        if batch == 0:
            return np.empty(0, dtype=np.int64)
        return self._forward_slot_words(
            evidence_batch, strict, param_words
        )[root].copy()

    def evaluate_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: np.ndarray | None = None,
    ) -> np.ndarray:
        """Float64 values of the root word for a whole batch."""
        words = self.evaluate_batch_words(
            evidence_batch, strict=strict, param_words=param_words
        )
        return words * 2.0 ** (-self.fmt.fraction_bits)

    # -- backward (derivative) sweep ------------------------------------
    def partials_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantized ``(values, partials)`` mantissa words per node.

        Both arrays have shape ``(num_nodes, batch)``. The backward
        sweep applies the product rule in the emulated fixed-point
        arithmetic — one rounded multiply and one checked add per
        adjoint contribution — bit-identical to replaying
        :meth:`QuantizedTapeEvaluator.partials` with the big-int
        :class:`~repro.arith.fixedpoint.FixedPointBackend`.
        ``param_words`` (from :meth:`encode_theta`) seeds per-lane
        quantized parameter tables for θ-batch replays.
        """
        tape = self.tape
        tape.require_differentiable()
        root = tape.require_root()
        batch = len(evidence_batch)
        if batch == 0:
            empty = np.empty((tape.num_nodes, 0), dtype=np.int64)
            return empty, empty.copy()
        slots = self._forward_slot_words(evidence_batch, strict, param_words)
        adjoints = np.zeros((tape.num_slots, batch), dtype=np.int64)
        adjoints[root] = self._one_word
        for opcode, dest, left, right in tape.backward.op_tuples:
            seed = adjoints[dest]
            if opcode == OP_SUM:
                adjoints[left] = self._checked(adjoints[left] + seed, left)
                adjoints[right] = self._checked(adjoints[right] + seed, right)
            elif opcode == OP_PRODUCT:
                contribution = self._checked(
                    self._round_products(seed * slots[right]), left
                )
                adjoints[left] = self._checked(
                    adjoints[left] + contribution, left
                )
                contribution = self._checked(
                    self._round_products(seed * slots[left]), right
                )
                adjoints[right] = self._checked(
                    adjoints[right] + contribution, right
                )
            else:  # OP_COPY
                adjoints[left] = self._checked(adjoints[left] + seed, left)
        return (
            slots[: tape.num_nodes].copy(),
            adjoints[: tape.num_nodes].copy(),
        )

    def partials_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(values, partials)`` per node for a whole batch."""
        values, partials = self.partials_batch_words(
            evidence_batch, strict=strict, param_words=param_words
        )
        scale = 2.0 ** (-self.fmt.fraction_bits)
        return values * scale, partials * scale


# ----------------------------------------------------------------------
# Vectorized floating point (new in the engine)
# ----------------------------------------------------------------------
class FloatWordKernel:
    """Bit-exact vectorized float operator semantics on (m, e) pairs.

    The operator core shared by :class:`FloatBatchExecutor` (tape
    sweeps) and the hardware stream simulator
    (:class:`repro.hw.stream.StreamSimulator`). Implements §3.1.2
    operator semantics — exact integer-mantissa arithmetic with exactly
    one rounding per operator — vectorized with numpy, bit-identical to
    :class:`FloatBackend` (differentially tested). Alignment in addition
    uses the classic guard/round/sticky compression: shifted-out addend
    bits collapse into one sticky bit at least two positions below the
    rounding point, which preserves the `>half` / `=half` / `<half`
    distinctions every rounding mode needs, so the compressed sum rounds
    exactly like the exact big-int sum.

    Zeros are (0, 0) pairs, masked through every operator like the
    scalar backend's ``is_zero`` short-circuits.
    """

    #: Guard window for addition alignment (≥ 2 keeps sticky sound; 3
    #: mirrors hardware guard/round/sticky).
    _GUARD_BITS = 3

    def __init__(self, fmt: FloatFormat) -> None:
        if not fmt.fits_int64_products:
            raise ValueError(
                f"vectorized float needs 2·(M+1) ≤ 62 bits (and E ≤ 32) "
                f"to keep mantissa arithmetic exact in int64; "
                f"{fmt.describe()} — use the big-int backend instead"
            )
        self.fmt = fmt
        one = FloatBackend(fmt).one()
        self.one = (np.int64(one.mantissa), np.int64(one.exponent))

    def encode_params(
        self, values: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantize real parameter values to (mantissa, exponent) arrays."""
        mantissas, exponents = self.encode_param_matrix(
            np.asarray(values)[None]
        )
        return mantissas[:, 0], exponents[:, 0]

    def encode_param_matrix(
        self, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantize an ``(n_theta, n_params)`` θ batch in whole-array ops.

        Returns lane-major ``(n_params, n_theta)`` int64 ``(m, e)`` word
        matrices — the ``param_words`` the executors seed their
        parameter slots from. Every entry is bit-identical to
        :meth:`FloatBackend.from_real` (eq. 6), and the first offending
        entry in row-major order raises that method's exception type
        and message.
        """
        fmt = self.fmt
        values = np.asarray(theta, dtype=np.float64)
        mantissa, exponent, invalid = _split_doubles(values)
        # Rounding the 53-bit mantissa to M+1 bits is one constant
        # right shift (M ≤ 30); a carry into bit M+1 leaves a power of
        # two, so halving it is exact.
        target = fmt.mantissa_bits + 1
        rounded = _round_shift_words(mantissa, 53 - target, fmt.rounding)
        carry = rounded >> target
        rounded >>= carry
        # value == rounded · 2^(exponent - 1 + carry - M); zeros keep the
        # scalar backend's (0, 0) pair, and exponent 0 is always in range.
        exponent = np.where(mantissa == 0, 0, exponent - 1 + carry)
        overflow = exponent > fmt.max_exponent
        underflow = exponent < fmt.min_exponent
        bad = invalid | overflow | underflow
        if bad.any():
            index, value = _first_offender(values, bad)
            if invalid.flat[index]:
                raise _invalid_real(value)
            found = int(exponent.flat[index])
            if overflow.flat[index]:
                raise FloatOverflowError(
                    f"overflow in {fmt.describe()}: exponent {found} > "
                    f"{fmt.max_exponent}; increase exponent bits"
                )
            raise FloatUnderflowError(
                f"underflow in {fmt.describe()}: exponent {found} < "
                f"{fmt.min_exponent}; min-value analysis should pick E "
                f"large enough"
            )
        return np.ascontiguousarray(rounded.T), np.ascontiguousarray(exponent.T)

    # -- rounding core --------------------------------------------------
    def _normalize(
        self,
        value: np.ndarray,
        scale: np.ndarray,
        excess_no_carry,
        live,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Round ``value · 2^scale`` to the format (one rounding).

        ``value`` is known to have either ``M+1+excess_no_carry`` or one
        more significant bits (unsigned add/multiply never cancels);
        ``excess_no_carry`` may be a scalar or a per-lane array. ``live``
        marks lanes whose result is genuinely used (scalar True when all
        are); only live lanes can raise overflow/underflow.
        """
        mantissa_bits = self.fmt.mantissa_bits
        target = mantissa_bits + 1
        carry = value >= (np.int64(1) << (target + excess_no_carry))
        shift = excess_no_carry + carry
        rounded = _round_shift_words(value, shift, self.fmt.rounding)
        scale = scale + shift
        # Rounding may carry into a new MSB (all-ones mantissa); the
        # result is then a power of two, so halving is exact.
        overflowed = rounded >> target > 0
        rounded = np.where(overflowed, rounded >> 1, rounded)
        scale = scale + overflowed
        exponent = scale + mantissa_bits
        if bool((live & (exponent > self.fmt.max_exponent)).any()):
            raise FloatOverflowError(
                f"overflow in {self.fmt.describe()}: exponent exceeds "
                f"{self.fmt.max_exponent}; increase exponent bits"
            )
        if bool((live & (exponent < self.fmt.min_exponent)).any()):
            raise FloatUnderflowError(
                f"underflow in {self.fmt.describe()}: exponent below "
                f"{self.fmt.min_exponent}; min-value analysis should pick "
                f"E large enough"
            )
        return rounded, exponent

    # -- operators ------------------------------------------------------
    def add(self, ma, ea, mb, eb):
        zero_a, zero_b = ma == 0, mb == 0
        any_zero = bool(zero_a.any()) or bool(zero_b.any())
        if any_zero:
            # Dummy-substitute zero lanes so the shared path stays in
            # range (1+1 can neither overflow nor underflow any format).
            one_m, one_e = self.one
            MA = np.where(zero_a, one_m, ma)
            EA = np.where(zero_a, one_e, ea)
            MB = np.where(zero_b, one_m, mb)
            EB = np.where(zero_b, one_e, eb)
            live = ~(zero_a | zero_b)
        else:
            MA, EA, MB, EB = ma, ea, mb, eb
            live = True
        swap = EB > EA
        hi_m, lo_m = np.where(swap, MB, MA), np.where(swap, MA, MB)
        hi_e, lo_e = np.where(swap, EB, EA), np.where(swap, EA, EB)
        distance = hi_e - lo_e
        window = np.minimum(distance, self._GUARD_BITS)
        shift = distance - window
        # Compress the shifted-out addend bits into a sticky LSB.
        mantissa_bits = self.fmt.mantissa_bits
        capped = np.minimum(shift, mantissa_bits + 1)
        sticky = (lo_m & ((np.int64(1) << capped) - 1)) != 0
        lo_c = (lo_m >> capped) | sticky
        total = (hi_m << window) + lo_c
        scale = lo_e - mantissa_bits + shift
        res_m, res_e = self._normalize(total, scale, window, live)
        if any_zero:
            res_m = np.where(zero_a, mb, np.where(zero_b, ma, res_m))
            res_e = np.where(zero_a, eb, np.where(zero_b, ea, res_e))
        return res_m, res_e

    def multiply(self, ma, ea, mb, eb):
        zero = (ma == 0) | (mb == 0)
        any_zero = bool(zero.any())
        mantissa_bits = self.fmt.mantissa_bits
        if any_zero:
            one_m, one_e = self.one
            product = np.where(zero, one_m, ma) * np.where(zero, one_m, mb)
            scale = (
                np.where(zero, one_e, ea)
                + np.where(zero, one_e, eb)
                - 2 * mantissa_bits
            )
            live = ~zero
        else:
            product = ma * mb
            scale = ea + eb - 2 * mantissa_bits
            live = True
        # excess_no_carry is the scalar M for every multiply lane.
        res_m, res_e = self._normalize(product, scale, mantissa_bits, live)
        if any_zero:
            res_m = np.where(zero, 0, res_m)
            res_e = np.where(zero, 0, res_e)
        return res_m, res_e

    def maximum(self, ma, ea, mb, eb):
        zero_a, zero_b = ma == 0, mb == 0
        a_wins = ~zero_a & (
            zero_b | (ea > eb) | ((ea == eb) & (ma >= mb))
        )
        return np.where(a_wins, ma, mb), np.where(a_wins, ea, eb)

    # -- conversions ----------------------------------------------------
    def pack(self, mantissas: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        """Pack (m, e) pairs into (E|M) storage words, zero → 0.

        Vectorized :func:`repro.hw.netlist.pack_float_word`: biased
        exponent in the high E bits (0 encodes zero), hidden-bit-stripped
        fraction in the low M bits.
        """
        mantissa_bits = self.fmt.mantissa_bits
        biased = exponents + self.fmt.bias
        fraction = mantissas - (np.int64(1) << mantissa_bits)
        return np.where(
            mantissas == 0, 0, (biased << mantissa_bits) | fraction
        )

    def to_real(self, mantissas: np.ndarray, exponents: np.ndarray):
        """Float64 values of (m, e) pairs."""
        return np.ldexp(
            mantissas.astype(np.float64),
            (exponents - self.fmt.mantissa_bits).astype(np.int32),
        )


class FloatBatchExecutor:
    """Exact batched float emulation on (mantissa, exponent) int64 pairs.

    The tape-sweep front end of :class:`FloatWordKernel` (see its
    docstring for the operator semantics and exactness argument); this
    is new in the engine — the seed had no vectorized float path, so
    float sweeps paid the scalar big-int loop for every instance.
    """

    def __init__(
        self,
        tape: Tape,
        fmt: FloatFormat,
        encoder: EvidenceEncoder | None = None,
    ) -> None:
        _require_binary_tape(tape)
        kernel = FloatWordKernel(fmt)
        self._kernel = kernel
        self.tape = tape
        self.fmt = fmt
        self.encoder = encoder or EvidenceEncoder.for_tape(tape)
        self._param_mantissas, self._param_exponents = kernel.encode_params(
            tape.param_values
        )
        self._one = kernel.one
        self._add = kernel.add
        self._multiply = kernel.multiply
        self._maximum = kernel.maximum

    def encode_theta(
        self, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row quantized parameter tables for a θ batch.

        Returns the lane-major ``(n_params, n_theta)`` int64 ``(m, e)``
        word matrix pair to pass as ``param_words`` — quantized once per
        batch, reusable across forward and backward sweeps.
        """
        return self._kernel.encode_param_matrix(theta)

    # -- evaluation -----------------------------------------------------
    def _forward_word_slots(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mantissas, exponents)`` of all slots, ``(num_slots, batch)``."""
        tape = self.tape
        active = self.encoder.encode(evidence_batch, strict=strict)
        batch = len(evidence_batch)
        mantissas = np.zeros((tape.num_slots, batch), dtype=np.int64)
        exponents = np.zeros((tape.num_slots, batch), dtype=np.int64)
        if param_words is None:
            mantissas[tape.param_slots] = self._param_mantissas[
                tape.param_ids
            ][:, None]
            exponents[tape.param_slots] = self._param_exponents[
                tape.param_ids
            ][:, None]
        else:
            word_m, word_e = param_words
            mantissas[tape.param_slots] = word_m[tape.param_ids]
            exponents[tape.param_slots] = word_e[tape.param_ids]
        one_m, one_e = self._one
        mantissas[tape.indicator_slots] = np.where(active, one_m, 0)
        exponents[tape.indicator_slots] = np.where(active, one_e, 0)
        for opcode, dest, left, right in tape.op_tuples:
            if opcode == OP_SUM:
                m, e = self._add(
                    mantissas[left], exponents[left],
                    mantissas[right], exponents[right],
                )
            elif opcode == OP_PRODUCT:
                m, e = self._multiply(
                    mantissas[left], exponents[left],
                    mantissas[right], exponents[right],
                )
            elif opcode == OP_MAX:
                m, e = self._maximum(
                    mantissas[left], exponents[left],
                    mantissas[right], exponents[right],
                )
            else:  # OP_COPY
                m, e = mantissas[left], exponents[left]
            mantissas[dest] = m
            exponents[dest] = e
        return mantissas, exponents

    def evaluate_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Root ``(mantissas, exponents)`` pairs, each shape ``(batch,)``.

        ``param_words`` (from :meth:`encode_theta`) seeds per-lane
        quantized parameter tables for θ-batch replays.
        """
        root = self.tape.require_root()
        if len(evidence_batch) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        mantissas, exponents = self._forward_word_slots(
            evidence_batch, strict, param_words
        )
        return mantissas[root].copy(), exponents[root].copy()

    # -- backward (derivative) sweep ------------------------------------
    def partials_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[
        tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ]:
        """Quantized values and partials as ``(mantissa, exponent)`` pairs.

        Returns ``((value_m, value_e), (partial_m, partial_e))``, each
        array of shape ``(num_nodes, batch)``. The backward sweep runs
        entirely in the emulated float arithmetic — one rounded multiply
        plus one rounded add per adjoint contribution — bit-identical to
        :meth:`QuantizedTapeEvaluator.partials` with the big-int
        :class:`~repro.arith.floatingpoint.FloatBackend`.
        ``param_words`` (from :meth:`encode_theta`) seeds per-lane
        quantized parameter tables for θ-batch replays.
        """
        tape = self.tape
        tape.require_differentiable()
        root = tape.require_root()
        batch = len(evidence_batch)
        if batch == 0:
            empty = np.empty((tape.num_nodes, 0), dtype=np.int64)
            return (empty, empty.copy()), (empty.copy(), empty.copy())
        mantissas, exponents = self._forward_word_slots(
            evidence_batch, strict, param_words
        )
        adj_m = np.zeros((tape.num_slots, batch), dtype=np.int64)
        adj_e = np.zeros((tape.num_slots, batch), dtype=np.int64)
        one_m, one_e = self._one
        adj_m[root] = one_m
        adj_e[root] = one_e
        for opcode, dest, left, right in tape.backward.op_tuples:
            seed_m, seed_e = adj_m[dest], adj_e[dest]
            if opcode == OP_PRODUCT:
                contrib_m, contrib_e = self._multiply(
                    seed_m, seed_e, mantissas[right], exponents[right]
                )
                m, e = self._add(
                    adj_m[left], adj_e[left], contrib_m, contrib_e
                )
                adj_m[left], adj_e[left] = m, e
                contrib_m, contrib_e = self._multiply(
                    seed_m, seed_e, mantissas[left], exponents[left]
                )
                m, e = self._add(
                    adj_m[right], adj_e[right], contrib_m, contrib_e
                )
                adj_m[right], adj_e[right] = m, e
            else:  # OP_SUM / OP_COPY: adjoints flow through unscaled
                m, e = self._add(adj_m[left], adj_e[left], seed_m, seed_e)
                adj_m[left], adj_e[left] = m, e
                if opcode == OP_SUM:
                    m, e = self._add(
                        adj_m[right], adj_e[right], seed_m, seed_e
                    )
                    adj_m[right], adj_e[right] = m, e
        n = tape.num_nodes
        return (
            (mantissas[:n].copy(), exponents[:n].copy()),
            (adj_m[:n].copy(), adj_e[:n].copy()),
        )

    def partials_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(values, partials)`` per node for a whole batch."""
        (value_m, value_e), (adj_m, adj_e) = self.partials_batch_words(
            evidence_batch, strict=strict, param_words=param_words
        )
        shift = self.fmt.mantissa_bits
        values = np.ldexp(
            value_m.astype(np.float64), (value_e - shift).astype(np.int32)
        )
        partials = np.ldexp(
            adj_m.astype(np.float64), (adj_e - shift).astype(np.int32)
        )
        return values, partials

    def evaluate_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Float64 values of the root for a whole batch."""
        mantissas, exponents = self.evaluate_batch_words(
            evidence_batch, strict=strict, param_words=param_words
        )
        return np.ldexp(
            mantissas.astype(np.float64),
            (exponents - self.fmt.mantissa_bits).astype(np.int32),
        )
