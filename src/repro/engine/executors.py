"""Tape executors: every sweep variant, one shared IR.

All executors replay the same :class:`~repro.engine.tape.Tape`:

* :func:`execute_values` / :func:`execute_real` — scalar float64, the
  reference semantics (bit-identical to the seed per-node loop);
* :func:`execute_batch` — numpy float64 over a whole evidence batch, one
  vector op per ``(level, opcode)`` segment of :attr:`Tape.segments`
  (bit-identical to the scalar pass: the ops of a segment are
  independent and elementwise, and both fold left-to-right in IEEE
  doubles);
* :class:`QuantizedTapeEvaluator` — scalar sweep with any
  :class:`~repro.ac.evaluate.QuantizedBackend`;
* :class:`WordBatchExecutor` — exact quantized sweeps over a batch on
  int64 word planes, bit-identical to
  :class:`~repro.arith.fixedpoint.FixedPointBackend` and
  :class:`~repro.arith.floatingpoint.FloatBackend`. One forward and one
  backward sweep serve both arithmetics; the format picks the word
  kernel — :class:`FixedWordKernel` (one int64 mantissa plane) or
  :class:`FloatWordKernel` ((mantissa, exponent) planes) — which holds
  the operator semantics. The forward sweep replays the same level
  segments, and it is also the hardware stream simulator's datapath
  replay (:class:`repro.hw.stream.StreamSimulator`).

Vectorized exactness contracts: fixed point needs products to fit in
int64 (``2·(I+F) ≤ 62``); float needs mantissa products to fit
(``2·(M+1) ≤ 62``) and bounded exponents (``E ≤ 32``). Wider formats
must use the scalar big-int paths — the kernels raise ``ValueError`` so
callers can fall back.
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
from .tape import OP_COPY, OP_MAX, OP_PRODUCT, OP_SUM, Tape


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

    One numpy operation per level segment. With ``node_values=True`` returns
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
    for opcode, dests, lefts, rights in tape.segments:
        if opcode == OP_SUM:
            slots[dests] = slots[lefts] + slots[rights]
        elif opcode == OP_PRODUCT:
            slots[dests] = slots[lefts] * slots[rights]
        elif opcode == OP_MAX:
            slots[dests] = np.maximum(slots[lefts], slots[rights])
        else:  # OP_COPY
            slots[dests] = slots[lefts]
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
    op per level segment forward, one per tape op backward). Row-for-row
    bit-identical to :func:`execute_partials`. ``param_matrix`` seeds
    per-lane parameter values (lane-major ``(n_params, batch)``) for
    θ-batch replays; the backward sweep needs no further change — the
    product rule reads the per-lane forward slots.
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
# Vectorized word kernels: one operator interface, two arithmetics
# ----------------------------------------------------------------------
class _WordKernel:
    """The operator interface both int64 word kernels share.

    A word is an int64 ``(planes, …)`` stack: one mantissa plane for
    fixed point, a (mantissa, exponent) plane pair for float (§3.1.1 and
    §3.1.2 differ only in the word). ``add``, ``multiply`` and
    ``maximum`` take two stacks and the ``slot`` they compute — an int,
    or an index array for a level segment, named by a fixed-point
    overflow message — and return a new stack, rounded exactly once.
    :meth:`planes_of` / :meth:`words_of` convert
    from and to the public word shapes: an int64 array for fixed point,
    an ``(m, e)`` array pair for float.
    """

    #: Number of int64 planes per word.
    planes: int
    #: The word of 1.0, shape ``(planes,)``.
    one_planes: np.ndarray

    def encode_params(self, values: Sequence[float]):
        """Quantize real parameter values to words (one θ row)."""
        matrix = self.encode_param_matrix(np.asarray(values)[None])
        return self.words_of(self.planes_of(matrix)[..., 0])

    @property
    def operators(self) -> dict:
        """The two-input operator of each tape opcode (not OP_COPY)."""
        return {
            OP_SUM: self.add,
            OP_PRODUCT: self.multiply,
            OP_MAX: self.maximum,
        }


class FixedWordKernel(_WordKernel):
    """Bit-exact vectorized fixed-point operator semantics on int64 words.

    The operator core of :class:`WordBatchExecutor`, and through it of
    the hardware stream simulator: exact 2F-fraction products rounded
    back to F bits, exact sums, and the scalar backend's
    overflow-raising semantics. Valid for every format with
    ``2·(I+F) ≤ 62`` so products stay exact in int64 lanes.
    """

    planes = 1

    def __init__(self, fmt: FixedPointFormat) -> None:
        if not fmt.fits_int64_products:
            raise ValueError(
                f"vectorized fixed point needs 2·(I+F) ≤ 62 bits to stay "
                f"exact in int64; {fmt.describe()} has {fmt.total_bits} "
                f"total bits — use the big-int backend instead"
            )
        self.fmt = fmt
        self.max_mantissa = fmt.max_mantissa
        self.one_planes = np.array(
            [FixedPointBackend(fmt).one().mantissa], dtype=np.int64
        )

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
        mode = self.fmt.rounding
        if mode is RoundingMode.TRUNCATE:
            return products >> fraction_bits
        # Adding half (or, for ties-to-even, half - 1 plus the quotient's
        # parity) before the shift rounds in one pass; products < 2^62
        # leave room for the addend.
        half = 1 << (fraction_bits - 1)
        if mode is RoundingMode.NEAREST_UP:
            return (products + half) >> fraction_bits
        odd = (products >> fraction_bits) & 1
        return (products + (half - 1) + odd) >> fraction_bits

    def check(self, result: np.ndarray, slot) -> np.ndarray:
        """Overflow-check an op result, like the scalar backend raises."""
        if result.size and result.max() > self.max_mantissa:
            raise FixedPointOverflowError(
                f"overflow at slot {slot} in {self.fmt.describe()}"
            )
        return result

    # Composite checked operators (one rounding per two-input operator).
    def add(self, a: np.ndarray, b: np.ndarray, slot):
        return self.check(a + b, slot)

    def multiply(self, a: np.ndarray, b: np.ndarray, slot):
        return self.check(self.round_products(a * b), slot)

    def maximum(self, a: np.ndarray, b: np.ndarray, slot):
        return self.check(np.maximum(a, b), slot)

    # -- conversions ----------------------------------------------------
    def planes_of(self, words: np.ndarray) -> np.ndarray:
        return np.asarray(words)[None]

    def words_of(self, planes: np.ndarray) -> np.ndarray:
        return planes[0]

    def real(self, planes: np.ndarray) -> np.ndarray:
        """Float64 values of mantissa words."""
        return planes[0] * 2.0 ** (-self.fmt.fraction_bits)

    def pack_planes(self, planes: np.ndarray) -> np.ndarray:
        """Storage words: a fixed-point word is its mantissa."""
        return planes[0]


class FloatWordKernel(_WordKernel):
    """Bit-exact vectorized float operator semantics on (m, e) planes.

    The operator core of :class:`WordBatchExecutor`, and through it of
    the hardware stream simulator. Implements §3.1.2
    operator semantics — exact integer-mantissa arithmetic with exactly
    one rounding per operator — vectorized with numpy, bit-identical to
    :class:`FloatBackend` (differentially tested). Alignment in addition
    uses the classic guard/round/sticky compression: shifted-out addend
    bits collapse into one sticky bit at least two positions below the
    rounding point, which preserves the `>half` / `=half` / `<half`
    distinctions every rounding mode needs, so the compressed sum rounds
    exactly like the exact big-int sum.

    Zeros are (0, 0) pairs, masked through every operator like the
    scalar backend's ``is_zero`` short-circuits. Float messages name the
    format, not the operator site, so ``slot`` is unused.
    """

    planes = 2

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
        self.one_planes = np.array([one.mantissa, one.exponent], dtype=np.int64)

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
    ) -> np.ndarray:
        """Round ``value · 2^scale`` to the format (one rounding).

        ``value`` is known to have either ``M+1+excess_no_carry`` or one
        more significant bits (unsigned add/multiply never cancels);
        ``excess_no_carry`` may be a scalar or a per-lane array. ``live``
        marks lanes whose result is genuinely used (scalar True when all
        are); only live lanes can raise overflow/underflow. Returns the
        ``(m, e)`` plane stack.
        """
        mantissa_bits = self.fmt.mantissa_bits
        target = mantissa_bits + 1
        carry = value >= (np.int64(1) << (target + excess_no_carry))
        shift = excess_no_carry + carry
        rounded = _round_shift_words(value, shift, self.fmt.rounding)
        # Rounding may carry into a new MSB (all-ones mantissa); the
        # result is then a power of two, so halving is exact.
        overflowed = rounded >> target
        result = np.empty((2,) + rounded.shape, dtype=np.int64)
        np.right_shift(rounded, overflowed, out=result[0])
        exponent = np.add(
            scale + shift + mantissa_bits, overflowed, out=result[1]
        )
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
        return result

    # -- operators ------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray, slot):
        ma, ea, mb, eb = a[0], a[1], b[0], b[1]
        zero_a, zero_b = ma == 0, mb == 0
        any_zero = bool(zero_a.any()) or bool(zero_b.any())
        if any_zero:
            # Dummy-substitute zero lanes so the shared path stays in
            # range (1+1 can neither overflow nor underflow any format).
            one_m, one_e = self.one_planes
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
        result = self._normalize(total, scale, window, live)
        if any_zero:
            result = np.where(zero_a, b, np.where(zero_b, a, result))
        return result

    def multiply(self, a: np.ndarray, b: np.ndarray, slot):
        ma, ea, mb, eb = a[0], a[1], b[0], b[1]
        zero = (ma == 0) | (mb == 0)
        any_zero = bool(zero.any())
        mantissa_bits = self.fmt.mantissa_bits
        if any_zero:
            one_m, one_e = self.one_planes
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
        result = self._normalize(product, scale, mantissa_bits, live)
        if any_zero:
            result = np.where(zero, 0, result)
        return result

    def maximum(self, a: np.ndarray, b: np.ndarray, slot):
        ma, ea, mb, eb = a[0], a[1], b[0], b[1]
        a_wins = (ma != 0) & (
            (mb == 0) | (ea > eb) | ((ea == eb) & (ma >= mb))
        )
        return np.where(a_wins, a, b)

    # -- conversions ----------------------------------------------------
    def planes_of(
        self, words: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        return np.stack(words)

    def words_of(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return planes[0], planes[1]

    def real(self, planes: np.ndarray) -> np.ndarray:
        """Float64 values of (m, e) planes."""
        mantissas, exponents = planes
        return np.ldexp(
            mantissas.astype(np.float64),
            (exponents - self.fmt.mantissa_bits).astype(np.int32),
        )

    def pack_planes(self, planes: np.ndarray) -> np.ndarray:
        """Pack (m, e) planes into (E|M) storage words, zero → 0.

        Vectorized :func:`repro.hw.netlist.pack_float_word`: biased
        exponent in the high E bits (0 encodes zero), hidden-bit-stripped
        fraction in the low M bits.
        """
        mantissas, exponents = planes
        mantissa_bits = self.fmt.mantissa_bits
        biased = exponents + self.fmt.bias
        fraction = mantissas - (np.int64(1) << mantissa_bits)
        return np.where(
            mantissas == 0, 0, (biased << mantissa_bits) | fraction
        )


def word_kernel_for(fmt: FixedPointFormat | FloatFormat) -> _WordKernel:
    """The int64 word kernel of a format (``ValueError`` when too wide)."""
    if isinstance(fmt, FixedPointFormat):
        return FixedWordKernel(fmt)
    return FloatWordKernel(fmt)


# ----------------------------------------------------------------------
# Vectorized quantized tape sweeps
# ----------------------------------------------------------------------
class WordBatchExecutor:
    """Exact batched quantized evaluation on int64 word planes.

    One forward and one backward tape sweep serve both arithmetics: the
    format picks a :class:`FixedWordKernel` (int64 mantissas) or a
    :class:`FloatWordKernel` ((mantissa, exponent) pairs), which owns the
    operator semantics. Bit-identical to the scalar big-int backends
    (:class:`~repro.arith.fixedpoint.FixedPointBackend`,
    :class:`~repro.arith.floatingpoint.FloatBackend`) — every rounding
    mode, ``F = 0`` formats and the overflow/underflow exceptions
    included — whenever the format's ``fits_int64_products`` holds;
    wider formats raise ``ValueError`` so callers can fall back.

    The forward sweep replays :attr:`Tape.segments`, one kernel call per
    ``(level, opcode)`` segment. It reads only the tape's op-array
    layout, which a hardware :class:`~repro.hw.program.DatapathProgram`
    shares, so the same sweep simulates generated pipelines
    (:class:`~repro.hw.stream.StreamSimulator`).

    Words keep the kernels' public shapes: fixed-point words are int64
    arrays, float words ``(mantissa, exponent)`` array pairs.
    """

    def __init__(
        self,
        tape: Tape,
        fmt: FixedPointFormat | FloatFormat,
        encoder: EvidenceEncoder | None = None,
    ) -> None:
        _require_binary_tape(tape)
        self.kernel = kernel = word_kernel_for(fmt)
        self.tape = tape
        self.fmt = fmt
        self.encoder = encoder or EvidenceEncoder.for_tape(tape)
        # Quantize the deduplicated parameter table once, exactly.
        self._param_table = kernel.planes_of(
            kernel.encode_params(tape.param_values)
        )

    def encode_theta(self, theta: np.ndarray):
        """Per-row quantized parameter tables for a θ batch.

        Returns the lane-major ``(n_params, n_theta)`` words — an int64
        matrix for fixed point, an ``(m, e)`` matrix pair for float — to
        pass as ``param_words``: quantized once per batch, reusable
        across forward and backward sweeps.
        """
        return self.kernel.encode_param_matrix(theta)

    def _forward_planes(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool,
        param_words=None,
    ) -> np.ndarray:
        """Word planes of *all* slots, ``(planes, num_slots, batch)``.

        Errors name the first failing op in tape order, like the scalar
        backends and the native kernels. A segment may hold a failing op
        that comes later in the tape, so when a segment raises, the op
        stream is replayed one op at a time to raise the exact error.
        """
        tape, kernel = self.tape, self.kernel
        active = self.encoder.encode(evidence_batch, strict=strict)
        slots = np.zeros(
            (kernel.planes, tape.num_slots, len(evidence_batch)),
            dtype=np.int64,
        )
        if param_words is None:
            table = self._param_table[:, :, None]
        else:
            table = kernel.planes_of(param_words)
        slots[:, tape.param_slots] = table[:, tape.param_ids]
        slots[:, tape.indicator_slots] = np.where(
            active, kernel.one_planes[:, None, None], 0
        )
        if not slots.size:
            return slots  # a zero-lane batch: only its shapes matter
        try:
            self._sweep(slots, tape.segments)
        except (FixedPointOverflowError, FloatOverflowError, FloatUnderflowError):
            pass  # replayed below, outside the handler: no chained error
        else:
            return slots
        self._sweep(slots, tape.op_tuples)  # raises in tape order
        return slots

    def _sweep(self, slots: np.ndarray, stream) -> None:
        """Replay ``(opcode, dests, lefts, rights)`` level segments or
        tape ops (index arrays or ints) in order."""
        operators = self.kernel.operators
        for opcode, dests, lefts, rights in stream:
            if opcode == OP_COPY:
                slots[:, dests] = slots[:, lefts]
            else:
                slots[:, dests] = operators[opcode](
                    slots[:, lefts], slots[:, rights], dests
                )

    def _partials_planes(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool,
        param_words=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value and adjoint planes per node, ``(planes, num_nodes, batch)``.

        The backward sweep runs in the emulated arithmetic — one rounded
        multiply and one rounded add per adjoint contribution — exactly
        what :meth:`QuantizedTapeEvaluator.partials` does with the
        big-int backend.
        """
        tape, kernel = self.tape, self.kernel
        tape.require_differentiable()
        root = tape.require_root()
        slots = self._forward_planes(evidence_batch, strict, param_words)
        adjoints = np.zeros_like(slots)
        adjoints[:, root] = kernel.one_planes[:, None]
        add, multiply = kernel.add, kernel.multiply
        backward = tape.backward.op_tuples if slots.size else ()
        for opcode, dest, left, right in backward:
            seed = adjoints[:, dest]
            if opcode == OP_PRODUCT:
                contribution = multiply(seed, slots[:, right], left)
                adjoints[:, left] = add(adjoints[:, left], contribution, left)
                contribution = multiply(seed, slots[:, left], right)
                adjoints[:, right] = add(
                    adjoints[:, right], contribution, right
                )
            else:  # OP_SUM / OP_COPY: adjoints flow through unscaled
                adjoints[:, left] = add(adjoints[:, left], seed, left)
                if opcode == OP_SUM:
                    adjoints[:, right] = add(adjoints[:, right], seed, right)
        n = tape.num_nodes
        return slots[:, :n], adjoints[:, :n]

    def evaluate_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ):
        """Root words, each array of shape ``(batch,)``.

        Raises the scalar backend's overflow/underflow exception if any
        intermediate leaves the format's range. ``param_words`` (from
        :meth:`encode_theta`) seeds per-lane quantized parameter tables
        for θ-batch replays.
        """
        root = self.tape.require_root()
        planes = self._forward_planes(evidence_batch, strict, param_words)
        return self.kernel.words_of(planes[:, root].copy())

    def evaluate_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ) -> np.ndarray:
        """Float64 values of the root word for a whole batch."""
        root = self.tape.require_root()
        planes = self._forward_planes(evidence_batch, strict, param_words)
        return self.kernel.real(planes[:, root])

    def partials_batch_words(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ):
        """Quantized ``(values, partials)`` words per node.

        Each array has shape ``(num_nodes, batch)``; bit-identical to
        :meth:`QuantizedTapeEvaluator.partials` with the big-int backend.
        ``param_words`` (from :meth:`encode_theta`) seeds per-lane
        quantized parameter tables for θ-batch replays.
        """
        values, partials = self._partials_planes(
            evidence_batch, strict, param_words
        )
        words_of = self.kernel.words_of
        return words_of(values.copy()), words_of(partials.copy())

    def partials_batch(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
        param_words=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(values, partials)`` per node for a whole batch."""
        values, partials = self._partials_planes(
            evidence_batch, strict, param_words
        )
        return self.kernel.real(values), self.kernel.real(partials)
