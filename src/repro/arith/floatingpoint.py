"""Exact normalized floating-point arithmetic simulation.

A float format has ``E`` exponent bits and ``M`` mantissa (fraction) bits.
Values are sign-less (probabilities): ``value = m · 2^(e - M)`` with a
normalized integer mantissa ``2^M ≤ m < 2^(M+1)`` (hidden leading one) and
MSB exponent ``e``, or the exact zero. With bias ``2^(E-1) - 1`` and the
all-zero biased exponent reserved for the zero encoding, the usable
exponent range is

.. math:: e_{min} = 2 - 2^{E-1} \\quad\\text{and}\\quad e_{max} = 2^{E-1}.

(Custom inference hardware needs neither infinities nor NaNs, so the top
biased exponent is not reserved; for E=8 this gives the familiar minimum
normal 2^-126.)

Operator semantics follow §3.1.2 of the paper: every operator computes the
*exact* result on integer mantissas and performs exactly one
round-to-nearest back to M mantissa bits, so each operator satisfies
``f̃ = f(1 ± ε)`` with ``ε ≤ 2^-(M+1)`` (eqs. 6–12). A hardware FPU with
guard/round/sticky bits implements exactly this behaviour.

Out-of-range results raise :class:`FloatOverflowError` /
:class:`FloatUnderflowError`: ProbLP's max/min-value analysis chooses E so
these never fire, and the error models are invalid if they would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rounding import (
    RoundingMode,
    float_to_scaled_integer,
    round_shift,
    scaled_integer_to_float,
)


class FloatOverflowError(ArithmeticError):
    """A value exceeded the largest normal number of the format."""


class FloatUnderflowError(ArithmeticError):
    """A non-zero value fell below the smallest normal number."""


@dataclass(frozen=True)
class FloatFormat:
    """A normalized, sign-less floating-point representation ``(E, M)``."""

    exponent_bits: int
    mantissa_bits: int
    rounding: RoundingMode = field(default=RoundingMode.NEAREST_EVEN)

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise ValueError("need at least 2 exponent bits")
        if self.mantissa_bits < 1:
            raise ValueError("need at least 1 mantissa bit")

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_exponent(self) -> int:
        """Smallest usable MSB exponent (biased code 1)."""
        return 1 - self.bias

    @property
    def max_exponent(self) -> int:
        """Largest usable MSB exponent (top biased code, no inf/nan)."""
        return (1 << self.exponent_bits) - 1 - self.bias

    @property
    def min_normal(self) -> float:
        return 2.0 ** self.min_exponent

    @property
    def max_value(self) -> float:
        return (2.0 - 2.0 ** (-self.mantissa_bits)) * 2.0 ** self.max_exponent

    @property
    def fits_int64_products(self) -> bool:
        """True when mantissa products stay exact in int64 lanes.

        The contract of the vectorized word kernel behind
        :class:`repro.engine.WordBatchExecutor` and the stream
        simulator (:class:`repro.engine.FloatWordKernel`):
        ``2·(M+1) ≤ 62`` and bounded exponents (``E ≤ 32``). Wider
        formats must use the scalar big-int backend.
        """
        return 2 * (self.mantissa_bits + 1) <= 62 and self.exponent_bits <= 32

    @property
    def unit_roundoff(self) -> float:
        """The per-operation relative error bound ε.

        2^-(M+1) for the nearest modes (eq. 6), 2^-M for truncation.
        """
        return self.rounding.ulp_error_fraction * 2.0 ** (-self.mantissa_bits)

    def describe(self) -> str:
        return f"float(E={self.exponent_bits}, M={self.mantissa_bits})"


@dataclass(frozen=True)
class FloatNumber:
    """An immutable normalized float value or exact zero.

    ``value = mantissa · 2^(exponent - M)``; ``mantissa`` has exactly
    ``M+1`` bits when non-zero (normalized, hidden bit explicit).
    """

    mantissa: int
    exponent: int
    fmt: FloatFormat

    def __post_init__(self) -> None:
        if self.mantissa == 0:
            return
        m_bits = self.fmt.mantissa_bits + 1
        if self.mantissa.bit_length() != m_bits:
            raise ValueError(
                f"mantissa {self.mantissa} is not normalized to {m_bits} bits"
            )
        if not self.fmt.min_exponent <= self.exponent <= self.fmt.max_exponent:
            raise ValueError(
                f"exponent {self.exponent} outside "
                f"[{self.fmt.min_exponent}, {self.fmt.max_exponent}]"
            )

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def to_float(self) -> float:
        if self.is_zero:
            return 0.0
        return scaled_integer_to_float(
            self.mantissa, self.exponent - self.fmt.mantissa_bits
        )


class FloatBackend:
    """Quantized-evaluation backend for a floating-point format.

    Implements the :class:`repro.ac.evaluate.QuantizedBackend` protocol.
    """

    def __init__(self, fmt: FloatFormat) -> None:
        self.fmt = fmt

    # -- internal ---------------------------------------------------------
    def _normalize(self, mantissa: int, scale: int) -> FloatNumber:
        """Round ``mantissa · 2^scale`` to the format (one rounding)."""
        if mantissa == 0:
            return FloatNumber(0, 0, self.fmt)
        target_bits = self.fmt.mantissa_bits + 1
        excess = mantissa.bit_length() - target_bits
        rounded = round_shift(mantissa, excess, self.fmt.rounding)
        scale += excess
        if rounded.bit_length() > target_bits:
            # Rounding carried into a new MSB (e.g. 0b1111 -> 0b10000);
            # the result is a power of two, so this shift is exact.
            rounded >>= 1
            scale += 1
        exponent = scale + self.fmt.mantissa_bits
        if exponent > self.fmt.max_exponent:
            raise FloatOverflowError(
                f"overflow in {self.fmt.describe()}: exponent {exponent} > "
                f"{self.fmt.max_exponent}; increase exponent bits"
            )
        if exponent < self.fmt.min_exponent:
            raise FloatUnderflowError(
                f"underflow in {self.fmt.describe()}: exponent {exponent} < "
                f"{self.fmt.min_exponent}; min-value analysis should pick E "
                f"large enough"
            )
        return FloatNumber(rounded, exponent, self.fmt)

    # -- construction -----------------------------------------------------
    def from_real(self, x: float) -> FloatNumber:
        """Quantize a real value; relative error ≤ 2^-(M+1) (eq. 6)."""
        mantissa, scale = float_to_scaled_integer(x)
        return self._normalize(mantissa, scale)

    def zero(self) -> FloatNumber:
        return FloatNumber(0, 0, self.fmt)

    def one(self) -> FloatNumber:
        if self.fmt.max_exponent < 0 or self.fmt.min_exponent > 0:
            raise FloatOverflowError(
                f"{self.fmt.describe()} cannot represent 1.0"
            )
        return FloatNumber(1 << self.fmt.mantissa_bits, 0, self.fmt)

    # -- operators ----------------------------------------------------------
    def add(self, a: FloatNumber, b: FloatNumber) -> FloatNumber:
        """Exact alignment and sum, then one rounding (eq. 9)."""
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        scale_a = a.exponent - self.fmt.mantissa_bits
        scale_b = b.exponent - self.fmt.mantissa_bits
        scale = min(scale_a, scale_b)
        total = (a.mantissa << (scale_a - scale)) + (
            b.mantissa << (scale_b - scale)
        )
        return self._normalize(total, scale)

    def multiply(self, a: FloatNumber, b: FloatNumber) -> FloatNumber:
        """Exact product of mantissas, then one rounding (eq. 11)."""
        if a.is_zero or b.is_zero:
            return self.zero()
        product = a.mantissa * b.mantissa
        scale = (
            a.exponent
            - self.fmt.mantissa_bits
            + b.exponent
            - self.fmt.mantissa_bits
        )
        return self._normalize(product, scale)

    def maximum(self, a: FloatNumber, b: FloatNumber) -> FloatNumber:
        """Exact comparison — no rounding."""
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if (a.exponent, a.mantissa) >= (b.exponent, b.mantissa):
            return a
        return b

    # -- conversion -----------------------------------------------------------
    def to_real(self, a: FloatNumber) -> float:
        return a.to_float()

    def __repr__(self) -> str:
        return f"FloatBackend({self.fmt.describe()})"
