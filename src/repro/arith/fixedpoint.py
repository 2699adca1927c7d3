"""Exact unsigned fixed-point arithmetic simulation.

A fixed-point format has ``I`` integer bits and ``F`` fraction bits
(``N = I + F`` total; probabilities are non-negative so there is no sign
bit). A number is stored as an integer mantissa ``m`` with value
``m · 2⁻F``, ``0 ≤ m < 2^(I+F)``.

Operator semantics follow §3.1.1 of the paper:

* conversion of a real leaf value rounds to the nearest representable
  value — error ≤ 2^-(F+1) (eq. 2);
* the adder is exact (no rounding, eq. 3) — overflow cannot occur when
  the integer bits were chosen by max-value analysis;
* the multiplier computes the exact 2F-fraction-bit product and rounds
  the low bits away — one extra error ≤ 2^-(F+1) (eq. 4).

Overflow raises :class:`FixedPointOverflowError` instead of saturating or
wrapping: ProbLP guarantees by construction that the chosen format never
overflows, so an overflow here is a bug in the caller's range analysis
and must not be masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rounding import (
    RoundingMode,
    float_to_scaled_integer,
    round_shift,
    scaled_integer_to_float,
)


class FixedPointOverflowError(ArithmeticError):
    """A value exceeded the representable range ``[0, 2^I - 2^-F]``."""


@dataclass(frozen=True)
class FixedPointFormat:
    """An unsigned fixed-point representation ``(I, F)``."""

    integer_bits: int
    fraction_bits: int
    rounding: RoundingMode = field(default=RoundingMode.NEAREST_EVEN)

    def __post_init__(self) -> None:
        if self.integer_bits < 0:
            raise ValueError("integer_bits must be non-negative")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        if self.integer_bits + self.fraction_bits == 0:
            raise ValueError("format needs at least one bit")

    @property
    def total_bits(self) -> int:
        """N = I + F, the paper's bit-count for fixed-point energy models."""
        return self.integer_bits + self.fraction_bits

    @property
    def max_mantissa(self) -> int:
        return (1 << self.total_bits) - 1

    @property
    def max_value(self) -> float:
        return self.max_mantissa * 2.0 ** (-self.fraction_bits)

    @property
    def resolution(self) -> float:
        """One unit in the last place, 2^-F."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def fits_int64_products(self) -> bool:
        """True when 2F-fraction products stay exact in int64 lanes.

        The contract of the vectorized word kernel behind
        :class:`repro.engine.WordBatchExecutor` and the stream
        simulator (:class:`repro.engine.FixedWordKernel`):
        ``2·(I+F) ≤ 62``.
        Wider formats must use the scalar big-int backend.
        """
        return 2 * self.total_bits <= 62

    @property
    def conversion_error_bound(self) -> float:
        """Worst-case rounding error of a single conversion.

        2^-(F+1) for the nearest modes (eq. 2), 2^-F for truncation.
        """
        return self.rounding.ulp_error_fraction * 2.0 ** (-self.fraction_bits)

    def describe(self) -> str:
        return f"fixed(I={self.integer_bits}, F={self.fraction_bits})"


@dataclass(frozen=True)
class FixedPointNumber:
    """An immutable fixed-point value: ``mantissa · 2^-F``."""

    mantissa: int
    fmt: FixedPointFormat

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa <= self.fmt.max_mantissa:
            raise FixedPointOverflowError(
                f"mantissa {self.mantissa} out of range for "
                f"{self.fmt.describe()}"
            )

    def to_float(self) -> float:
        return scaled_integer_to_float(self.mantissa, -self.fmt.fraction_bits)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0


class FixedPointBackend:
    """Quantized-evaluation backend for a fixed-point format.

    Implements the :class:`repro.ac.evaluate.QuantizedBackend` protocol.
    """

    def __init__(self, fmt: FixedPointFormat) -> None:
        self.fmt = fmt

    # -- construction ---------------------------------------------------
    def from_real(self, x: float) -> FixedPointNumber:
        """Quantize a real value; error ≤ 2^-(F+1) (eq. 2 of the paper)."""
        mantissa, scale = float_to_scaled_integer(x)
        # Value = mantissa · 2^scale; target mantissa is value · 2^F,
        # i.e. shift by -(scale + F).
        shift = -(scale + self.fmt.fraction_bits)
        rounded = round_shift(mantissa, shift, self.fmt.rounding)
        if rounded > self.fmt.max_mantissa:
            raise FixedPointOverflowError(
                f"value {x!r} exceeds range of {self.fmt.describe()}; "
                f"increase integer bits"
            )
        return FixedPointNumber(rounded, self.fmt)

    def zero(self) -> FixedPointNumber:
        return FixedPointNumber(0, self.fmt)

    def one(self) -> FixedPointNumber:
        if self.fmt.integer_bits < 1:
            raise FixedPointOverflowError(
                f"{self.fmt.describe()} cannot represent 1.0; indicator "
                f"inputs need at least one integer bit"
            )
        return FixedPointNumber(1 << self.fmt.fraction_bits, self.fmt)

    # -- operators -------------------------------------------------------
    def add(self, a: FixedPointNumber, b: FixedPointNumber) -> FixedPointNumber:
        """Exact addition (eq. 3): fixed-point adders do not round."""
        total = a.mantissa + b.mantissa
        if total > self.fmt.max_mantissa:
            raise FixedPointOverflowError(
                f"adder overflow in {self.fmt.describe()}; max-value "
                f"analysis should have prevented this"
            )
        return FixedPointNumber(total, self.fmt)

    def multiply(
        self, a: FixedPointNumber, b: FixedPointNumber
    ) -> FixedPointNumber:
        """Multiply then round the low F bits away (eq. 4)."""
        product = a.mantissa * b.mantissa  # exact, value = p · 2^-2F
        rounded = round_shift(product, self.fmt.fraction_bits, self.fmt.rounding)
        if rounded > self.fmt.max_mantissa:
            raise FixedPointOverflowError(
                f"multiplier overflow in {self.fmt.describe()}"
            )
        return FixedPointNumber(rounded, self.fmt)

    def maximum(
        self, a: FixedPointNumber, b: FixedPointNumber
    ) -> FixedPointNumber:
        """Exact comparison — MPE max nodes introduce no rounding."""
        return a if a.mantissa >= b.mantissa else b

    # -- conversion -------------------------------------------------------
    def to_real(self, a: FixedPointNumber) -> float:
        return a.to_float()

    def __repr__(self) -> str:
        return f"FixedPointBackend({self.fmt.describe()})"
