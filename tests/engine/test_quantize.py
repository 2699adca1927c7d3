"""Vectorized parameter quantization vs the big-int golden tier.

``FixedWordKernel`` / ``FloatWordKernel`` quantize whole θ batches with
numpy (``frexp`` mantissas + a vectorized ``round_shift``). Every word,
and every exception type and message, must match
``FixedPointBackend.from_real`` / ``FloatBackend.from_real`` applied to
the same entries in row-major order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import (
    FixedPointBackend,
    FixedPointFormat,
    FixedPointOverflowError,
    FloatBackend,
    FloatFormat,
    FloatOverflowError,
    FloatUnderflowError,
    RoundingMode,
)
from repro.engine.executors import FixedWordKernel, FloatWordKernel

MODES = list(RoundingMode)
SUBNORMALS = [5e-324, 1e-310, 2.2250738585072009e-308]
INVALID = [float("nan"), float("inf"), float("-inf"), -1.0, -5e-324]


@st.composite
def fixed_formats(draw):
    integer_bits = draw(st.integers(1, 3))
    fraction_bits = draw(st.integers(0, 31 - integer_bits))
    return FixedPointFormat(integer_bits, fraction_bits, draw(st.sampled_from(MODES)))


@st.composite
def float_formats(draw):
    return FloatFormat(
        draw(st.integers(2, 11)),
        draw(st.integers(1, 30)),
        draw(st.sampled_from(MODES)),
    )


def golden(kernel):
    """Per-entry word tuple from the big-int ``from_real`` golden tier."""
    if isinstance(kernel, FloatWordKernel):
        backend = FloatBackend(kernel.fmt)

        def convert(x):
            number = backend.from_real(x)
            return number.mantissa, number.exponent

        return convert
    backend = FixedPointBackend(kernel.fmt)
    return lambda x: (backend.from_real(x).mantissa,)


def word_arrays(words):
    """``encode_*`` output as a tuple of arrays: ``(w,)`` or ``(m, e)``."""
    return words if isinstance(words, tuple) else (words,)


def assert_matches_golden(kernel, theta):
    """``encode_param_matrix(theta)`` agrees with ``from_real`` per entry."""
    theta = np.asarray(theta, dtype=np.float64)
    convert = golden(kernel)
    want = []
    try:
        for x in theta.ravel():
            want.append(convert(float(x)))
    except (ArithmeticError, ValueError) as error:
        with pytest.raises(type(error)) as caught:
            kernel.encode_param_matrix(theta)
        assert type(caught.value) is type(error)
        assert str(caught.value) == str(error)
        return
    got = word_arrays(kernel.encode_param_matrix(theta))
    want = np.asarray(want, dtype=np.int64).reshape(*theta.shape, len(got))
    for index, array in enumerate(got):
        assert array.flags.c_contiguous and array.dtype == np.int64
        assert array.shape == theta.shape[::-1]
        assert (array == want[..., index].T).all()


#: Non-negative finite doubles: subnormals through the largest double.
reals = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
#: Values a mantissa's width or so around 1, where formats are dense.
near_one = st.builds(
    lambda fraction, exponent: float(np.ldexp(fraction, exponent)),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-40, 4),
)
entries = st.one_of(reals, near_one, st.sampled_from([0.0, -0.0, *SUBNORMALS]))


def matrices(elements):
    return st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    )


class TestFixedQuantizer:
    @settings(max_examples=300, deadline=None)
    @given(fixed_formats(), matrices(entries))
    def test_matches_from_real(self, fmt, theta):
        kernel = FixedWordKernel(fmt)
        assert_matches_golden(kernel, theta)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fraction_bits", [0, 1, 7, 15, 28])
    def test_half_ulp_ties(self, mode, fraction_bits):
        fmt = FixedPointFormat(3, fraction_bits, mode)
        kernel = FixedWordKernel(fmt)
        odd = 2 * np.arange(16) + 1
        ties = np.ldexp(odd.astype(np.float64), -(fraction_bits + 1))
        assert_matches_golden(kernel, ties[None])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("integer_bits, fraction_bits", [(1, 15), (3, 28), (1, 0)])
    def test_rounds_up_into_overflow(self, mode, integer_bits, fraction_bits):
        fmt = FixedPointFormat(integer_bits, fraction_bits, mode)
        kernel = FixedWordKernel(fmt)
        edge = 2.0**integer_bits - 2.0 ** -(fraction_bits + 1)
        assert_matches_golden(kernel, [[0.25, edge]])
        if mode is RoundingMode.TRUNCATE:
            assert kernel.encode_params([edge])[0] == fmt.max_mantissa
        else:
            with pytest.raises(FixedPointOverflowError, match="exceeds range"):
                kernel.encode_params([edge])

    @pytest.mark.parametrize("mode", MODES)
    def test_zeros_subnormals_and_huge(self, mode):
        kernel = FixedWordKernel(FixedPointFormat(1, 30, mode))
        tiny = [[0.0, -0.0, *SUBNORMALS, 2.0**-31, 2.0**-32]]
        assert_matches_golden(kernel, tiny)
        assert (kernel.encode_param_matrix(tiny)[:, 0][:5] == 0).all()
        assert_matches_golden(kernel, [[1.7976931348623157e308]])


class TestFloatQuantizer:
    @settings(max_examples=300, deadline=None)
    @given(float_formats(), matrices(entries))
    def test_matches_from_real(self, fmt, theta):
        kernel = FloatWordKernel(fmt)
        assert_matches_golden(kernel, theta)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mantissa_bits", [1, 10, 23, 30])
    def test_half_ulp_ties(self, mode, mantissa_bits):
        kernel = FloatWordKernel(FloatFormat(8, mantissa_bits, mode))
        # (2^(M+1) + k + 1/2) · 2^-(M+1): exact ties between neighbours,
        # the last one carrying into a new power of two.
        lead = 2 ** (mantissa_bits + 1)
        k = np.array([0, 1, 2, 3, lead - 2, lead - 1], dtype=np.float64)
        ties = np.ldexp(2 * (lead + k) + 1, -(mantissa_bits + 2))
        assert_matches_golden(kernel, [ties, ties / 8])

    @pytest.mark.parametrize("mode", MODES)
    def test_overflow_and_underflow_exponents(self, mode):
        fmt = FloatFormat(4, 6, mode)  # exponents in [-6, 8]
        kernel = FloatWordKernel(fmt)
        top = (2.0 - 2.0**-7) * 2.0**fmt.max_exponent  # rounds up past max
        for value in [2.0**9, top, fmt.max_value, 2.0**-7, fmt.min_normal]:
            assert_matches_golden(kernel, [[0.5, value]])
        with pytest.raises(FloatOverflowError, match="exponent 9 > 8"):
            kernel.encode_params([2.0**9])
        with pytest.raises(FloatUnderflowError, match="exponent -7 < -6"):
            kernel.encode_params([2.0**-7])

    @pytest.mark.parametrize("mode", MODES)
    def test_zeros_and_subnormals(self, mode):
        kernel = FloatWordKernel(FloatFormat(11, 20, mode))
        assert_matches_golden(kernel, [[0.0, -0.0, 0.5]])
        mantissas, exponents = kernel.encode_params([0.0, -0.0])
        assert (mantissas == 0).all() and (exponents == 0).all()
        # E=11 cannot reach the subnormal doubles: underflow parity.
        for value in SUBNORMALS:
            assert_matches_golden(kernel, [[value]])


KERNELS = [
    pytest.param(FixedWordKernel(FixedPointFormat(1, 15)), id="fixed"),
    pytest.param(FloatWordKernel(FloatFormat(4, 6)), id="float"),
]


class TestSharedContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=200, deadline=None)
    @given(
        theta=matrices(
            st.one_of(
                st.sampled_from([0.5, 0.0, 2.0**-7, 2.0**9, 3.0, *INVALID]),
                st.floats(0.0, 1.0),
            )
        )
    )
    def test_first_offender_in_row_major_order(self, kernel, theta):
        assert_matches_golden(kernel, theta)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bad", INVALID)
    def test_invalid_input_message(self, kernel, bad):
        with pytest.raises(ValueError) as caught:
            kernel.encode_param_matrix([[0.25, 0.5], [0.75, bad]])
        assert str(caught.value) == (
            f"expected a non-negative finite float, got {bad!r}"
        )

    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(FixedWordKernel(FixedPointFormat(1, 15)), id="fixed"),
            pytest.param(FloatWordKernel(FloatFormat(8, 10)), id="float"),
        ],
    )
    @given(st.lists(st.one_of(st.just(0.0), st.floats(2.0**-100, 1.0)), max_size=12))
    def test_encode_params_is_the_one_row_case(self, kernel, values):
        single = word_arrays(kernel.encode_params(values))
        matrix = word_arrays(kernel.encode_param_matrix(np.asarray(values)[None]))
        for got, want in zip(single, matrix, strict=True):
            assert got.shape == (len(values),)
            assert (got == want[:, 0]).all()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_theta_batch_is_lane_major(self, kernel):
        for array in word_arrays(kernel.encode_param_matrix(np.zeros((0, 16)))):
            assert array.shape == (16, 0)
            assert array.dtype == np.int64
